"""Gradient-uniqueness scores and the rank-one spectral identities behind them.

The uniqueness score of example j at one iteration is the quadratic form

    gnq_j = g_j^T S_j^+ g_j,    S_j = sum_{k != j} g_k g_k^T,

where S_j^+ is the Moore-Penrose pseudoinverse with eigenvalues at or below
the cutoff tol * lambda_max(S_j) treated as zero. The score measures how far
g_j sticks out of the span and spectrum of everyone else's gradients: it is 0
when g_j is indistinguishable from the bulk and grows without bound as g_j
approaches a direction no other example covers. Each score carries a range_ok
flag, consistent with the cutoff: ||g_j - P_j g_j||^2 <= tol * lambda_max(S_j),
P_j the projector onto S_j's kept eigenvectors. The residual energy must be no
more than the cutoff discards. Out-of-range scores are reported, never fatal.

Audits score whole gradient arrays with two functions. `loo_scores` is
exact: it factors S = sum over all rows g_k g_k^T once and scores each row
against S - g_j g_j^T. `diagonal_scores` is the cheap surrogate over S's
diagonal. `gnq_exact` is the per-example reference both are checked against.

`downdate_guard` scores every row from one eigendecomposition S = V
diag(lambda) V^T. With c = tol * lambda_max it splits the eigenvalues three
ways: kept (above c); null (at or below N_p * eps * lambda_max, the backward
error of eigh), taken as zero, their part of z = V^T g_j going to the
residual; and the d near-cutoff ones in between. The eigenvalues of S_j =
S - g_j g_j^T are the roots of the secular equation

    h(mu) = sum_i z_i^2 / (lambda_i - mu) = 1,

one below each non-null pole lambda_i (Golub 1973; Bunch, Nielsen & Sorensen
1978). With q = h(0) = sum_i z_i^2 / lambda_i < 1, g_j^T S_j^+ g_j over all
non-null eigenvalues is q / (1 - q); a root mu that S_j's cutoff c_j = tol *
lambda_max(S_j) drops takes back 1 / (mu h'(mu)) from it and adds
1 / h'(mu), the squared overlap of its eigenvector with g_j, to the range
residual. By interlacing only the roots below the d near-cutoff poles and the
smallest kept pole can lie at or below c_j <= c, and lambda_max(S_j) is the
root below the largest pole. So the score is exact as long as S_j keeps as
many eigenvalues as S, and the guard decides that count exactly. A row falls
back with reason `crossing` when

(i)   a root below a near-cutoff pole rises above c_j (or a deflated
      near-cutoff eigenvalue, which stays an eigenvalue of S_j, lies above
      it);
(ii)  the lowest kept root falls to c_j or below. f(c) = 1 - sum_i z_i^2 /
      (lambda_i - c) >= 0 rules this out without a root: by Haynsworth's
      inertia additivity S_j has #{lambda_i < c} + [f(c) < 0] eigenvalues
      below c;
(iii) a null eigenvalue lies above tol * L_j, L_j = max(lambda_max -
      ||g_j||^2, lambda_{N_p - 1}) <= lambda_max(S_j), or S_j nearly loses
      rank: q >= 1, or a root at the null level, which S's factorization
      cannot tell from zero.

Roots are found only where the correction needs them (rows with weight on
a near-cutoff eigenvector) or where these certificates leave the count open
(f(c) < 0, or an eigenvalue between tol * L_j and c). On a clean iteration
(d = 0) every row with f(c) >= 0 takes q / (1 - q) and nothing else. Before
root-finding, z_i below N_p * eps * ||g_j||, the rounding of z itself, are
deflated to zero, and a near-cutoff pole within N_p * eps * lambda_max of
the next merges into it; a deflated pole stays an eigenvalue of S_j with no
weight on g_j. Two more reasons send a row back: `out_of_range` when the
null part of the residual, which the roots do not model, exceeds tol * L_j,
or N_p * eps / tol of ||g_j||^2 (more than rounding puts there: g_j lies
partly where S's factorization does not resolve it); and `cancellation`
when a - correction, a = q / (1 - q), amplifies rounding more than S_j's
conditioning does (see the bound in `downdate_guard`). range_ok is
residual <= c_j. A row that falls back is recomputed from the pseudoinverse
of its rebuilt S_j.

The module also carries the pseudo-determinant helpers used by the leakage
bound: `pdet_rank_one` for pdet(A + q q^T) = pdet(A) (1 + q^T A^+ q) with q
in range(A), and `pdet_and_rank`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InsufficientDataError, ShapeError

DEFAULT_TOL = 1e-10
_EPS = float(np.finfo(np.float64).eps)
# S is N_p x N_p in exact mode; above this, use diagonal mode.
EXACT_MODE_DIM_CAP = 4096


class GramMode(enum.Enum):
    FULL_EXACT = "full_exact"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class GradientSet:
    """Per-example gradients at one iteration, as rows of an (N, N_p) array."""

    vectors: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2:
            raise ShapeError(f"gradient array must be 2-d (N, N_p), got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("gradient set contains non-finite entries")
        object.__setattr__(self, "vectors", v)

    @property
    def n_examples(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


class FallbackReason(enum.Enum):
    """Why a leave-one-out score was recomputed from its own factorization.

    Score arrays hold the values, and "" where no recomputation was needed.
    """

    CROSSING = "crossing"  # S_j keeps a different number of eigenvalues, or loses rank
    OUT_OF_RANGE = "out_of_range"  # g_j's null part: range_ok or g_j unresolved by S
    CANCELLATION = "cancellation"  # the correction cancels past the rounding bound


_REASON_DTYPE = f"U{max(len(r.value) for r in FallbackReason)}"


@dataclass(frozen=True)
class SpectrumHealth:
    """Numeric health of one factorization of S, as `downdate_guard` split it."""

    rank: int  # eigenvalues above the cutoff
    null: int  # eigenvalues at or below eigh's backward error, taken as zero
    near_cutoff: tuple[float, ...]  # the others, as ratios to the cutoff
    secular: int  # rows scored through roots of the secular equation
    fallbacks: dict[str, int]  # rows needing their own factorization, by FallbackReason value


def _psd_eig(s: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigendecomposition of symmetric PSD s with a relative cutoff.

    Returns (kept eigenvalues, kept eigenvectors, lambda_max). Eigenvalues at
    or below tol * lambda_max count as zero, lambda_max = max(eig, 0).
    """
    w, v = np.linalg.eigh(s)
    lam_max = max(float(w[-1]), 0.0)
    keep = w > tol * lam_max
    return w[keep], v[:, keep], lam_max


def pinv_quadform(s: np.ndarray, g: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[float, bool]:
    """g^T s^+ g under the relative cutoff, and whether g lies in range(s).

    range_ok is ||g - P g||^2 <= tol * lambda_max(s), P the projector onto the
    kept eigenvectors; a zero s leaves only g = 0 in range.
    """
    w, v, lam_max = _psd_eig(s, tol)
    coeff = v.T @ g
    value = float(np.sum(coeff**2 / w)) if w.size else 0.0
    resid = g - v @ coeff
    return value, float(resid @ resid) <= tol * lam_max


def _secular_root(
    z2: np.ndarray, w: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Root mu of h(mu) = sum_i z2_i / (w_i - mu) = 1 in each row's bracket (lo, hi].

    h increases between its poles, so mu is where h crosses 1; a bracket
    without a crossing returns hi. Zero-weight columns are no poles. Returns
    (mu, 1 / h'(mu)), the eigenvalue of diag(w) - z z^T and its eigenvector's
    squared overlap with z. The offset tau from the bracket end nearer the root
    is bisected on its binary representation, so 64 steps reach adjacent
    doubles at any scale, and w_i - mu = (w_i - end) -+ tau stays accurate
    next to the pole (Bunch, Nielsen & Sorensen 1978; LAPACK dlaed4).
    """
    poles = np.where(z2 > 0.0, w, np.inf)
    with np.errstate(all="ignore"):
        mid = 0.5 * (lo + hi)
        from_lo = (z2 / (poles - mid[:, None])).sum(axis=1) >= 1.0
        end = np.where(from_lo, lo, hi)
        sign = np.where(from_lo, 1.0, -1.0)[:, None]
        delta = poles - end[:, None]
        bits_lo = np.zeros(lo.shape, dtype=np.int64)
        bits_hi = np.where(from_lo, mid - lo, hi - mid).view(np.int64)
        for _ in range(64):
            bits_mid = bits_lo + (bits_hi - bits_lo) // 2
            tau = bits_mid.view(np.float64)[:, None]
            below = (z2 / (delta - sign * tau)).sum(axis=1) < 1.0
            up = below == from_lo
            bits_lo = np.where(up, bits_mid, bits_lo)
            bits_hi = np.where(up, bits_hi, bits_mid)
        tau = bits_hi.view(np.float64)[:, None]
        slope = (z2 / (delta - sign * tau) ** 2).sum(axis=1)
    return end + sign[:, 0] * tau[:, 0], 1.0 / slope


def downdate_guard(
    w: np.ndarray, v: np.ndarray, rows: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, SpectrumHealth]:
    """Leave-one-out scores of rows against S = rows^T rows = V diag(w) V^T.

    w and V are the full eigendecomposition of S (ascending). Returns
    (values, range_ok, reasons, health): where reasons[j] is "", values[j]
    and range_ok[j] equal the truncated pseudoinverse score and range flag
    against S - g_j g_j^T (see the module docstring). Elsewhere they are
    undefined, reasons[j] is a FallbackReason value and the row needs its
    own factorization. health describes S's spectrum.
    """
    n_rows, dim = rows.shape
    lam_max = max(float(w[-1]), 0.0)
    cutoff = tol * lam_max
    level = dim * _EPS * lam_max
    keep = w > cutoff
    # z = V^T g per row; q = g^T S^+ g, and the residual outside the kept part.
    z2 = (rows @ v) ** 2
    q = z2[:, keep] @ (1.0 / w[keep])
    resid_sq = z2[:, ~keep].sum(axis=1)
    null = ~keep & (w <= level)
    d = int(np.sum(~keep & ~null))
    with np.errstate(divide="ignore", invalid="ignore"):
        f = 1.0 - z2 @ (1.0 / (w - cutoff))
    # Lower bound on lambda_max(S_j) by Weyl's inequality and interlacing.
    second = float(w[-2]) if w.size > 1 else 0.0
    g_sq = np.sum(rows**2, axis=1)
    lam_j = np.maximum(lam_max - g_sq, second)
    crossing = np.zeros(n_rows, dtype=bool)
    if null.any():
        crossing |= float(w[null].max()) > tol * lam_j
    reasons = np.full(n_rows, "", dtype=_REASON_DTYPE)
    secular = np.zeros(n_rows, dtype=bool)
    wn = w[~null]
    zn = z2[:, ~null]
    if d:
        # Deflation: a component below the rounding of z = V^T g is zero, and
        # a pole within eigh's backward error of the next one merges into it.
        # Either way the pole stays an eigenvalue of S_j with no weight on g_j.
        zn = zn.copy()
        negligible = zn[:, :d] <= (dim * _EPS) ** 2 * g_sq[:, None]
        # The residual not modelled by roots: the null part and deflated weight.
        resid_sq = z2[:, null].sum(axis=1) + np.sum(zn[:, :d] * negligible, axis=1)
        zn[:, :d][negligible] = 0.0
        for k in range(d):
            if wn[k + 1] - wn[k] <= level:
                zn[:, k + 1] += zn[:, k]
                zn[:, k] = 0.0
        q = zn @ (1.0 / wn)
    crossing |= q >= 1.0
    # Rows that need secular roots: every row when d > 0 (the correction),
    # and rows whose lowest kept root may sit under S's cutoff (f(c) < 0).
    low = ~crossing & (f < 0.0)
    todo = ~crossing & (low | (d > 0))
    # The null part of the residual is not modelled. It must clear tol * L_j,
    # and N_p * eps / tol of the row's own energy: rounding tilts a kept
    # eigenvector into the null space by at most about N_p * eps * lambda_max
    # / c = N_p * eps / tol, so more null energy than that is a part of g_j
    # that S's factorization does not resolve (g_j g_j^T below eigh's
    # backward error, when there are fewer rows than parameters); removing
    # g_j then cannot be taken from S.
    out_of_range = resid_sq > np.minimum(tol * lam_j, dim * _EPS / tol * g_sq)
    values = np.full(n_rows, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        values[~crossing] = q[~crossing] / (1.0 - q[~crossing])
    range_ok = ~out_of_range
    if todo.any():
        idx = np.flatnonzero(todo)
        zt = zn[idx]
        active = zt[:, :d] > 0.0
        roots = np.full((idx.size, d + 1), np.nan)
        weights = np.zeros((idx.size, d))
        for k in range(d + 1):
            sel = np.flatnonzero(active[:, k] if k < d else low[idx])
            if sel.size:
                prev = np.where(active[sel, :k], wn[:k], 0.0).max(axis=1, initial=0.0)
                mu, weight = _secular_root(zt[sel], wn, prev, np.full(sel.size, wn[k]))
                roots[sel, k] = mu
                if k < d:
                    weights[sel, k] = weight
        resid = resid_sq[idx] + weights.sum(axis=1)
        # lambda_max(S_j) exactly, where tol * L_j <= c_j leaves a comparison open.
        need_top = low[idx] | np.any(wn[:d] > tol * lam_j[idx, None], axis=1)
        need_top |= resid > tol * lam_j[idx]
        top = idx[need_top]
        if top.size:
            hi = np.full(top.size, wn[-1])
            lo = np.maximum(wn[-2] if wn.size > 1 else 0.0, hi - g_sq[top])
            lam_j[top] = _secular_root(zn[top], wn, lo, hi)[0]
        cut_j = tol * lam_j[idx, None]
        # S_j keeps a near-cutoff root, or a deflated near-cutoff eigenvalue
        # (still an eigenvalue of S_j), or drops its lowest kept root, or
        # nearly loses rank: a root at the null level, where S's
        # factorization cannot tell it from zero.
        crossing[idx] |= (
            np.any(np.where(active, roots[:, :d], wn[:d]) > cut_j, axis=1)
            | (roots[:, d] <= cut_j[:, 0])
            | (np.min(np.where(np.isnan(roots), np.inf, roots), axis=1) <= level)
        )
        with np.errstate(divide="ignore"):  # a zero root is a rank drop, caught above
            correction = np.sum(weights / np.where(active, roots[:, :d], 1.0), axis=1)
        a = values[idx]
        values[idx] = a - correction
        range_ok[idx] = resid <= cut_j[:, 0]
        # Cancellation bound. Rounding in q reaches a = q / (1 - q) amplified
        # by 1 / (1 - q), so a - correction carries an error of order
        # eps * (a / (1 - q) + correction). The rebuilt route carries eps
        # times S_j's condition number, at least lambda_max(S_j) / (S's
        # smallest kept eigenvalue) by interlacing; allow no more than that.
        amplified = a / (1.0 - q[idx]) + correction > lam_j[idx] / wn[d] * values[idx]
        cancel = np.zeros(n_rows, dtype=bool)
        cancel[idx] = amplified & (correction > 0.0)
        reasons[cancel] = FallbackReason.CANCELLATION.value
        secular[idx] = need_top | active.any(axis=1) | low[idx]
    reasons[out_of_range] = FallbackReason.OUT_OF_RANGE.value
    reasons[crossing] = FallbackReason.CROSSING.value
    names, counts = np.unique(reasons[reasons != ""], return_counts=True)
    health = SpectrumHealth(
        rank=int(keep.sum()),
        null=int(null.sum()),
        near_cutoff=tuple((wn[:d] / cutoff).tolist()),
        secular=int(np.sum(secular & (reasons == ""))),
        fallbacks=dict(zip(names.tolist(), counts.tolist())),
    )
    return values, range_ok, reasons, health


def gnq_exact(grads: GradientSet, j: int, tol: float = DEFAULT_TOL) -> tuple[float, bool]:
    """Exact uniqueness score of example j against all other examples, and its range flag.

    Builds S = sum_{k != j} g_k g_k^T explicitly and returns (g_j^T S^+ g_j,
    range_ok). An all-zero S with nonzero g_j yields (0.0, False).
    """
    if tol <= 0:
        raise ConfigurationError(f"tol must be positive, got {tol}")
    if grads.n_examples < 2:
        raise InsufficientDataError("need at least 2 examples for a leave-one-out score")
    if not 0 <= j < grads.n_examples:
        raise ConfigurationError(f"example index {j} out of range")
    return _leave_one_out(grads.vectors, j, tol)


def _leave_one_out(rows: np.ndarray, j: int, tol: float) -> tuple[float, bool]:
    """rows[j] against the pseudoinverse of the other rows' Gram matrix, rebuilt."""
    others = np.delete(rows, j, axis=0)
    return pinv_quadform(others.T @ others, rows[j], tol)


def loo_scores(
    vectors: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, SpectrumHealth]:
    """Exact score of every row j against S - g_j g_j^T, S = sum_k g_k g_k^T.

    All rows are scored from one eigendecomposition of S. A row takes the
    downdate, with its secular correction, where `downdate_guard` proves it
    exact; otherwise it is recomputed from the rebuilt sum over the other
    rows, as `gnq_exact` does, and reasons[j] names the FallbackReason (""
    for rows scored from S's factorization). Returns (values, range_ok,
    reasons), one entry per row of vectors, and the health of S's spectrum.
    """
    if tol <= 0:
        raise ConfigurationError(f"tol must be positive, got {tol}")
    w, v = np.linalg.eigh(vectors.T @ vectors)
    values, range_ok, reasons, health = downdate_guard(w, v, vectors, tol)
    for j in np.flatnonzero(reasons != ""):
        values[j], range_ok[j] = _leave_one_out(vectors, j, tol)
    return values, range_ok, reasons, health


def diagonal_scores(
    vectors: np.ndarray, work: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal surrogate sum_p g_jp^2 / G_p of every row, G the rows' Gram diagonal.

    A row's own contribution stays in G, matching the ranking algorithm's
    approximate mode. Coordinates where G_p = 0 contribute 0; a row with
    g_jp != 0 on such a coordinate is out of range (the diagonal cannot see
    that direction). work, if given, is a C-contiguous float64 array shaped
    like vectors that holds the squared entries (its contents are
    overwritten); the results do not depend on it. Returns (values, range_ok).
    """
    if work is not None and (
        work.shape != vectors.shape or work.dtype != np.float64 or not work.flags.c_contiguous
    ):
        raise ShapeError(
            f"work must be a C-contiguous float64 array of shape {vectors.shape}, "
            f"got {work.dtype} {work.shape}"
        )
    terms = np.square(vectors, out=work)
    diag = terms.sum(axis=0)
    zero = diag == 0.0
    if zero.any():
        # Every square in a zero column is 0, so dividing it by 1 leaves it 0.
        range_ok = ~np.any(zero & (vectors != 0.0), axis=1)
        diag = np.where(zero, 1.0, diag)
    else:
        range_ok = np.ones(vectors.shape[0], dtype=bool)
    np.divide(terms, diag, out=terms)
    return terms.sum(axis=1), range_ok


def pdet_rank_one(pdet_a: float, a_pinv_quadform: float) -> float:
    """pdet(A + q q^T) from pdet(A) and q^T A^+ q, valid for q in range(A).

    The update leaves the rank unchanged and multiplies the product of nonzero
    eigenvalues by (1 + q^T A^+ q).
    """
    if pdet_a <= 0:
        raise ConfigurationError(f"pdet_a must be positive, got {pdet_a}")
    if a_pinv_quadform < 0:
        raise ConfigurationError(f"quadratic form must be nonnegative, got {a_pinv_quadform}")
    return pdet_a * (1.0 + a_pinv_quadform)


def pdet_and_rank(s: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[float, int]:
    """Pseudo-determinant (product of eigenvalues above the relative cutoff) and rank."""
    w, _, _ = _psd_eig(np.asarray(s, dtype=np.float64), tol)
    if w.size == 0:
        return 1.0, 0
    return float(np.prod(w)), int(w.size)

