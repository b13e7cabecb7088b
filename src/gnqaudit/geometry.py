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
exact: it factors S = sum over member rows g_k g_k^T once, scores each member
row against S - g_j g_j^T and every other row against S. `diagonal_scores`
is the cheap surrogate over S's diagonal. `gnq_exact` is the per-example
reference both are checked against.

With S = V diag(lambda) V^T, z = V^T g_j and q_j = sum over kept i of
z_i^2 / lambda_i, the downdate gives gnq_j = q_j / (1 - q_j).
`downdate_guard` allows it only when it provably equals the truncated
pseudoinverse of S_j = S - g_j g_j^T:

(i)   the cut is clean: every dropped eigenvalue is at most N_p * eps *
      lambda_max, the backward error of eigh, so truncating S and
      downdating it commute;
(ii)  f(c) >= 0 for the secular function f(mu) = 1 - sum_i z_i^2 /
      (lambda_i - mu) at the cutoff c = tol * lambda_max. By Haynsworth's
      inertia additivity, S_j has #{lambda_i < c} + [f(c) < 0] eigenvalues
      below c, and by Cauchy interlacing only the smallest kept one can
      cross, so no kept eigenvalue falls below c;
(iii) no dropped eigenvalue lies in (tol * L_j, c], L_j = max(lambda_max -
      ||g_j||^2, lambda_{N_p - 1}) <= lambda_max(S_j), because S_j's own
      cutoff can be lower than S's.

The guard also settles range_ok. Since S_j = S - g_j g_j^T is PSD, g_j's
residual outside the kept eigenvectors obeys ||resid||^2 <= max dropped
eigenvalue, which (iii) holds to tol * L_j <= tol * lambda_max(S_j). The
check ||resid||^2 <= tol * L_j is still made, against rounding in the
eigenvectors. A row failing a clause or that check falls back to the
pseudoinverse of its rebuilt S_j, and the scorer records which reason sent
it there.

The module also carries the scalar helpers used by the leakage bound:
`pdet_rank_one` for pdet(A + q q^T) = pdet(A) (1 + q^T A^+ q) with q in
range(A), and `leakage_growth_factor` f(x) = (1 + c1^2 x) / sqrt(1 + c2^2 x),
strictly increasing iff 2 c1^2 > c2^2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InsufficientDataError, ShapeError

DEFAULT_TOL = 1e-10
_EPS = float(np.finfo(np.float64).eps)
# S is N_p x N_p in exact mode; above this, use a diagonal mode.
EXACT_MODE_DIM_CAP = 4096


class GramMode(enum.Enum):
    FULL_EXACT = "full_exact"
    DIAGONAL = "diagonal"
    BATCH_EXACT = "batch_exact"
    BATCH_DIAGONAL = "batch_diagonal"


@dataclass(frozen=True)
class GradientSet:
    """Per-example gradients at one iteration, as rows of an (N, N_p) array."""

    iteration: int
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

    UNCLEAN_CUT = "unclean_cut"  # clause (i): a dropped eigenvalue above eigh's error
    CROSSING = "crossing"  # clauses (ii)-(iii): an eigenvalue crosses a cutoff
    OUT_OF_RANGE = "out_of_range"  # range_ok not provable from S's factorization


_REASON_DTYPE = f"U{max(len(r.value) for r in FallbackReason)}"


@dataclass(frozen=True)
class GnqScore:
    """One example's exact score and range flag, from `gnq_exact`."""

    example: int
    iteration: int
    value: float
    range_ok: bool


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


def project_rows(
    w: np.ndarray, v: np.ndarray, rows: np.ndarray, tol: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each row g against S = V diag(w) V^T itself, from S's full eigendecomposition.

    Returns (lambda_max, kept-eigenvalue mask, z^2 = (V^T g)^2 per row,
    q = g^T S^+ g per row, ||g - P g||^2 per row).
    """
    lam_max = max(float(w[-1]), 0.0)
    keep = w > tol * lam_max
    z2 = (rows @ v) ** 2
    return lam_max, keep, z2, z2[:, keep] @ (1.0 / w[keep]), z2[:, ~keep].sum(axis=1)


def downdate_guard(
    w: np.ndarray, v: np.ndarray, rows: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out scores of rows against S = rows^T rows = V diag(w) V^T.

    w and v are the full eigendecomposition of S (ascending). Returns
    (values, reasons): where reasons[j] is "", values[j] is the downdate,
    provably equal to the truncated pseudoinverse score against
    S - g_j g_j^T (see the module docstring for the three clauses), and g_j
    is in range. Elsewhere values[j] is undefined, reasons[j] is a
    FallbackReason value and the row needs its own factorization.
    """
    n = rows.shape[0]
    lam_max, keep, z2, q, resid_sq = project_rows(w, v, rows, tol)
    cutoff = tol * lam_max
    dropped = w[~keep]
    reasons = np.full(n, "", dtype=_REASON_DTYPE)
    if dropped.size and float(np.abs(dropped).max()) > w.size * _EPS * lam_max:
        reasons[:] = FallbackReason.UNCLEAN_CUT.value
        return np.full(n, np.nan), reasons
    with np.errstate(divide="ignore", invalid="ignore"):
        f = 1.0 - z2 @ (1.0 / (w - cutoff))
    # Lower bound on lambda_max(S_j) by Weyl's inequality and interlacing.
    second = float(w[-2]) if w.size > 1 else 0.0
    lam_max_j = np.maximum(lam_max - np.sum(rows**2, axis=1), second)
    # q < 1 follows from f(c) >= 0 in exact arithmetic; it keeps q / (1 - q) finite.
    crossing = ~((f >= 0.0) & (q < 1.0))
    if dropped.size:
        crossing |= float(dropped.max()) > tol * lam_max_j
    # Implied by (iii) in exact arithmetic; kept against rounding.
    range_ok = resid_sq <= tol * lam_max_j
    with np.errstate(divide="ignore", invalid="ignore"):
        values = q / (1.0 - q)
    reasons[~range_ok] = FallbackReason.OUT_OF_RANGE.value
    reasons[crossing] = FallbackReason.CROSSING.value
    return values, reasons


def gnq_exact(grads: GradientSet, j: int, tol: float = DEFAULT_TOL) -> GnqScore:
    """Exact uniqueness score of example j against all other examples.

    Builds S = sum_{k != j} g_k g_k^T explicitly and evaluates g_j^T S^+ g_j.
    An all-zero S with nonzero g_j yields value 0 with range_ok False.
    """
    if tol <= 0:
        raise ConfigurationError(f"tol must be positive, got {tol}")
    if grads.n_examples < 2:
        raise InsufficientDataError("need at least 2 examples for a leave-one-out score")
    if not 0 <= j < grads.n_examples:
        raise ConfigurationError(f"example index {j} out of range")
    others = np.delete(grads.vectors, j, axis=0)
    value, range_ok = pinv_quadform(others.T @ others, grads.vectors[j], tol)
    return GnqScore(
        example=j,
        iteration=grads.iteration,
        value=value,
        range_ok=range_ok,
    )


def loo_scores(
    vectors: np.ndarray, members: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact scores of every row against S = sum of the member rows' g_k g_k^T.

    A member row j is scored against S - g_j g_j^T, every other row against S,
    all from one eigendecomposition of S. A member row takes the downdate
    where `downdate_guard` proves it exact; otherwise it is recomputed from
    the rebuilt sum over the other members, and reasons[j] names the
    FallbackReason ("" for rows scored from S's factorization). Returns
    (values, range_ok, reasons), one entry per row of vectors.
    """
    if tol <= 0:
        raise ConfigurationError(f"tol must be positive, got {tol}")
    basis = vectors[members]
    w, v = np.linalg.eigh(basis.T @ basis)
    lam_max, _, _, values, resid_sq = project_rows(w, v, vectors, tol)
    range_ok = resid_sq <= tol * lam_max
    member_values, member_reasons = downdate_guard(w, v, basis, tol)
    values[members] = member_values
    range_ok[members] = True
    reasons = np.full(vectors.shape[0], "", dtype=member_reasons.dtype)
    reasons[members] = member_reasons
    for pos in np.flatnonzero(member_reasons != ""):
        others = np.delete(basis, pos, axis=0)
        j = members[pos]
        values[j], range_ok[j] = pinv_quadform(others.T @ others, vectors[j], tol)
    return values, range_ok, reasons


def diagonal_scores(vectors: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal surrogate sum_p g_jp^2 / G_p of every row, G the member rows' Gram diagonal.

    A member row's own contribution stays in G, matching the ranking
    algorithm's approximate mode. Coordinates where G_p = 0 contribute 0; a
    row with g_jp != 0 on such a coordinate is out of range (the diagonal
    cannot see that direction). Returns (values, range_ok).
    """
    diag = np.sum(vectors[members] ** 2, axis=0)
    zero = diag == 0.0
    range_ok = ~np.any(zero & (vectors != 0.0), axis=1)
    terms = np.where(zero, 0.0, vectors**2 / np.where(zero, 1.0, diag))
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


def leakage_growth_factor(x: float, c1_sq: float, c2_sq: float) -> float:
    """f(x) = (1 + c1^2 x) / sqrt(1 + c2^2 x); strictly increasing iff 2 c1^2 > c2^2."""
    if x < 0:
        raise ConfigurationError(f"x must be nonnegative, got {x}")
    if c1_sq <= 0 or c2_sq <= 0:
        raise ConfigurationError("c1_sq and c2_sq must be positive")
    return (1.0 + c1_sq * x) / np.sqrt(1.0 + c2_sq * x)
