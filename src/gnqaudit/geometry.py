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

`gnq_all_exact` scores every example from one eigendecomposition
S = V diag(lambda) V^T of S = sum_k g_k g_k^T. With z = V^T g_j and
q_j = sum over kept i of z_i^2 / lambda_i, the downdate gives
gnq_j = q_j / (1 - q_j). `downdate_guard` allows it only when it provably
equals the truncated pseudoinverse of S_j = S - g_j g_j^T:

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
eigenvectors. A row failing a clause or that check falls back to its own
pseudoinverse, and the score records which reason sent it there.

The module also carries the scalar helpers used by the leakage bound:
`pdet_rank_one` for pdet(A + q q^T) = pdet(A) (1 + q^T A^+ q) with q in
range(A), and `leakage_growth_factor` f(x) = (1 + c1^2 x) / sqrt(1 + c2^2 x),
strictly increasing iff 2 c1^2 > c2^2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class GramSummary:
    """The Gram accumulator S in full or diagonal form.

    total is the (N_p, N_p) symmetric matrix for *_EXACT modes and the length
    N_p diagonal vector for *_DIAGONAL modes. contributing lists the example
    indices whose gradients were summed.
    """

    mode: GramMode
    total: np.ndarray
    contributing: tuple[int, ...]

    def diagonal(self) -> np.ndarray:
        return np.diag(self.total) if self.total.ndim == 2 else self.total


class FallbackReason(enum.Enum):
    """Why a leave-one-out score was recomputed from its own factorization."""

    UNCLEAN_CUT = "unclean_cut"  # clause (i): a dropped eigenvalue above eigh's error
    CROSSING = "crossing"  # clauses (ii)-(iii): an eigenvalue crosses a cutoff
    OUT_OF_RANGE = "out_of_range"  # range_ok not provable from S's factorization


@dataclass(frozen=True)
class GnqScore:
    example: int
    iteration: int
    value: float
    mode: GramMode
    range_ok: bool
    fallback: FallbackReason | None = None


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
) -> tuple[np.ndarray, list[FallbackReason | None]]:
    """Leave-one-out scores of rows against S = rows^T rows = V diag(w) V^T.

    w and v are the full eigendecomposition of S (ascending). Returns
    (values, reasons): where reasons[j] is None, values[j] is the downdate,
    provably equal to the truncated pseudoinverse score against
    S - g_j g_j^T (see the module docstring for the three clauses), and g_j
    is in range. Elsewhere values[j] is undefined and the row needs its own
    factorization.
    """
    n = rows.shape[0]
    lam_max, keep, z2, q, resid_sq = project_rows(w, v, rows, tol)
    cutoff = tol * lam_max
    dropped = w[~keep]
    if dropped.size and float(np.abs(dropped).max()) > w.size * _EPS * lam_max:
        return np.full(n, np.nan), [FallbackReason.UNCLEAN_CUT] * n
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
    reasons = [
        FallbackReason.CROSSING if c else None if ok else FallbackReason.OUT_OF_RANGE
        for c, ok in zip(crossing.tolist(), range_ok.tolist())
    ]
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
        mode=GramMode.FULL_EXACT,
        range_ok=range_ok,
    )


def gnq_all_exact(grads: GradientSet, tol: float = DEFAULT_TOL) -> list[GnqScore]:
    """Score every example from a single eigendecomposition of S = G^T G.

    Each row takes the downdate q_j / (1 - q_j) when `downdate_guard`'s three
    clauses prove it equal to the truncated pseudoinverse of S - g_j g_j^T
    (clean cut, no eigenvalue crossing S's cutoff, none inside the band
    between S_j's cutoff and S's) and its range test passes. Any other row is
    recomputed with its own pseudoinverse, and its score names the reason.
    """
    if tol <= 0:
        raise ConfigurationError(f"tol must be positive, got {tol}")
    if grads.n_examples < 2:
        raise InsufficientDataError("need at least 2 examples for leave-one-out scores")
    g = grads.vectors
    s_total = g.T @ g
    w, v = np.linalg.eigh(s_total)
    values, reasons = downdate_guard(w, v, g, tol)
    trace = float(np.trace(s_total))
    scores: list[GnqScore] = []
    for j, reason in enumerate(reasons):
        if reason is None:
            value, ok = float(values[j]), True
        elif float(g[j] @ g[j]) <= 0.9 * trace:
            # Rebuild S_j by subtracting the rank-one term (cheap) instead of
            # re-summing; safe while g_j is not so dominant that the
            # subtraction cancels catastrophically.
            value, ok = pinv_quadform(s_total - np.outer(g[j], g[j]), g[j], tol)
        else:
            exact = gnq_exact(grads, j, tol)
            value, ok = exact.value, exact.range_ok
        scores.append(
            GnqScore(
                example=j,
                iteration=grads.iteration,
                value=value,
                mode=GramMode.FULL_EXACT,
                range_ok=ok,
                fallback=reason,
            )
        )
    return scores


def gnq_diagonal(
    summary: GramSummary,
    g_j: np.ndarray,
    *,
    example: int = -1,
    iteration: int = -1,
) -> GnqScore:
    """Diagonal surrogate: sum_p g_jp^2 / G_p over the Gram diagonal G.

    Coordinates where G_p = 0 contribute 0; if such a coordinate has
    g_jp != 0 the score is flagged range_ok False (the diagonal cannot see
    that direction). Whether G includes example j's own contribution is the
    caller's choice; the audit pipeline includes it, matching the ranking
    algorithm's approximate mode.
    """
    diag = summary.diagonal()
    g_j = np.asarray(g_j, dtype=np.float64)
    if g_j.shape != diag.shape:
        raise ShapeError(f"gradient shape {g_j.shape} does not match diagonal {diag.shape}")
    zero = diag == 0.0
    range_ok = bool(np.all(g_j[zero] == 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(zero, 0.0, g_j**2 / np.where(zero, 1.0, diag))
    mode = summary.mode if summary.mode in (GramMode.DIAGONAL, GramMode.BATCH_DIAGONAL) else GramMode.DIAGONAL
    return GnqScore(
        example=example,
        iteration=iteration,
        value=float(terms.sum()),
        mode=mode,
        range_ok=range_ok,
    )


def gnq_batch(batch_grads: GradientSet, j: int, tol: float = DEFAULT_TOL) -> GnqScore:
    """Exact score of batch member j against the other batch members only."""
    if batch_grads.n_examples < 2:
        raise InsufficientDataError(
            f"batch mode needs at least 2 batch members, got {batch_grads.n_examples}"
        )
    score = gnq_exact(batch_grads, j, tol)
    return replace(score, mode=GramMode.BATCH_EXACT)


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


def full_gram(vectors: np.ndarray, contributing: tuple[int, ...], mode: GramMode) -> GramSummary:
    """Gram summary over the given rows, full matrix or diagonal per mode."""
    v = np.asarray(vectors, dtype=np.float64)
    if mode in (GramMode.FULL_EXACT, GramMode.BATCH_EXACT):
        total = v.T @ v
    else:
        total = np.sum(v**2, axis=0)
    return GramSummary(mode=mode, total=total, contributing=tuple(contributing))
