"""Membership-leakage bounds: per-iteration bits, totals, and the Fano floor.

The chain runs, per example j:

    prior      H[T_j] = binary entropy of n_train / n_total          (bits)
    iteration  I_ij   = 1/2 [log2(1 + gnq) - (Nt/N) log2(1 + kappa gnq)]
    total      I_j   <= sum over audited iterations of I_ij
    Fano       H[Pe_j] >= H[T_j] - I_j
    floor      pe_lower = Hinv(clamp(H[T_j] - I_j, 0, 1)) on [0, 1/2]

pe_lower is a lower bound on the error probability of any membership
adversary that sees the released model: pe_lower near 0.5 means nobody can
beat random guessing on example j, while a total that consumes the whole
prior drives the floor to 0 and the bound is reported as vacuous rather than
meaningful. Everything is in bits (log base 2), so priors and Fano entropies
live in [0, 1]. The Fano step is Fano's inequality for a binary T_j (Cover &
Thomas, Elements of Information Theory, section 2.10).

Every step is elementwise: a float in gives a float out, and an array of
scores gives arrays, so `fano_chain` turns a whole audit's (audits, examples)
bits into every example's total and floor at once, and the `bound` command
reads the same functions one score at a time.

`per_iteration_leakage` uses the variance ratio kappa, exact at finite N
under independent_bernoulli sampling and asymptotic under
without_replacement. `per_iteration_leakage_general` combines any three
entropies; the oracle feeds it the Gaussian entropies of the update
covariances to check the kappa formula.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .sampling import SamplingConfig, SamplingScheme, indicator_moments

_BISECTION_TOL = 1e-12
# Halvings of [0, 0.5] until the bracket is narrower than _BISECTION_TOL (39).
_HALVINGS = math.ceil(math.log2(0.5 / _BISECTION_TOL))


class FanoBound(NamedTuple):
    """Fano floor fields: floats for a float total, arrays for an array of totals."""

    fano_entropy_bits: float | np.ndarray
    pe_lower: float | np.ndarray
    vacuous: bool | np.ndarray


def _as_given(x: np.ndarray, scalar=float):
    """A 0-d result as a Python scalar, any other array as it is."""
    return scalar(x) if x.ndim == 0 else x


def _require_unit(x: np.ndarray, what: str) -> None:
    inside = (x >= 0.0) & (x <= 1.0)
    if not np.all(inside):
        raise ConfigurationError(f"{what}, got {float(x[~inside][0])}")


def _entropy(p: np.ndarray) -> np.ndarray:
    return -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)


def binary_entropy(p: float | np.ndarray) -> float | np.ndarray:
    """H(p) = -p log2 p - (1-p) log2 (1-p) elementwise, with H(0) = H(1) = 0."""
    q = np.asarray(p, dtype=np.float64)
    _require_unit(q, "probability must be in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where((q == 0.0) | (q == 1.0), 0.0, _entropy(q))
    return _as_given(h)


def prior_entropy(n_train: int, n_total: int) -> float:
    """Adversary's prior uncertainty H[T_j] in bits."""
    if not 0 < n_train <= n_total:
        raise ConfigurationError(
            f"need 0 < n_train <= n_total, got n_train={n_train}, n_total={n_total}"
        )
    return binary_entropy(n_train / n_total)


def per_iteration_leakage(gnq: float | np.ndarray, cfg: SamplingConfig) -> float | np.ndarray:
    """Bits leaked about T_j by one iteration's update, from the example's gnq.

    Evaluates 1/2 [log2(1 + gnq) - (Nt/N) log2(1 + kappa gnq)] with kappa from
    one `indicator_moments` call, elementwise over an array of scores (a float
    in, a float out). Exactly 0 at gnq = 0, and identically 0 when
    n_train = n_total (membership is certain, nothing to leak).
    """
    g = np.asarray(gnq, dtype=np.float64)
    if np.any(g < 0):
        raise ConfigurationError(f"gnq must be nonnegative, got {float(g.min())}")
    if cfg.n_train == cfg.n_total:
        bits = np.zeros_like(g)
    else:
        kappa = indicator_moments(cfg).kappa
        prior = cfg.n_train / cfg.n_total
        bits = 0.5 * (np.log2(1.0 + g) - prior * np.log2(1.0 + kappa * g))
    return _as_given(bits)


def per_iteration_leakage_general(
    h_marginal: float, h_given_out: float, h_given_in: float, cfg: SamplingConfig
) -> float:
    """Conditional-MI decomposition from three (differential) entropies in bits.

    I = H - H0 - (Nt/N) (H1 - H0), where H is the update's entropy given the
    parameters and H0, H1 condition additionally on T_j = 0 and T_j = 1.
    T_j is constant when n_train = n_total, so the information is 0 no matter
    what conditional entropies the caller supplies.
    """
    if cfg.n_train == cfg.n_total:
        return 0.0
    prior = cfg.n_train / cfg.n_total
    return float(h_marginal - h_given_out - prior * (h_given_in - h_given_out))


def inverse_binary_entropy(h: float | np.ndarray) -> float | np.ndarray:
    """The p in [0, 0.5] with binary_entropy(p) = h, elementwise, by bisection.

    Endpoints are returned exactly; interior values take _HALVINGS halvings of
    [0, 0.5], which leave a bracket narrower than 1e-12.
    """
    x = np.asarray(h, dtype=np.float64)
    _require_unit(x, "entropy must be in [0, 1] bits")
    lo = np.zeros_like(x)
    hi = np.full_like(x, 0.5)
    for _ in range(_HALVINGS):
        mid = 0.5 * (lo + hi)
        below = _entropy(mid) < x
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    p = np.where(x == 0.0, 0.0, np.where(x == 1.0, 0.5, 0.5 * (lo + hi)))
    return _as_given(p)


def fano_error_bound(
    prior_bits: float | np.ndarray, total_bits: float | np.ndarray
) -> FanoBound:
    """Fano floor on adversary error from the prior and the leakage total, elementwise.

    fano_entropy_bits = clamp(prior - total, 0, 1); pe_lower inverts it on
    [0, 0.5]. The bound is flagged vacuous when a positive total consumed the
    entire prior (the clamp at 0 fired), which says nothing about the example
    beyond "the bound gives no protection guarantee".
    """
    prior = np.asarray(prior_bits, dtype=np.float64)
    total = np.asarray(total_bits, dtype=np.float64)
    _require_unit(prior, "prior must be in [0, 1] bits")
    if np.any(total < 0.0):
        raise ConfigurationError(
            f"total leakage must be nonnegative, got {float(total[total < 0.0][0])}"
        )
    remaining = np.clip(prior - total, 0.0, 1.0)
    return FanoBound(
        fano_entropy_bits=_as_given(remaining),
        pe_lower=inverse_binary_entropy(remaining),
        vacuous=_as_given((total > 0.0) & (total >= prior), bool),
    )


def fano_chain(prior_bits: float, bits: np.ndarray) -> tuple[np.ndarray, FanoBound]:
    """Each example's leakage total and Fano floor from its per-iteration bits.

    bits[r, j] is example j's leakage at the r-th audited iteration; every
    term must be finite. total[j] sums column j as its own contiguous row,
    the same pairwise sum as over a 1-d array, and the floor reads a total
    that rounding pushed a hair below zero as 0.
    """
    bits = np.asarray(bits, dtype=np.float64)
    if not np.all(np.isfinite(bits)):
        raise ConfigurationError("per-iteration leakage terms must be finite")
    total = np.ascontiguousarray(bits.T).sum(axis=1)
    return total, fano_error_bound(prior_bits, np.maximum(total, 0.0))


def growth_condition_holds(cfg: SamplingConfig) -> bool:
    """True when the leakage is strictly increasing in gnq (2 c1^2 > c2^2 regime).

    In the bound's normalization c1^2 = 1 and c2^2 = kappa, so the condition
    is kappa < 2; it holds in particular whenever n_train = n_total / 2 and
    batch_size < n_train.
    """
    if cfg.n_train == cfg.n_total:
        return False
    return indicator_moments(cfg).kappa < 2.0


_SCHEME_EXACTNESS = {
    SamplingScheme.INDEPENDENT_BERNOULLI: "exact at finite N",
    SamplingScheme.WITHOUT_REPLACEMENT: "asymptotic in N",
}


def kappa_regime_note(cfg: SamplingConfig) -> str:
    """Short provenance note for reports about kappa's exactness under cfg's scheme."""
    return _SCHEME_EXACTNESS[cfg.scheme]
