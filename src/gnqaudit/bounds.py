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
live in [0, 1].

`per_iteration_leakage` uses the asymptotic variance ratio kappa; the
finite-population variant `per_iteration_leakage_exact_ratio` keeps the exact
variance ratios (which contribute a parameter-count power each) and exists to
measure how much the asymptotic simplification gives away on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError
from .sampling import SamplingConfig, SamplingScheme, indicator_moments

_BISECTION_TOL = 1e-12


@dataclass(frozen=True)
class LeakageBound:
    """Full leakage chain for one example.

    per_iteration_bits holds I_ij for every audited iteration in audit order;
    total_bits is their sum; fano_entropy_bits = clamp(prior - total, 0, 1);
    pe_lower is the Fano floor on [0, 0.5]. vacuous marks a positive total
    that met or exceeded the prior, i.e. a floor of 0 that carries no
    information.
    """

    example: int
    prior_entropy_bits: float
    per_iteration_bits: tuple[float, ...]
    total_bits: float
    fano_entropy_bits: float
    pe_lower: float
    vacuous: bool

    def to_json_dict(self) -> dict:
        return {
            "example": self.example,
            "prior_entropy_bits": self.prior_entropy_bits,
            "per_iteration_bits": list(self.per_iteration_bits),
            "total_bits": self.total_bits,
            "fano_entropy_bits": self.fano_entropy_bits,
            "pe_lower": self.pe_lower,
            "vacuous": self.vacuous,
        }


class FanoBound(NamedTuple):
    fano_entropy_bits: float
    pe_lower: float
    vacuous: bool


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p), with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"probability must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


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
    return float(bits) if bits.ndim == 0 else bits


def per_iteration_leakage_exact_ratio(gnq: float, cfg: SamplingConfig, n_params: int) -> float:
    """Finite-population variant keeping the exact variance ratios.

    The Gaussian-entropy difference carries each variance ratio to the
    parameter-count power, so this needs n_params. With the
    independent_bernoulli scheme the conditional ratios are 1 and the self
    ratio equals kappa, so the result coincides with `per_iteration_leakage`;
    under without_replacement it differs at small N and the gap is what the
    oracle reports.
    """
    if gnq < 0:
        raise ConfigurationError(f"gnq must be nonnegative, got {gnq}")
    if n_params < 1:
        raise ConfigurationError(f"n_params must be >= 1, got {n_params}")
    if cfg.n_train == cfg.n_total:
        return 0.0
    m = indicator_moments(cfg)
    if m.var_given_out <= 0.0 or m.var_given_in <= 0.0:
        raise ConfigurationError(
            "exact-ratio leakage needs nondegenerate conditional variances "
            f"(got given_out={m.var_given_out}, given_in={m.var_given_in})"
        )
    r_out = m.var_unconditional / m.var_given_out
    r_in = m.var_given_in / m.var_given_out
    r_self = m.var_self_given_in / m.var_given_in
    prior = cfg.n_train / cfg.n_total
    term_full = n_params * np.log2(r_out) + np.log2(1.0 + gnq)
    term_cond = n_params * np.log2(r_in) + np.log2(1.0 + r_self * gnq)
    return float(0.5 * (term_full - prior * term_cond))


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


def total_leakage(per_iter: Sequence[float]) -> float:
    """Sum of per-iteration bits; an upper bound on what any adversary extracts."""
    values = np.asarray(per_iter, dtype=np.float64)
    if values.size and not np.all(np.isfinite(values)):
        raise ConfigurationError("per-iteration leakage terms must be finite")
    return float(values.sum())


def inverse_binary_entropy(h: float) -> float:
    """The unique p in [0, 0.5] with binary_entropy(p) = h, by bisection.

    Endpoints are returned exactly; interior values are bisected until the
    bracket is narrower than 1e-12.
    """
    if not 0.0 <= h <= 1.0:
        raise ConfigurationError(f"entropy must be in [0, 1] bits, got {h}")
    if h == 0.0:
        return 0.0
    if h == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < h:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fano_error_bound(prior_bits: float, total_bits: float) -> FanoBound:
    """Fano floor on adversary error from the prior and the leakage total.

    fano_entropy_bits = clamp(prior - total, 0, 1); pe_lower inverts it on
    [0, 0.5]. The bound is flagged vacuous when a positive total consumed the
    entire prior (the clamp at 0 fired), which says nothing about the example
    beyond "the bound gives no protection guarantee".
    """
    if not 0.0 <= prior_bits <= 1.0:
        raise ConfigurationError(f"prior must be in [0, 1] bits, got {prior_bits}")
    if total_bits < 0.0:
        raise ConfigurationError(f"total leakage must be nonnegative, got {total_bits}")
    remaining = min(max(prior_bits - total_bits, 0.0), 1.0)
    vacuous = total_bits > 0.0 and total_bits >= prior_bits
    return FanoBound(
        fano_entropy_bits=remaining,
        pe_lower=inverse_binary_entropy(remaining),
        vacuous=vacuous,
    )


def make_leakage_bound(
    example: int, per_iter_bits: Sequence[float], cfg: SamplingConfig
) -> LeakageBound:
    """Assemble the full chain for one example from its per-iteration bits."""
    prior = prior_entropy(cfg.n_train, cfg.n_total)
    total = total_leakage(per_iter_bits)
    # Rounding can push a sum of nonnegative terms a hair below zero.
    fano = fano_error_bound(prior, max(total, 0.0))
    return LeakageBound(
        example=example,
        prior_entropy_bits=prior,
        per_iteration_bits=tuple(float(x) for x in per_iter_bits),
        total_bits=total,
        fano_entropy_bits=fano.fano_entropy_bits,
        pe_lower=fano.pe_lower,
        vacuous=fano.vacuous,
    )


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
