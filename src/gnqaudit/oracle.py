"""Brute-force verification of the closed-form machinery on tiny instances.

Three independent routes to the same objects are implemented and compared:

* `closed_form_covariances`: the update covariance and its conditionals as
  rank-one-structured closed forms, Sigma = c1^2 sum_n g_n g_n^T with
  c1^2 = (1/(B N))(1 - B/N), Sigma^(j,0) = Sigma - c1^2 g_j g_j^T, and
  Sigma^(j,1) = Sigma^(j,0) + c2^2 g_j g_j^T with
  c2^2 = (1/(B n_train))(1 - B/n_train). Exact under the
  independent_bernoulli scheme, where distinct examples' product indicators
  are independent.
* `enumerate_covariances`: the exact covariance of the normalized batch
  gradient sum under either scheme, by summing over all 3^N indicator states.
  Under without_replacement it exposes the cross-example terms the closed
  form drops. The enumeration is `sampling`'s (`state_laws`,
  `weighted_moments`), the one that also gives `enumerate_exact_moments`.
* `exact_discrete_mi`: ground-truth mutual information between one example's
  membership and the update, over the update's finite support. Its exact
  probabilities come from `sampling.count_law`, the law the 3^N enumeration
  also reads. Atoms are keyed by exact rational gradient sums, so
  coincidentally equal sums from different batch patterns merge correctly.

`gaussian_leakage_from_covariances` turns either kind of covariance triple
into Gaussian-entropy leakage from the eigenvalue pseudo-determinants of all
three matrices, so checking it against the kappa formula tests the formula
against the spectra of Sigma, Sigma^(j,0) and Sigma^(j,1), not against gnq
itself. `run_oracle_checks` packages all of it (plus the scalar identities
from the geometry and bounds modules) into a machine-readable verification
report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import per_iteration_leakage, per_iteration_leakage_general, prior_entropy
from .errors import CapacityError, ConfigurationError
from .geometry import (
    FallbackReason,
    GradientSet,
    gnq_exact,
    loo_scores,
    pdet_and_rank,
    pdet_rank_one,
    pinv_quadform,
)
from .sampling import (
    SamplingConfig,
    SamplingScheme,
    count_law,
    enumerate_exact_moments,
    indicator_moments,
    state_laws,
    stream,
    weighted_moments,
)

DISCRETE_MI_MAX_N = 12


@dataclass(frozen=True)
class CovarianceTriple:
    """Update covariance Sigma and its conditionals on T_j = 0 and T_j = 1."""

    sigma: np.ndarray
    sigma0: np.ndarray
    sigma1: np.ndarray


def _check_instance(grads: GradientSet, cfg: SamplingConfig, j: int) -> None:
    if grads.n_examples != cfg.n_total:
        raise ConfigurationError(
            f"gradient set has {grads.n_examples} rows, config says {cfg.n_total}"
        )
    if not 0 <= j < cfg.n_total:
        raise ConfigurationError(f"example index {j} out of range")


def closed_form_covariances(grads: GradientSet, cfg: SamplingConfig, j: int) -> CovarianceTriple:
    """The rank-one-structured covariances; requires the independence scheme."""
    _check_instance(grads, cfg, j)
    if cfg.scheme is not SamplingScheme.INDEPENDENT_BERNOULLI:
        raise ConfigurationError(
            "closed-form covariances hold under independent_bernoulli sampling; "
            "use enumerate_covariances for without_replacement"
        )
    n, nt, b = cfg.n_total, cfg.n_train, cfg.batch_size
    c1_sq = (1.0 / (b * n)) * (1.0 - b / n)
    c2_sq = (1.0 / (b * nt)) * (1.0 - b / nt)
    g = grads.vectors
    gj = g[j]
    sigma = c1_sq * (g.T @ g)
    sigma0 = sigma - c1_sq * np.outer(gj, gj)
    sigma1 = sigma0 + c2_sq * np.outer(gj, gj)
    return CovarianceTriple(sigma=sigma, sigma0=sigma0, sigma1=sigma1)


def enumerate_covariances(grads: GradientSet, cfg: SamplingConfig, j: int) -> CovarianceTriple:
    """Exact covariances of the normalized update, by `enumerate_exact_moments`'s enumeration."""
    _check_instance(grads, cfg, j)
    digits, laws = state_laws(cfg, j)
    mats = []
    for weights in laws:
        mean, second = weighted_moments(digits, weights, grads.vectors, cfg.batch_size)
        mats.append(second - np.outer(mean, mean))
    return CovarianceTriple(*mats)


@dataclass(frozen=True)
class GaussianLeakage:
    bits: float
    rank_consistent: bool
    ranks: tuple[int, int, int]


def gaussian_leakage_from_covariances(
    triple: CovarianceTriple, cfg: SamplingConfig, tol: float = 1e-10
) -> GaussianLeakage:
    """Leakage from Gaussian entropies of the three covariances, in bits.

    H = 1/2 log2((2 pi e)^r pdet(Sigma)) per matrix; the conditional-MI
    combination cancels the constants when the three ranks agree, leaving
    1/2 [log2(pdet S / pdet S0) - (Nt/N) log2(pdet S1 / pdet S0)]. Every
    pseudo-determinant and rank is read from the matrix's own eigenvalues, for
    closed-form and enumerated triples alike. Rank disagreements are flagged
    and the residual (2 pi e)^(dr) factors kept.
    """
    pdet_sigma, r = pdet_and_rank(triple.sigma, tol)
    pdet0, r0 = pdet_and_rank(triple.sigma0, tol)
    pdet_sigma1, r1 = pdet_and_rank(triple.sigma1, tol)
    log_two_pi_e = np.log2(2.0 * np.pi * np.e)
    h = 0.5 * (r * log_two_pi_e + np.log2(pdet_sigma))
    h0 = 0.5 * (r0 * log_two_pi_e + np.log2(pdet0))
    h1 = 0.5 * (r1 * log_two_pi_e + np.log2(pdet_sigma1))
    return GaussianLeakage(
        bits=per_iteration_leakage_general(h, h0, h1, cfg),
        rank_consistent=(r == r0 == r1),
        ranks=(int(r), int(r0), int(r1)),
    )


def exact_discrete_mi(grads: GradientSet, cfg: SamplingConfig, j: int) -> float:
    """Exact I[T_j ; normalized update] in bits, over the update's finite support.

    Sums over all 2^N batch patterns. A pattern's joint probability with each
    T_j outcome depends only on its size: `sampling.count_law` summed over
    which other unbatched examples are in the training set. Atoms are keyed
    by tuples of exact Fractions of the gradient sum so that equal sums
    arising from different patterns land in one atom. Entirely exact up to
    the final float log arithmetic.
    """
    _check_instance(grads, cfg, j)
    if cfg.n_total > DISCRETE_MI_MAX_N:
        raise CapacityError(
            f"discrete MI needs n_total <= {DISCRETE_MI_MAX_N}, got {cfg.n_total}"
        )
    if cfg.n_train == cfg.n_total:
        return 0.0
    n = cfg.n_total
    frac_grads = [[Fraction(float(x)) for x in row] for row in grads.vectors]
    p_in = Fraction(cfg.n_train, n)
    law = count_law(cfg)

    def unbatched_sum(k: int, free: int, fixed_in: int) -> Fraction:
        """law at k batched, fixed_in unbatched members, and any u of `free` examples in."""
        return sum(math.comb(free, u) * law[k + fixed_in + u][k] for u in range(free + 1))

    # By batch size k: (P[pattern, T_j = 0], P[pattern, T_j = 1]) for a
    # pattern that batches j, and for one that leaves j out of the batch.
    j_batched = [(Fraction(0), unbatched_sum(k, n - k, 0)) for k in range(n + 1)]
    j_unbatched = [
        (unbatched_sum(k, n - k - 1, 0), unbatched_sum(k, n - k - 1, 1)) for k in range(n + 1)
    ]

    atoms: dict[tuple, list[Fraction]] = {}
    for pattern in range(1 << n):
        members = [i for i in range(n) if pattern >> i & 1]
        p0, p1 = (j_batched if pattern >> j & 1 else j_unbatched)[len(members)]
        if p0 == 0 and p1 == 0:
            continue
        key = tuple(
            sum((frac_grads[i][p] for i in members), start=Fraction(0))
            for p in range(grads.dim)
        )
        entry = atoms.setdefault(key, [Fraction(0), Fraction(0)])
        entry[0] += p0
        entry[1] += p1

    mi = 0.0
    pj = {0: 1 - p_in, 1: p_in}
    for p0, p1 in atoms.values():
        # p0, p1 are joint probabilities P[atom, T_j = tau].
        p_atom = p0 + p1
        for tau, joint in ((0, p0), (1, p1)):
            if joint > 0:
                mi += float(joint) * math.log2(float(joint / (p_atom * pj[tau])))
    return max(mi, 0.0)


@dataclass(frozen=True)
class FormulaCheck:
    formula: str
    scheme: str
    max_abs_error: float
    tolerance: float
    passed: bool
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "formula": self.formula,
            "scheme": self.scheme,
            "max_abs_error": self.max_abs_error,
            # informational checks carry no gate; keep the JSON strict-parseable
            "tolerance": self.tolerance if math.isfinite(self.tolerance) else "unbounded",
            "passed": self.passed,
            "note": self.note,
        }


@dataclass(frozen=True)
class OracleReport:
    checks: tuple[FormulaCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(c.formula for c in self.checks if not c.passed)


def _sampling(
    n: int, nt: int, b: int, scheme: SamplingScheme = SamplingScheme.WITHOUT_REPLACEMENT
) -> SamplingConfig:
    """A one-iteration instance; the checks read only its sizes and scheme."""
    return SamplingConfig(
        n_total=n, n_train=nt, batch_size=b, n_iters=1, learning_rate=0.1, scheme=scheme
    )


def _random_instance(
    rng: np.random.Generator, n: int, dim: int, scheme: SamplingScheme
) -> tuple[GradientSet, SamplingConfig, int]:
    nt = int(rng.integers(1, n))  # keep nt < n so conditioning is nondegenerate
    b = int(rng.integers(1, nt + 1))
    cfg = _sampling(n, nt, b, scheme)
    grads = GradientSet(rng.standard_normal((n, dim)))
    return grads, cfg, int(rng.integers(0, n))


def _gate(
    formula: str, scheme: str, error: float, tolerance: float, holds: bool = True, note: str = ""
) -> FormulaCheck:
    """A check that passes when its side conditions hold and error <= tolerance."""
    return FormulaCheck(formula, scheme, error, tolerance, bool(holds and error <= tolerance), note)


def _informational(formula: str, scheme: str, value: float, note: str) -> FormulaCheck:
    """A measured quantity, reported but never gated."""
    return _gate(formula, scheme, value, float("inf"), note=note)


def _pinv_reference(vectors: np.ndarray, values: np.ndarray, tol: float) -> tuple[float, np.ndarray]:
    """values against np.linalg.pinv of each S_j, and each row's range flag from it.

    Returns the worst error relative to max(1, |pinv value|) and, per row,
    whether ||g_j - S_j S_j^+ g_j||^2 <= tol * lambda_max(S_j).
    """
    worst, in_range = 0.0, np.zeros(len(values), dtype=bool)
    for j, value in enumerate(values):
        others = np.delete(vectors, j, axis=0)
        s = others.T @ others
        s_pinv = np.linalg.pinv(s, rcond=tol, hermitian=True)
        ref = float(vectors[j] @ s_pinv @ vectors[j])
        worst = max(worst, abs(value - ref) / max(1.0, abs(ref)))
        resid = vectors[j] - s @ s_pinv @ vectors[j]
        in_range[j] = float(resid @ resid) <= tol * float(np.linalg.eigvalsh(s)[-1])
    return worst, in_range


def run_oracle_checks(seed: int = 0, corrupt: str | None = None) -> OracleReport:
    """Run every formula check on deterministic tiny instances.

    corrupt="kappa" deliberately perturbs the variance-ratio constant before
    the comparison, as a self-test that the oracle actually detects a wrong
    formula; any other corrupt value is rejected.
    """
    if corrupt not in (None, "kappa"):
        raise ConfigurationError(f"unknown corruption target: {corrupt!r}")
    rng = stream(seed, 991)
    checks: list[FormulaCheck] = []
    ber = SamplingScheme.INDEPENDENT_BERNOULLI

    # Indicator variances vs exhaustive enumeration, both schemes.
    for scheme in SamplingScheme:
        worst = 0.0
        for n, nt, b in ((6, 3, 1), (8, 4, 2), (9, 6, 3), (7, 2, 2)):
            cfg = _sampling(n, nt, b, scheme)
            table = enumerate_exact_moments(cfg, 0)
            m = indicator_moments(cfg)
            others = np.arange(1, n)
            worst = max(
                worst,
                float(np.abs(table.var_unconditional[others] - m.var_unconditional).max()),
                float(np.abs(table.var_given_out[others] - m.var_given_out).max()),
                float(np.abs(table.var_given_in[others] - m.var_given_in).max()),
                abs(table.var_self_given_in - m.var_self_given_in),
            )
        checks.append(_gate("indicator_variances", scheme.value, worst, 1e-12))

    # Cross covariances: zero under independence, closed-form value under WOR.
    worst = 0.0
    for n, nt, b in ((6, 3, 1), (8, 5, 2)):
        table = enumerate_exact_moments(_sampling(n, nt, b, ber), 0)
        off = table.cov_unconditional - np.diag(np.diag(table.cov_unconditional))
        worst = max(worst, float(np.abs(off).max()))
    checks.append(_gate("cross_covariance_independence", ber.value, worst, 1e-12))
    worst = 0.0
    for n, nt, b in ((6, 3, 1), (8, 5, 2), (10, 5, 3)):
        table = enumerate_exact_moments(_sampling(n, nt, b), 0)
        expected = -(b**2) * (n - nt) / (n**2 * (n - 1) * nt)
        off = table.cov_unconditional[~np.eye(n, dtype=bool)]
        worst = max(worst, float(np.abs(off - expected).max()))
    checks.append(
        _gate(
            "cross_covariance_wor_value",
            "without_replacement",
            worst,
            1e-12,
            note="off-diagonal Cov[Z_n, Z_m] = -B^2 (N-Nt) / (N^2 (N-1) Nt)",
        )
    )

    # Covariance closed form vs enumeration (the independence scheme identity).
    worst = 0.0
    for _ in range(8):
        grads, cfg, j = _random_instance(rng, int(rng.integers(4, 9)), int(rng.integers(1, 4)), ber)
        closed = closed_form_covariances(grads, cfg, j)
        enum_ = enumerate_covariances(grads, cfg, j)
        for a, b_ in ((closed.sigma, enum_.sigma), (closed.sigma0, enum_.sigma0), (closed.sigma1, enum_.sigma1)):
            worst = max(worst, float(np.abs(a - b_).max()))
    checks.append(_gate("covariance_closed_form", ber.value, worst, 1e-12))

    # Rank-one pdet identity on random PSD matrices with in-range vectors.
    worst = 0.0
    for _ in range(25):
        dim, rank = 5, 3
        basis = rng.standard_normal((dim, rank))
        a = basis @ basis.T
        q_vec = basis @ rng.standard_normal(rank)
        pdet_a, rank_a = pdet_and_rank(a)
        quad, _ = pinv_quadform(a, q_vec, 1e-10)
        updated = a + np.outer(q_vec, q_vec)
        pdet_direct, rank_direct = pdet_and_rank(updated)
        rel = abs(pdet_rank_one(pdet_a, quad) - pdet_direct) / pdet_direct
        worst = max(worst, rel, float(rank_direct != rank_a))
    checks.append(
        _gate("pdet_rank_one", "any", worst, 1e-9, note="relative error; rank mismatch scores 1")
    )

    # Gaussian entropies from the eigenvalues of Sigma, Sigma0 and Sigma1 vs
    # the per-gnq closed form (the c2/c1 ratio is kappa exactly, so the two
    # must agree to rounding).
    worst = 0.0
    for _ in range(8):
        grads, cfg, j = _random_instance(rng, int(rng.integers(4, 9)), 3, ber)
        triple = closed_form_covariances(grads, cfg, j)
        gauss = gaussian_leakage_from_covariances(triple, cfg)
        gnq, _ = gnq_exact(grads, j, 1e-10)
        kappa_factor = 1.0 if corrupt != "kappa" else 1.05
        direct = per_iteration_leakage(gnq * kappa_factor, cfg)
        worst = max(worst, abs(gauss.bits - direct))
    checks.append(
        _gate(
            "gaussian_vs_kappa_leakage",
            ber.value,
            worst,
            1e-9,
            note="kappa deliberately corrupted" if corrupt == "kappa" else "",
        )
    )

    # kappa as the limit of the exact conditional variance ratio.
    gaps = []
    for n in (100, 1000, 10000):
        m = indicator_moments(_sampling(n, n // 2, n // 10))
        kappa = m.kappa if corrupt != "kappa" else m.kappa * 1.05
        gaps.append(abs(m.var_self_given_in / m.var_given_in - kappa))
    checks.append(
        _gate(
            "kappa_ratio_limit",
            "without_replacement",
            gaps[-1],
            1e-3,
            holds=all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1)),
            note=f"gaps at N=1e2,1e3,1e4: {gaps[0]:.2e}, {gaps[1]:.2e}, {gaps[2]:.2e}",
        )
    )

    # Discrete MI ground truth: zero for a zero gradient (independence
    # scheme), bounded by the prior, monotone under gradient scaling.
    worst = 0.0
    monotone_ok = True
    bound_ok = True
    for _ in range(6):
        n = int(rng.integers(4, 7))
        grads, cfg, j = _random_instance(rng, n, 2, ber)
        zeroed = grads.vectors.copy()
        zeroed[j] = 0.0
        worst = max(worst, exact_discrete_mi(GradientSet(zeroed), cfg, j))
        mi1 = exact_discrete_mi(grads, cfg, j)
        doubled = grads.vectors.copy()
        doubled[j] *= 2.0
        mi2 = exact_discrete_mi(GradientSet(doubled), cfg, j)
        monotone_ok &= mi2 >= mi1 - 1e-12
        prior = prior_entropy(cfg.n_train, cfg.n_total)
        bound_ok &= -1e-12 <= mi1 <= prior + 1e-12
    checks.append(
        _gate(
            "discrete_mi_bounds",
            ber.value,
            worst,
            1e-12,
            holds=monotone_ok and bound_ok,
            note="zero-gradient MI; scaling monotonicity and prior bound also gated",
        )
    )

    # Finite-population coupling: under WOR a zero gradient still leaks a
    # little through the shared popcount. Reported, not gated.
    vecs = rng.standard_normal((6, 2))
    vecs[2] = 0.0
    coupling = exact_discrete_mi(GradientSet(vecs), _sampling(6, 3, 1), 2)
    checks.append(
        _informational(
            "wor_zero_gradient_coupling",
            "without_replacement",
            coupling,
            "informational: MI of a zero-gradient example under shared popcount",
        )
    )

    # Guarded leave-one-out downdate vs np.linalg.pinv of each S_j, on tiny
    # random instances (rank deficient when rank < dim) and one instance
    # where removing row 3 pushes the smallest kept eigenvalue of S under the
    # cutoff, so the downdate alone would be off by exactly 1.
    tol = 1e-6
    instances = []
    for _ in range(8):
        dim = int(rng.integers(1, 6))
        rank = int(rng.integers(1, dim + 1))
        n = int(rng.integers(3, 9))
        instances.append(rng.standard_normal((n, rank)) @ rng.standard_normal((rank, dim)))
    a = np.sqrt(2.4 * tol)
    crossing = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.5, 0.0, a], [0.0, 0.0, a]]
    )
    instances.append(crossing)
    worst = 0.0
    for vectors in instances:
        values, _, reasons, _ = loo_scores(vectors, tol)
        worst = max(worst, _pinv_reference(vectors, values, tol)[0])
    checks.append(
        _gate(
            "guarded_downdate_vs_pinv",
            "any",
            worst,
            1e-9,
            holds=reasons[3] == FallbackReason.CROSSING.value,
            note="error relative to max(1, |pinv value|); the crossing row must fall back",
        )
    )

    # Secular correction vs np.linalg.pinv of each S_j, on tiny random
    # instances whose S has planted eigenvalues at 0.2-0.99 and 1.01-3 times
    # the cutoff: rows are scored from roots of the secular equation unless
    # S_j keeps a different number of eigenvalues than S.
    worst, secular, flags_agree = 0.0, 0, True
    for _ in range(8):
        dim = int(rng.integers(3, 7))
        near = tol * rng.uniform(0.2, 0.99, size=int(rng.integers(1, dim - 1)))
        kept = tol * rng.uniform(1.01, 3.0, size=dim - 1 - near.size)
        n = int(rng.integers(2 * dim, 3 * dim + 1))
        basis, _ = np.linalg.qr(rng.standard_normal((n, dim)))
        rotation, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        spectrum = np.concatenate(([1.0], kept, near))
        vectors = basis @ np.diag(np.sqrt(spectrum)) @ rotation.T
        values, range_ok, _, health = loo_scores(vectors, tol)
        secular += health.secular
        gap, in_range = _pinv_reference(vectors, values, tol)
        worst = max(worst, gap)
        flags_agree &= bool(np.array_equal(range_ok, in_range))
    checks.append(
        _gate(
            "near_cutoff_downdate_vs_pinv",
            "any",
            worst,
            1e-8,
            holds=flags_agree and secular > 0,
            note=f"error relative to max(1, |pinv value|); range flags must agree; "
            f"{secular} rows scored through the secular correction",
        )
    )

    return OracleReport(checks=tuple(checks))
