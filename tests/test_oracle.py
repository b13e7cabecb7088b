"""Brute-force verification layer: covariance formulas, Gaussian path, discrete MI."""

import numpy as np
import pytest

from gnqaudit import (
    CapacityError,
    ConfigurationError,
    GradientSet,
    SamplingConfig,
    SamplingScheme,
)
from gnqaudit import oracle
from gnqaudit.bounds import per_iteration_leakage, prior_entropy
from gnqaudit.geometry import DEFAULT_TOL, gnq_exact, pdet_and_rank, pdet_rank_one, pinv_quadform
from gnqaudit.oracle import (
    DISCRETE_MI_MAX_N,
    closed_form_covariances,
    enumerate_covariances,
    exact_discrete_mi,
    gaussian_leakage_from_covariances,
    run_oracle_checks,
)
from gnqaudit.sampling import ENUMERATION_MAX_N
from oracles import enum_update_covariances, ref_discrete_mi

BER = SamplingScheme.INDEPENDENT_BERNOULLI
WOR = SamplingScheme.WITHOUT_REPLACEMENT


def cfg_of(n, nt, b, scheme=BER, seed=0):
    return SamplingConfig(
        n_total=n, n_train=nt, batch_size=b, n_iters=1, learning_rate=0.1, scheme=scheme, seed=seed
    )


def random_instance(rng, n=6, dim=3, scheme=BER):
    g = rng.normal(size=(n, dim))
    nt = int(rng.integers(2, n))
    b = int(rng.integers(1, nt + 1))
    return GradientSet(g), cfg_of(n, nt, b, scheme)


# closed-form covariances -----------------------------------------------------------


def test_single_nonzero_gradient_gives_scaled_rank_one_sigma():
    g = np.zeros((4, 2))
    g[1] = [1.0, 0.0]
    cfg = cfg_of(4, 2, 1)
    triple = closed_form_covariances(GradientSet(g), cfg, 0)
    c1_sq = (1.0 / (1 * 4)) * (1.0 - 1.0 / 4.0)
    expected = np.zeros((2, 2))
    expected[0, 0] = c1_sq
    assert np.allclose(triple.sigma, expected, atol=1e-15)


def test_zero_scored_gradient_collapses_the_conditionals():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(6, 3))
    g[2] = 0.0
    triple = closed_form_covariances(GradientSet(g), cfg_of(6, 3, 2), 2)
    assert np.array_equal(triple.sigma, triple.sigma0)
    assert np.array_equal(triple.sigma, triple.sigma1)


def test_rank_one_relations_hold_exactly():
    # Sigma - Sigma0 = c1^2 g_j g_j^T and Sigma1 - Sigma0 = c2^2 g_j g_j^T
    rng = np.random.default_rng(3)
    for _ in range(20):
        grads, cfg = random_instance(rng)
        n, nt, b = cfg.n_total, cfg.n_train, cfg.batch_size
        j = int(rng.integers(n))
        t = closed_form_covariances(grads, cfg, j)
        gj = grads.vectors[j]
        r1 = t.sigma - t.sigma0 - (1.0 / (b * n)) * (1.0 - b / n) * np.outer(gj, gj)
        r2 = t.sigma1 - t.sigma0 - (1.0 / (b * nt)) * (1.0 - b / nt) * np.outer(gj, gj)
        assert np.linalg.norm(r1) <= 1e-14
        assert np.linalg.norm(r2) <= 1e-14


def test_scale_constants_match_their_definitions():
    # N = 10, n_train = 5, B = 2: c1^2 = (1/20)(1 - 1/5), c2^2 = (1/10)(1 - 2/5)
    g = np.random.default_rng(4).normal(size=(10, 2))
    t = closed_form_covariances(GradientSet(g), cfg_of(10, 5, 2), 0)
    outer = np.outer(g[0], g[0])
    assert np.allclose(t.sigma - t.sigma0, 0.04 * outer, rtol=1e-14, atol=1e-16)
    assert np.allclose(t.sigma1 - t.sigma0, 0.06 * outer, rtol=1e-14, atol=1e-16)


def test_closed_form_requires_independent_sampling():
    g = np.random.default_rng(0).normal(size=(5, 2))
    with pytest.raises(ConfigurationError, match="independent_bernoulli"):
        closed_form_covariances(GradientSet(g), cfg_of(5, 3, 1, WOR), 0)


# enumeration oracle ----------------------------------------------------------------


def test_enumeration_matches_closed_form_under_independence():
    rng = np.random.default_rng(7)
    for _ in range(6):
        grads, cfg = random_instance(rng, n=int(rng.integers(4, 8)))
        j = int(rng.integers(grads.n_examples))
        closed = closed_form_covariances(grads, cfg, j)
        enum = enumerate_covariances(grads, cfg, j)
        for a, b in ((closed.sigma, enum.sigma), (closed.sigma0, enum.sigma0), (closed.sigma1, enum.sigma1)):
            assert np.abs(a - b).max() <= 1e-12


def test_fixed_size_sampling_gap_is_exactly_the_cross_term():
    # without-replacement indicators are weakly negatively correlated with
    # Cov[Z_n, Z_m] = -B^2 (N-Nt) / (N^2 (N-1) Nt) for n != m, and the
    # marginal variance matches the independent scheme, so the enumerated
    # covariance must equal the independence closed form plus exactly that
    # cross-example correction
    rng = np.random.default_rng(11)
    saw_gap = False
    for _ in range(6):
        n = int(rng.integers(5, 9))
        g = rng.normal(size=(n, 3))
        nt = int(rng.integers(2, n))
        b = int(rng.integers(1, nt + 1))
        grads = GradientSet(g)
        enum_wor = enumerate_covariances(grads, cfg_of(n, nt, b, WOR), 0)
        closed = closed_form_covariances(grads, cfg_of(n, nt, b, BER), 0)
        total = g.sum(axis=0)
        cross = np.outer(total, total) - g.T @ g
        correction = -(n - nt) / (n**2 * (n - 1) * nt) * cross
        assert np.abs(enum_wor.sigma - (closed.sigma + correction)).max() <= 1e-12
        if nt < n:
            saw_gap = np.abs(correction).max() > 0 or saw_gap
    assert saw_gap


def test_deterministic_full_batch_has_zero_covariance():
    g = np.random.default_rng(2).normal(size=(5, 2))
    t = enumerate_covariances(GradientSet(g), cfg_of(5, 5, 5, WOR), 0)
    assert np.abs(t.sigma).max() <= 1e-15
    assert np.abs(t.sigma0).max() <= 1e-15
    assert np.abs(t.sigma1).max() <= 1e-15


def test_enumeration_capacity_cap():
    g = np.zeros((ENUMERATION_MAX_N + 1, 2))
    cfg = cfg_of(ENUMERATION_MAX_N + 1, 3, 1)
    with pytest.raises(CapacityError, match=str(ENUMERATION_MAX_N)):
        enumerate_covariances(GradientSet(g), cfg, 0)


@pytest.mark.parametrize("scheme", [WOR, BER], ids=["wor", "bernoulli"])
def test_enumerated_conditionals_match_fraction_reference(scheme):
    # sigma0 and sigma1 against rational enumeration of the update itself,
    # including n_train = n_total, where the T_j = 0 law is the unconditional one
    rng = np.random.default_rng(31)
    for n, nt, b in ((4, 2, 1), (5, 3, 2), (6, 4, 2), (6, 2, 2), (5, 5, 2)):
        grads = GradientSet(rng.normal(size=(n, 2)))
        j = int(rng.integers(n))
        enum = enumerate_covariances(grads, cfg_of(n, nt, b, scheme), j)
        key = "wor" if scheme is WOR else "bernoulli"
        ref = enum_update_covariances(grads.vectors, nt, b, key, j)
        for name, exact in zip(("sigma", "sigma0", "sigma1"), ref):
            gap = np.abs(getattr(enum, name) - np.array(exact, dtype=float)).max()
            assert gap <= 1e-12, (n, nt, b, name, gap)


# Gaussian-entropy leakage path -----------------------------------------------------


def test_gaussian_leakage_zero_gradient_is_zero_bits():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(6, 3))
    g[1] = 0.0
    t = closed_form_covariances(GradientSet(g), cfg_of(6, 3, 2), 1)
    out = gaussian_leakage_from_covariances(t, cfg_of(6, 3, 2))
    assert out.bits == 0.0
    assert out.rank_consistent


def test_gaussian_path_matches_quadform_closed_form():
    rng = np.random.default_rng(9)
    for _ in range(6):
        grads, cfg = random_instance(rng, n=6, dim=3)
        j = int(rng.integers(6))
        t = closed_form_covariances(grads, cfg, j)
        gauss = gaussian_leakage_from_covariances(t, cfg)
        others = np.delete(grads.vectors, j, axis=0)
        w, v = np.linalg.eigh(others.T @ others)
        keep = w > 1e-10 * max(float(w[-1]), 0.0)
        gnq = float(((v[:, keep].T @ grads.vectors[j]) ** 2 / w[keep]).sum())
        assert gauss.bits == pytest.approx(per_iteration_leakage(gnq, cfg), abs=1e-9)


def test_eigenvalue_and_rank_one_pdet_paths_agree():
    # the leakage from eigenvalue pseudo-determinants of all three matrices
    # equals the one from pdet(Sigma0) and the rank-one updates
    # pdet(Sigma0) (1 + c^2 g_j^T Sigma0^+ g_j), on closed-form and enumerated triples
    rng = np.random.default_rng(15)
    for _ in range(5):
        grads, cfg = random_instance(rng, n=6, dim=3)
        n, nt, b = cfg.n_total, cfg.n_train, cfg.batch_size
        j = int(rng.integers(n))
        closed = closed_form_covariances(grads, cfg, j)
        pdet0, r0 = pdet_and_rank(closed.sigma0)
        quad, in_range = pinv_quadform(closed.sigma0, grads.vectors[j], 1e-10)
        assert in_range and r0 == 3
        c1_sq = (1.0 / (b * n)) * (1.0 - b / n)
        c2_sq = (1.0 / (b * nt)) * (1.0 - b / nt)
        rank_one = 0.5 * (
            np.log2(pdet_rank_one(pdet0, c1_sq * quad) / pdet0)
            - (nt / n) * np.log2(pdet_rank_one(pdet0, c2_sq * quad) / pdet0)
        )
        for triple in (closed, enumerate_covariances(grads, cfg, j)):
            via_eigh = gaussian_leakage_from_covariances(triple, cfg)
            assert via_eigh.bits == pytest.approx(rank_one, abs=1e-9)
            assert via_eigh.ranks == (3, 3, 3)


def test_gaussian_leakage_reads_every_pseudo_determinant(monkeypatch):
    # A pdet that comes back squared doubles the leakage; a route that rebuilt
    # pdet(Sigma) and pdet(Sigma1) from pdet(Sigma0) and gnq would hide it.
    true_pdet_and_rank = oracle.pdet_and_rank

    def squared(s, tol=DEFAULT_TOL):
        pdet, rank = true_pdet_and_rank(s, tol)
        return pdet**2, rank

    monkeypatch.setattr(oracle, "pdet_and_rank", squared)
    rng = np.random.default_rng(27)
    for _ in range(4):
        grads, cfg = random_instance(rng, n=6, dim=3)
        j = int(rng.integers(6))
        gnq, _ = gnq_exact(grads, j, 1e-10)
        gauss = gaussian_leakage_from_covariances(closed_form_covariances(grads, cfg, j), cfg)
        assert abs(gauss.bits - per_iteration_leakage(gnq, cfg)) > 1e-6


def test_gaussian_leakage_nonnegative_on_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(10):
        grads, cfg = random_instance(rng, n=6, dim=3)
        t = closed_form_covariances(grads, cfg, 0)
        assert gaussian_leakage_from_covariances(t, cfg).bits >= -1e-12


# exact discrete MI ------------------------------------------------------------------


def test_discrete_mi_zero_gradient_independent_sampling():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(6, 3))
    g[0] = 0.0
    grads = GradientSet(g)
    assert exact_discrete_mi(grads, cfg_of(6, 3, 2), 0) == 0.0


def test_discrete_mi_zero_gradient_still_leaks_under_fixed_size_sampling():
    # with a fixed training-set size the indicators are coupled, so knowing
    # T_j shifts the distribution of everyone else's inclusion and the update
    # carries information about j even though g_j contributes nothing
    rng = np.random.default_rng(1)
    g = rng.normal(size=(6, 3))
    g[0] = 0.0
    grads = GradientSet(g)
    assert exact_discrete_mi(grads, cfg_of(6, 3, 2, WOR), 0) > 0.01


def test_discrete_mi_full_membership_is_zero():
    rng = np.random.default_rng(3)
    grads = GradientSet(rng.normal(size=(5, 2)))
    assert exact_discrete_mi(grads, cfg_of(5, 5, 2, WOR), 0) == 0.0


@pytest.mark.parametrize("scheme", [BER, WOR], ids=["bernoulli", "wor"])
def test_discrete_mi_within_entropy_budget(scheme):
    rng = np.random.default_rng(17)
    for _ in range(8):
        grads, cfg = random_instance(rng, n=int(rng.integers(4, 8)), dim=2, scheme=scheme)
        mi = exact_discrete_mi(grads, cfg, 0)
        assert 0.0 <= mi <= prior_entropy(cfg.n_train, cfg.n_total) + 1e-12


@pytest.mark.parametrize("scheme", [BER, WOR], ids=["bernoulli", "wor"])
def test_discrete_mi_nondecreasing_under_gradient_scaling(scheme):
    rng = np.random.default_rng(23)
    for _ in range(8):
        grads, cfg = random_instance(rng, n=6, dim=2, scheme=scheme)
        base = exact_discrete_mi(grads, cfg, 0)
        doubled = np.vstack([2.0 * grads.vectors[0], grads.vectors[1:]])
        scaled = exact_discrete_mi(GradientSet(doubled), cfg, 0)
        assert scaled >= base - 1e-12


@pytest.mark.parametrize("scheme,key", [(BER, "bernoulli"), (WOR, "wor")], ids=["bernoulli", "wor"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_discrete_mi_matches_fraction_reference(scheme, key, n):
    # plain rows, j's row zeroed, and two equal rows (their sums coincide, so
    # atoms from different batches must merge)
    rng = np.random.default_rng(100 + n)
    for variant in ("plain", "zeroed", "equal"):
        nt = int(rng.integers(1, n))
        b = int(rng.integers(1, nt + 1))
        j = int(rng.integers(0, n))
        g = rng.normal(size=(n, int(rng.integers(1, 3))))
        if variant == "zeroed":
            g[j] = 0.0
        elif variant == "equal":
            a, c = rng.choice(n, size=2, replace=False)
            g[a] = g[c]
        mi = exact_discrete_mi(GradientSet(g), cfg_of(n, nt, b, scheme), j)
        assert mi == pytest.approx(ref_discrete_mi(g, nt, b, key, j), abs=1e-12)


def test_discrete_mi_capacity_cap():
    g = np.zeros((DISCRETE_MI_MAX_N + 1, 2))
    cfg = cfg_of(DISCRETE_MI_MAX_N + 1, 3, 1)
    with pytest.raises(CapacityError, match=str(DISCRETE_MI_MAX_N)):
        exact_discrete_mi(GradientSet(g), cfg, 0)


# self-test harness -----------------------------------------------------------------


# The battery's checks, pinned in order: a dropped or added check shows up in the diff.
CHECKS = [
    ("indicator_variances", "without_replacement"),
    ("indicator_variances", "independent_bernoulli"),
    ("cross_covariance_independence", "independent_bernoulli"),
    ("cross_covariance_wor_value", "without_replacement"),
    ("covariance_closed_form", "independent_bernoulli"),
    ("pdet_rank_one", "any"),
    ("gaussian_vs_kappa_leakage", "independent_bernoulli"),
    ("kappa_ratio_limit", "without_replacement"),
    ("discrete_mi_bounds", "independent_bernoulli"),
    ("wor_zero_gradient_coupling", "without_replacement"),
    ("guarded_downdate_vs_pinv", "any"),
    ("near_cutoff_downdate_vs_pinv", "any"),
]


def test_formula_checks_all_pass():
    report = run_oracle_checks(seed=0)
    assert [(c.formula, c.scheme) for c in report.checks] == CHECKS
    assert all(c.passed for c in report.checks)


def test_formula_checks_deterministic():
    a = run_oracle_checks(seed=0)
    b = run_oracle_checks(seed=0)
    assert [(c.formula, c.max_abs_error) for c in a.checks] == [
        (c.formula, c.max_abs_error) for c in b.checks
    ]


def test_corrupting_the_variance_ratio_is_detected():
    report = run_oracle_checks(seed=0, corrupt="kappa")
    failed = {c.formula for c in report.checks if not c.passed}
    assert failed
    assert all("kappa" in name for name in failed)
    passed = {c.formula for c in report.checks if c.passed}
    assert "covariance_closed_form" in passed


def test_unknown_corruption_target_rejected():
    with pytest.raises(ConfigurationError, match="corruption"):
        run_oracle_checks(seed=0, corrupt="nonsense")
