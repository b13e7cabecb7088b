"""Leakage arithmetic: entropies, per-iteration bits, Fano floor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnqaudit import (
    ConfigurationError,
    SamplingConfig,
    SamplingScheme,
    binary_entropy,
    fano_error_bound,
    inverse_binary_entropy,
    per_iteration_leakage,
    per_iteration_leakage_general,
    prior_entropy,
)
from gnqaudit.bounds import fano_chain, growth_condition_holds
from oracles import FROZEN, ref_binary_entropy, ref_inverse_binary_entropy, ref_leakage_bits


def cfg_of(n, nt, b, scheme=SamplingScheme.WITHOUT_REPLACEMENT):
    return SamplingConfig(
        n_total=n, n_train=nt, batch_size=b, n_iters=2, learning_rate=0.1, scheme=scheme, seed=0
    )


# prior entropy ---------------------------------------------------------------


def test_prior_half_is_one_bit():
    assert prior_entropy(50, 100) == 1.0


def test_prior_certain_membership_is_zero():
    assert prior_entropy(100, 100) == 0.0


def test_prior_quarter():
    assert prior_entropy(25, 100) == pytest.approx(FROZEN["entropy_quarter"], abs=1e-12)


def test_prior_rejects_bad_counts():
    with pytest.raises(ConfigurationError):
        prior_entropy(101, 100)
    with pytest.raises(ConfigurationError):
        prior_entropy(0, 100)


@given(p=st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_binary_entropy_matches_reference(p):
    assert binary_entropy(p) == pytest.approx(float(ref_binary_entropy(p)), abs=1e-12)


# per-iteration leakage --------------------------------------------------------


def test_leakage_zero_gnq_is_exactly_zero():
    assert per_iteration_leakage(0.0, cfg_of(100, 50, 10)) == 0.0


def test_leakage_headline_value():
    got = per_iteration_leakage(1.0, cfg_of(100, 50, 10))
    assert got == pytest.approx(FROZEN["leakage_n100_nt50_b10_gnq1"], abs=1e-12)
    assert got == pytest.approx(0.13152, abs=1e-5)


def test_leakage_full_membership_is_zero_for_all_gnq():
    cfg = cfg_of(80, 80, 8)
    for g in (0.0, 0.5, 1.0, 7.0, 1e3):
        assert per_iteration_leakage(g, cfg) == pytest.approx(0.0, abs=1e-15)


def test_leakage_strictly_increasing_on_grid():
    cfg = cfg_of(100, 50, 10)
    assert growth_condition_holds(cfg)
    grid = np.unique(np.concatenate([np.linspace(0, 10, 200), np.linspace(10, 1000, 200)]))
    vals = [per_iteration_leakage(float(g), cfg) for g in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v >= 0 for v in vals)


@pytest.mark.parametrize("scheme", list(SamplingScheme))
@pytest.mark.parametrize("n, nt, b", [(400, 200, 25), (100, 50, 10), (400, 100, 25), (60, 59, 1), (7, 3, 2)])
def test_leakage_is_never_negative(n, nt, b, scheme):
    # At gnq near 1e-16, log2(1 + gnq) rounds to 0 before log2(1 + kappa gnq) does.
    bits = per_iteration_leakage(np.logspace(-20, 8, 4001), cfg_of(n, nt, b, scheme))
    assert np.all(bits >= 0.0)
    assert per_iteration_leakage(1e-16, cfg_of(n, nt, b, scheme)) >= 0.0


@pytest.mark.parametrize("scheme", list(SamplingScheme))
@pytest.mark.parametrize(
    "n, nt, b",
    # kappa 1.78, 1.87, 3.2, 7.7, 90, 3.3 and 0 (B = n_train); then n_train = N.
    [(100, 50, 10), (400, 200, 25), (400, 100, 25), (40, 4, 1), (1000, 10, 1), (50, 12, 3), (20, 5, 5), (30, 30, 3)],
)
def test_growth_condition_is_strict_monotonicity(n, nt, b, scheme):
    cfg = cfg_of(n, nt, b, scheme)
    bits = per_iteration_leakage(np.logspace(-6, 8, 20000), cfg)
    assert growth_condition_holds(cfg) == bool(np.all(np.diff(bits) > 0.0))


def test_leakage_negative_gnq_rejected():
    with pytest.raises(ConfigurationError):
        per_iteration_leakage(-0.1, cfg_of(100, 50, 10))


@given(
    n_half=st.integers(2, 200),
    data=st.data(),
    gnq=st.floats(0.0, 1e3, allow_nan=False),
)
@settings(max_examples=120, deadline=None)
def test_leakage_matches_mpmath(n_half, data, gnq):
    n = 2 * n_half
    nt = n_half
    b = data.draw(st.integers(1, nt - 1)) if nt > 1 else 1
    got = per_iteration_leakage(gnq, cfg_of(n, nt, b))
    want = float(ref_leakage_bits(gnq, n, nt, b))
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
    assert got >= -1e-15


# general three-entropy form ---------------------------------------------------


def test_general_form_all_equal_is_zero():
    assert per_iteration_leakage_general(1.3, 1.3, 1.3, cfg_of(10, 5, 2)) == 0.0


def test_general_form_vacuous_conditioning():
    # Nt = N: the T_j = 0 branch carries no mass, H0 = H makes the result 0
    # whatever H1 says.
    cfg = cfg_of(10, 10, 2)
    for h1 in (-3.0, 0.0, 5.0):
        assert per_iteration_leakage_general(0.7, 0.7, h1, cfg) == pytest.approx(0.0, abs=1e-15)


# totals ------------------------------------------------------------------------


def total_of(per_iter):
    """One example's total from the array chain; its bits form one column."""
    total, _ = fano_chain(1.0, np.reshape(per_iter, (-1, 1)))
    return float(total[0])


def test_total_empty():
    assert total_of([]) == 0.0


def test_total_sum():
    assert total_of([0.1, 0.2, 0.3]) == pytest.approx(0.6)


def test_total_equal_terms():
    assert total_of([0.05] * 7) == pytest.approx(0.35)


def test_total_rejects_non_finite_terms():
    with pytest.raises(ConfigurationError):
        fano_chain(1.0, np.array([[0.1, 0.2], [np.inf, 0.0]]))


# inverse binary entropy ---------------------------------------------------------


def test_inverse_entropy_endpoints():
    assert inverse_binary_entropy(1.0) == 0.5
    assert inverse_binary_entropy(0.0) == 0.0


def test_inverse_entropy_half():
    assert inverse_binary_entropy(0.5) == pytest.approx(FROZEN["inv_entropy_half"], abs=1e-10)
    assert inverse_binary_entropy(0.5) == pytest.approx(0.110028, abs=1e-6)


def test_inverse_entropy_domain():
    with pytest.raises(ConfigurationError):
        inverse_binary_entropy(-0.01)
    with pytest.raises(ConfigurationError):
        inverse_binary_entropy(1.01)


def test_inverse_entropy_round_trip_grid():
    for h in np.linspace(0.0, 1.0, 1000):
        p = inverse_binary_entropy(float(h))
        assert binary_entropy(p) == pytest.approx(float(h), abs=1e-10)


@given(h=st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_inverse_entropy_matches_mpmath(h):
    p = inverse_binary_entropy(h)
    assert 0.0 <= p <= 0.5
    # entropy flattens at p = 1/2, so dp/dh ~ sqrt(ln2 / (8 (1 - h))) blows up
    # as h -> 1; comparing p values there would test conditioning, not code.
    # the forward round trip is checked separately on the full range.
    if h <= 1.0 - 1e-9:
        assert p == pytest.approx(float(ref_inverse_binary_entropy(h)), abs=1e-10)
    assert binary_entropy(p) == pytest.approx(h, abs=1e-10)


# Fano chain -----------------------------------------------------------------------


def test_fano_no_leakage_keeps_half():
    fb = fano_error_bound(1.0, 0.0)
    assert fb.pe_lower == 0.5
    assert not fb.vacuous


def test_fano_vacuous_when_leak_exceeds_prior():
    for leak in (1.0, 1.5, 10.0):
        fb = fano_error_bound(1.0, leak)
        assert fb.pe_lower == 0.0
        assert fb.vacuous


def test_fano_half_bit_left():
    fb = fano_error_bound(1.0, 0.5)
    assert fb.pe_lower == pytest.approx(0.110028, abs=1e-6)


@given(
    prior=st.floats(0.0, 1.0, allow_nan=False),
    leak_a=st.floats(0.0, 2.0, allow_nan=False),
    leak_b=st.floats(0.0, 2.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_fano_monotone_in_leakage(prior, leak_a, leak_b):
    lo, hi = sorted([leak_a, leak_b])
    assert fano_error_bound(prior, hi).pe_lower <= fano_error_bound(prior, lo).pe_lower + 1e-12


@given(
    prior_a=st.floats(0.0, 1.0, allow_nan=False),
    prior_b=st.floats(0.0, 1.0, allow_nan=False),
    leak=st.floats(0.0, 2.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_fano_monotone_in_prior(prior_a, prior_b, leak):
    lo, hi = sorted([prior_a, prior_b])
    assert fano_error_bound(lo, leak).pe_lower <= fano_error_bound(hi, leak).pe_lower + 1e-12


def test_leakage_chain_fields():
    cfg = cfg_of(100, 50, 10)
    per_iter = [0.01, 0.02, 0.0, 0.04]
    prior = prior_entropy(cfg.n_train, cfg.n_total)
    # Example 3 of four; the others leak nothing.
    bits = np.zeros((4, 4))
    bits[:, 3] = per_iter
    total, fano = fano_chain(prior, bits)
    assert total.shape == fano.pe_lower.shape == (4,)
    assert prior == 1.0
    assert total[3] == pytest.approx(sum(per_iter))
    assert fano.fano_entropy_bits[3] == pytest.approx(1.0 - sum(per_iter))
    assert 0.0 <= fano.pe_lower[3] <= 0.5
    assert not fano.vacuous[3]


def test_leakage_chain_vacuous_flag():
    cfg = cfg_of(100, 50, 10)
    total, fano = fano_chain(prior_entropy(cfg.n_train, cfg.n_total), np.array([[0.6], [0.7]]))
    assert fano.fano_entropy_bits[0] == 0.0
    assert fano.pe_lower[0] == 0.0
    assert fano.vacuous[0]


def test_array_chain_equals_scalar_calls():
    # h = 0 and h = 1 endpoints, interior values, and totals past the prior
    # (the clamp and the vacuous flag). Per-step bits are never negative, so
    # a total below zero is refused, not read as 0.
    h = np.array([0.0, 1.0, 0.5, 1e-9, 0.25, 0.999, 0.8112781244591328])
    got = inverse_binary_entropy(h)
    assert isinstance(got, np.ndarray)
    assert all(got[i] == inverse_binary_entropy(float(x)) for i, x in enumerate(h))
    prior = 0.8112781244591328
    bits = np.array([[0.0, 0.3, 0.5, 0.7], [0.0, 0.2, 0.4, 0.3]])
    total, fano = fano_chain(prior, bits)
    for j in range(bits.shape[1]):
        want = fano_error_bound(prior, float(total[j]))
        assert type(want.pe_lower) is float and type(want.vacuous) is bool
        assert fano.fano_entropy_bits[j] == want.fano_entropy_bits
        assert fano.pe_lower[j] == want.pe_lower
        assert fano.vacuous[j] == want.vacuous
    assert fano.vacuous.tolist() == [False, False, True, True]
    with pytest.raises(ConfigurationError):
        fano_chain(prior, np.array([[1e-17], [-2e-17]]))
    assert fano.pe_lower[0] == inverse_binary_entropy(prior)
    arr = fano_error_bound(1.0, np.array([0.0, 1.0, 0.4]))
    assert arr.pe_lower.tolist() == [inverse_binary_entropy(h) for h in (1.0, 0.0, 0.6)]
