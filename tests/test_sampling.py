"""Two-level sampling: membership and batch draws, closed-form moments, enumeration."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnqaudit import (
    CapacityError,
    ConfigurationError,
    SamplingConfig,
    SamplingScheme,
    enumerate_exact_moments,
    indicator_moments,
)
from gnqaudit.sampling import batch_indices, count_law, state_laws, train_indicator
from oracles import enum_indicator_moments, ref_batch

WOR = SamplingScheme.WITHOUT_REPLACEMENT
BER = SamplingScheme.INDEPENDENT_BERNOULLI


def cfg_of(n, nt, b, scheme=WOR, seed=0, n_iters=1, lr=0.1):
    return SamplingConfig(
        n_total=n, n_train=nt, batch_size=b, n_iters=n_iters, learning_rate=lr, scheme=scheme, seed=seed
    )


# config validation -----------------------------------------------------------


@pytest.mark.parametrize(
    "n,nt,b",
    [(4, 5, 1), (4, 2, 3), (4, 2, 0), (0, 0, 0)],
)
def test_invalid_sizes_rejected(n, nt, b):
    with pytest.raises(ConfigurationError):
        cfg_of(n, nt, b)


def test_nonpositive_learning_rate_rejected():
    # A zero-step run is representable by auditing iteration 0 instead; the
    # config itself requires a strictly positive step size.
    with pytest.raises(ConfigurationError):
        cfg_of(4, 2, 1, lr=0.0)
    with pytest.raises(ConfigurationError):
        cfg_of(4, 2, 1, lr=-0.5)


def test_zero_iterations_rejected():
    with pytest.raises(ConfigurationError):
        cfg_of(4, 2, 1, n_iters=0)


# train_indicator and batch_indices -------------------------------------------


def test_full_inclusion_forced():
    cfg = cfg_of(4, 4, 4)
    assert train_indicator(cfg).tolist() == [1, 1, 1, 1]
    assert [b.tolist() for b in batch_indices(cfg)] == [[0, 1, 2, 3]]


def test_batch_equals_train_when_b_is_nt():
    cfg = cfg_of(4, 2, 2, seed=3, n_iters=20)
    t = train_indicator(cfg)
    assert int(t.sum()) == 2
    for batch in batch_indices(cfg):
        assert np.array_equal(batch, np.flatnonzero(t))


def test_membership_implies_training():
    for scheme in (WOR, BER):
        cfg = cfg_of(10, 6, 3, scheme, seed=11, n_iters=50)
        t = train_indicator(cfg)
        for batch in batch_indices(cfg):
            assert np.all(t[batch] == 1)
        if scheme is WOR:
            assert int(t.sum()) == 6


def test_draws_deterministic_per_key():
    def draw(seed):
        cfg = cfg_of(30, 12, 5, seed=seed, n_iters=8)
        return train_indicator(cfg), list(batch_indices(cfg))[7]

    (ta, ma), (tb, mb), (tc, mc) = draw(42), draw(42), draw(43)
    assert np.array_equal(ta, tb) and np.array_equal(ma, mb)
    assert not (np.array_equal(ta, tc) and np.array_equal(ma, mc))


def test_training_draw_is_shared_and_read_only():
    cfg = cfg_of(30, 12, 5, BER, seed=42)
    t = train_indicator(cfg)
    assert train_indicator(cfg) is t
    with pytest.raises(ValueError):
        t[0] = 1 - t[0]
    assert np.array_equal(t, train_indicator.__wrapped__(cfg))


def test_batches_are_keyed_by_iteration_not_run_length():
    # Batch i comes from the stream keyed by (seed, i): a 6-iteration run
    # draws the first 6 batches of a 40-iteration run, bit for bit.
    short = list(batch_indices(cfg_of(20, 10, 4, BER, seed=9, n_iters=6)))
    long = list(batch_indices(cfg_of(20, 10, 4, BER, seed=9, n_iters=40)))
    assert len(short) == 6 and len(long) == 40
    for got, want in zip(short, long):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("scheme", [WOR, BER])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5])
def test_batch_generator_equals_the_indicator_draws(scheme, seed):
    # n_train 3 of 8 with B = 1: about a third of the batches are empty.
    for n, nt, b in [(30, 12, 5), (8, 3, 1), (5, 5, 5)]:
        cfg = cfg_of(n, nt, b, scheme, seed=seed, n_iters=40)
        t = train_indicator(cfg)
        batches = list(batch_indices(cfg))
        assert len(batches) == cfg.n_iters
        for it, got in enumerate(batches):
            want = ref_batch(t, seed, it, nt, b)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    empty = [got.size == 0 for got in batch_indices(cfg_of(8, 3, 1, scheme, seed=seed, n_iters=40))]
    assert any(empty) and not all(empty)


def test_monte_carlo_means_bernoulli():
    # The training indicator is a per-run draw, so fresh t needs a fresh
    # seed; batches vary per iteration. 1e5 total draws, tolerances many
    # sigma wide for these sample sizes.
    pops = np.empty(10_000)
    batches = np.empty(100_000)
    for s in range(10_000):
        cfg = cfg_of(100, 50, 10, BER, seed=s, n_iters=10)
        for it, batch in enumerate(batch_indices(cfg)):
            batches[s * 10 + it] = batch.size
        pops[s] = train_indicator(cfg).sum()
    assert abs(pops.mean() - 50.0) < 1.0
    assert abs(batches.mean() - 10.0) < 0.3


# indicator_moments -----------------------------------------------------------


def test_unconditional_variance_value():
    m = indicator_moments(cfg_of(100, 50, 10))
    assert m.var_unconditional == pytest.approx(0.09, abs=1e-15)


def test_kappa_value():
    m = indicator_moments(cfg_of(100, 50, 10))
    assert m.kappa == pytest.approx(16.0 / 9.0, rel=1e-15)


def test_self_variance_zero_when_b_equals_nt():
    m = indicator_moments(cfg_of(10, 5, 5))
    assert m.var_self_given_in == 0.0


def test_bernoulli_conditionals_collapse():
    # Independence: conditioning on T_j changes nothing for n != j.
    m = indicator_moments(cfg_of(12, 4, 2, BER))
    assert m.var_given_out == pytest.approx(m.var_unconditional, abs=1e-15)
    assert m.var_given_in == pytest.approx(m.var_unconditional, abs=1e-15)


@given(
    n=st.integers(2, 60),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_moments_are_bernoulli_variances(n, data):
    nt = data.draw(st.integers(1, n))
    b = data.draw(st.integers(1, nt))
    scheme = data.draw(st.sampled_from([WOR, BER]))
    m = indicator_moments(cfg_of(n, nt, b, scheme))
    for v in (m.var_unconditional, m.var_given_out, m.var_given_in, m.var_self_given_in):
        assert -1e-15 <= v <= 0.25 + 1e-15
    # kappa vanishes exactly at B = Nt (the 1 - B/Nt factor), positive below.
    if b < nt:
        assert m.kappa > 0
    else:
        assert m.kappa == 0.0


@given(half=st.integers(2, 40), data=st.data())
@settings(max_examples=60, deadline=None)
def test_kappa_below_two_at_half_split(half, data):
    b = data.draw(st.integers(1, half - 1))
    m = indicator_moments(cfg_of(2 * half, half, b))
    assert m.kappa < 2.0


def test_kappa_ratio_limit():
    # Fixed B/Nt = 0.2 and B/N = 0.1; the exact self-to-cross variance ratio
    # approaches kappa from one side as the population grows.
    gaps = []
    for n in (100, 1000, 10_000):
        cfg = cfg_of(n, n // 2, n // 10)
        m = indicator_moments(cfg)
        exact_ratio = m.var_self_given_in / m.var_given_in
        gaps.append(abs(exact_ratio - m.kappa))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


# enumerate_exact_moments -----------------------------------------------------


def law_grid():
    """Every (n, n_train, B) with n 1-10, n_train in {1, about n/2, n} and B in {1, n_train}."""
    return [
        (n, nt, b)
        for n in range(1, 11)
        for nt in sorted({1, max(1, n // 2), n})
        for b in sorted({1, nt})
    ]


@pytest.mark.parametrize("scheme", [WOR, BER], ids=["wor", "bernoulli"])
def test_count_law_sums_to_one_exactly(scheme):
    for n, nt, b in law_grid():
        law = count_law(cfg_of(n, nt, b, scheme))
        total = sum(
            math.comb(n, n_in) * math.comb(n_in, k) * law[n_in][k]
            for n_in in range(n + 1)
            for k in range(n_in + 1)
        )
        assert total == 1, (n, nt, b)


@pytest.mark.parametrize("scheme", [WOR, BER], ids=["wor", "bernoulli"])
def test_state_probabilities_are_correctly_rounded(scheme):
    # Each state's exact probability is the product of its examples' factors
    # (times the uniform training-set weight without replacement); float()
    # of a Fraction rounds correctly, so the enumeration must equal it bitwise.
    for n, nt, b in law_grid():
        digits, (probs, _, _) = state_laws(cfg_of(n, nt, b, scheme), 0)
        pb, pt = Fraction(b, nt), Fraction(nt, n)
        if scheme is WOR:
            factor = (Fraction(1), 1 - pb, pb)
        else:
            factor = (1 - pt, pt * (1 - pb), pt * pb)
        counts = np.stack([(digits == d).sum(axis=1) for d in range(3)], axis=1)
        kinds, which = np.unique(counts, axis=0, return_inverse=True)
        exact = []
        for n_out, n_skip, n_batched in kinds.tolist():
            p = factor[0] ** n_out * factor[1] ** n_skip * factor[2] ** n_batched
            if scheme is WOR:
                p = p / math.comb(n, nt) if n_skip + n_batched == nt else Fraction(0)
            exact.append(float(p))
        assert np.array_equal(probs, np.array(exact)[which.ravel()]), (n, nt, b)


def test_enumeration_capacity_error():
    with pytest.raises(CapacityError):
        enumerate_exact_moments(cfg_of(20, 10, 2), 0)


def test_bernoulli_cross_covariance_is_zero():
    tab = enumerate_exact_moments(cfg_of(6, 3, 1, BER), 0)
    off = tab.cov_unconditional[~np.eye(6, dtype=bool)]
    assert np.max(np.abs(off)) < 1e-15


def test_wor_marginals_match_closed_form():
    cfg = cfg_of(6, 3, 1)
    tab = enumerate_exact_moments(cfg, 0)
    m = indicator_moments(cfg)
    assert np.allclose(tab.var_unconditional, m.var_unconditional, atol=1e-12)
    # conditional variances for n != j
    assert tab.var_given_out[1] == pytest.approx(m.var_given_out, abs=1e-12)
    assert tab.var_given_in[1] == pytest.approx(m.var_given_in, abs=1e-12)
    # the j-th in-conditional is the self variance
    assert tab.var_given_in[0] == pytest.approx(m.var_self_given_in, abs=1e-12)


def test_wor_cross_covariance_small_but_nonzero():
    cfg = cfg_of(6, 3, 1)
    tab = enumerate_exact_moments(cfg, 0)
    off = tab.cov_unconditional[~np.eye(6, dtype=bool)]
    bound = (1 / 6) ** 2 / (6 - 1)
    assert np.all(np.abs(off) > 0)
    assert np.all(np.abs(off) <= bound + 1e-15)


@pytest.mark.parametrize("scheme,key", [(WOR, "wor"), (BER, "bernoulli")])
@pytest.mark.parametrize("n,nt,b", [(4, 2, 1), (5, 3, 2), (6, 4, 2), (7, 3, 3)])
def test_enumeration_matches_fraction_reference(scheme, key, n, nt, b):
    cfg = cfg_of(n, nt, b, scheme)
    tab = enumerate_exact_moments(cfg, 0)
    ref = enum_indicator_moments(n, nt, b, key, j=0)
    assert np.allclose(tab.var_unconditional, [float(v) for v in ref["var"]], atol=1e-13)
    for i in range(1, n):
        assert tab.var_given_out[i] == pytest.approx(float(ref["var_out"][i]), abs=1e-13)
        assert tab.var_given_in[i] == pytest.approx(float(ref["var_in"][i]), abs=1e-13)
    for (a, c), v in ref["cov"].items():
        assert tab.cov_unconditional[a, c] == pytest.approx(float(v), abs=1e-13)


def test_moment_agreement_grid():
    # Closed forms against enumeration across a WOR grid, the scheme each
    # formula assumes.
    for n in (4, 6, 8, 10, 12):
        for nt in {max(1, n // 4), n // 2, n - 1}:
            for b in {1, max(1, nt // 2), nt}:
                cfg = cfg_of(n, nt, b)
                tab = enumerate_exact_moments(cfg, 0)
                m = indicator_moments(cfg)
                assert tab.var_unconditional[1] == pytest.approx(m.var_unconditional, abs=1e-12)
                if n > nt:
                    assert tab.var_given_out[1] == pytest.approx(m.var_given_out, abs=1e-12)
                assert tab.var_given_in[1] == pytest.approx(m.var_given_in, abs=1e-12)
                assert tab.var_given_in[0] == pytest.approx(m.var_self_given_in, abs=1e-12)
