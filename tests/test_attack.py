"""Loss-threshold attack and attack-vs-uniqueness evaluation."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from gnqaudit import (
    ConfigurationError,
    Dataset,
    GramMode,
    ModelKind,
    ModelSpec,
    SamplingConfig,
    loss_attack,
    rank_auc,
    success_vs_gnq,
    train,
)
from gnqaudit.attack import AttackResult, _oracle_threshold, rankdata, spearman
from gnqaudit.bounds import fano_error_bound
from gnqaudit.training import AuditCadence, AuditRecord
from oracles import ref_auc


def fake_record(gnq):
    gnq = np.asarray(gnq, dtype=np.float64)
    return AuditRecord(
        mode=GramMode.FULL_EXACT,
        cadence=AuditCadence.FINAL_ONLY,
        audited_iterations=(1,),
        values=gnq[None, :],
        range_ok=np.ones((1, gnq.size), dtype=bool),
        cumulative_gnq=gnq,
        prior_entropy_bits=1.0,
        per_iteration_bits=np.zeros((1, gnq.size)),
        total_bits=np.zeros(gnq.size),
        fano=fano_error_bound(1.0, np.zeros(gnq.size)),
        tol=1e-10,
    )


def fake_attack(success):
    success = np.asarray(success, dtype=np.uint8)
    return AttackResult(
        per_example_score=success.astype(np.float64),
        per_example_success=success,
        membership=success,
        auc=0.5,
        threshold=0.0,
    )


# rank-based AUC -------------------------------------------------------------------


def test_auc_perfect_separation():
    assert rank_auc(np.array([3.0, 2.0, 1.0]), np.array([1, 1, 0])) == 1.0


def test_auc_reversed_separation():
    assert rank_auc(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 0])) == 0.0


def test_auc_constant_scores_is_half():
    assert rank_auc(np.ones(6), np.array([1, 0, 1, 0, 1, 0])) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(ConfigurationError, match="AUC"):
        rank_auc(np.array([1.0, 2.0]), np.array([1, 1]))


def test_auc_matches_pairwise_reference():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(4, 40))
        scores = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0], size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert rank_auc(scores, labels) == pytest.approx(ref_auc(scores, labels), abs=1e-12)


def test_auc_random_scores_near_half():
    rng = np.random.default_rng(99)
    scores = rng.normal(size=500)
    labels = rng.integers(0, 2, size=500)
    assert abs(rank_auc(scores, labels) - 0.5) < 0.1


def test_auc_negation_flips():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=50)
    labels = rng.integers(0, 2, size=50)
    labels[0], labels[1] = 0, 1
    assert rank_auc(-scores, labels) == pytest.approx(1.0 - rank_auc(scores, labels), abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    # quantized so distinct scores stay distinct after the affine/exp maps
    st.lists(st.floats(-50, 50).map(lambda v: round(v, 3)), min_size=4, max_size=30),
    st.integers(0, 2**32 - 1),
)
def test_auc_invariant_under_monotone_transform(vals, seed):
    scores = np.asarray(vals)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=scores.size)
    labels[0], labels[1] = 0, 1
    base = rank_auc(scores, labels)
    assert rank_auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)
    assert rank_auc(np.exp(scores / 50.0), labels) == pytest.approx(base, abs=1e-12)


# loss attack ----------------------------------------------------------------------


def run_small_attack(seed=3):
    spec = ModelSpec(kind=ModelKind.LINEAR2D, input_dim=1)
    rng = np.random.default_rng(seed)
    feats = rng.uniform(0.0, 2.0, size=(8, 1))
    targs = feats[:, 0] + rng.normal(0.0, 0.2, size=8)
    cfg = SamplingConfig(n_total=8, n_train=4, batch_size=2, n_iters=10, learning_rate=0.1, seed=seed)
    traj = train(cfg, spec, Dataset(features=feats, targets=targs))
    ds = Dataset(features=feats, targets=targs, membership=traj.train_indicator)
    return spec, traj, ds


def test_loss_attack_requires_membership():
    spec, traj, ds = run_small_attack()
    bare = Dataset(features=ds.features, targets=ds.targets)
    with pytest.raises(ConfigurationError, match="membership"):
        loss_attack(spec, traj.final_params, bare)


def test_loss_attack_shapes_and_success_definition():
    spec, traj, ds = run_small_attack()
    res = loss_attack(spec, traj.final_params, ds)
    assert res.per_example_score.shape == (8,)
    assert set(np.unique(res.per_example_success)) <= {0, 1}
    predicted = res.per_example_score >= res.threshold
    assert np.array_equal(res.per_example_success, (predicted == ds.membership.astype(bool)).astype(np.uint8))
    assert 0.0 <= res.auc <= 1.0


def test_loss_attack_perfectly_separable_scores():
    # members fit exactly, non-members sit far off the line: the oracle
    # threshold then classifies everyone correctly
    spec = ModelSpec(kind=ModelKind.LINEAR2D, input_dim=1)
    feats = np.array([[0.0], [1.0], [2.0], [3.0]])
    targs = np.array([0.0, 1.0, 12.0, 13.0])
    member = np.array([1, 1, 0, 0], dtype=np.uint8)
    ds = Dataset(features=feats, targets=targs, membership=member)
    params = np.array([1.0, 0.0])  # zero loss on the two members
    res = loss_attack(spec, params, ds)
    assert res.auc == 1.0
    assert np.all(res.per_example_success == 1)


def _threshold_by_scan(scores, labels):
    """The oracle threshold by one pass over the labels per candidate, as first written."""
    labels = np.asarray(labels, dtype=bool)
    n_pos = labels.sum()
    n_neg = labels.size - n_pos
    best_tau, best_bacc = np.inf, -1.0
    for tau in np.concatenate([[np.inf], np.unique(scores)[::-1]]):
        pred = scores >= tau
        bacc = 0.5 * ((pred & labels).sum() / n_pos + (~pred & ~labels).sum() / n_neg)
        if bacc > best_bacc:
            best_bacc, best_tau = bacc, tau
    return float(best_tau)


def _threshold_cases():
    rng = np.random.default_rng(21)
    for k in range(40):
        n = int(rng.integers(2, 60))
        # Few distinct values, so ties within and across the two groups.
        scores = rng.integers(0, int(rng.integers(1, 8)), size=n) * 0.25 - 1.0
        if k % 3 == 0:
            scores = rng.normal(size=n)
        if k % 5 == 1:
            scores[int(rng.integers(n))] = np.nan
        if k % 7 == 2:
            scores[int(rng.integers(n))] = np.inf
        yield scores, rng.integers(0, 2, size=n).astype(bool)
    yield np.full(6, 0.5), np.array([1, 0, 1, 0, 0, 1], dtype=bool)  # all equal
    yield np.array([np.nan, 1.0, 2.0, np.nan]), np.array([1, 1, 0, 0], dtype=bool)
    yield np.array([3.0, 1.0, 3.0, 2.0]), np.array([1, 0, 1, 1], dtype=bool)


def test_oracle_threshold_equals_the_candidate_scan():
    for scores, labels in _threshold_cases():
        if labels.all() or not labels.any():
            continue
        assert _oracle_threshold(scores, labels) == _threshold_by_scan(scores, labels), (scores, labels)


def test_oracle_threshold_without_both_labels_predicts_nobody():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # 0 / 0 balanced accuracies
        for labels in (np.ones(4, dtype=bool), np.zeros(4, dtype=bool)):
            scores = np.array([0.1, 0.4, 0.4, 2.0])
            assert _oracle_threshold(scores, labels) == _threshold_by_scan(scores, labels) == np.inf


# success-vs-uniqueness curve ------------------------------------------------------


def test_curve_bin_counts_cover_everyone():
    gnq = np.array([0.0, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    success = np.array([0, 1, 0, 0, 1, 1, 1, 1])
    curve = success_vs_gnq(fake_attack(success), fake_record(gnq), 3)
    assert curve.zero_count == 2
    assert curve.bin_counts.sum() == 6
    assert curve.zero_count + curve.bin_counts.sum() == 8
    assert curve.zero_mean_success == pytest.approx(0.5)


def test_curve_max_value_lands_in_last_bin():
    gnq = np.array([1.0, 2.0, 4.0, 8.0])
    curve = success_vs_gnq(fake_attack([0, 0, 1, 1]), fake_record(gnq), 2)
    assert curve.bin_counts[-1] >= 1
    assert curve.bin_counts.sum() == 4


def test_curve_spearman_tracks_median_split():
    gnq = np.linspace(0.1, 10.0, 40)
    success = (gnq > np.median(gnq)).astype(int)
    curve = success_vs_gnq(fake_attack(success), fake_record(gnq), 4)
    assert curve.spearman > 0.8


def test_curve_spearman_negative_for_anti_correlation():
    gnq = np.linspace(0.1, 10.0, 40)
    success = (gnq < np.median(gnq)).astype(int)
    curve = success_vs_gnq(fake_attack(success), fake_record(gnq), 4)
    assert curve.spearman < -0.8


def test_curve_degenerate_uniqueness_rejected():
    with pytest.raises(ConfigurationError, match="degenerate"):
        success_vs_gnq(fake_attack([0, 1, 0]), fake_record([2.0, 2.0, 2.0]), 2)


def test_curve_too_few_bins_rejected():
    with pytest.raises(ConfigurationError, match="n_bins"):
        success_vs_gnq(fake_attack([0, 1]), fake_record([1.0, 2.0]), 1)


def test_curve_shape_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        success_vs_gnq(fake_attack([0, 1, 0]), fake_record([1.0, 2.0]), 2)


# ranks and Spearman against scipy.stats -------------------------------------------

# A few repeated values make ties common; n = 2 and constant lists come up too.
_values = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(-1e6, 1e6))
_columns = st.lists(_values, min_size=2, max_size=30)


def _bits(value):
    return np.float64(value).tobytes()


@settings(deadline=None, max_examples=200)
@given(st.lists(st.one_of(_values, st.floats()), min_size=1, max_size=30))
@example([2.0, 1.0])
@example([1.0, 1.0, 1.0])
@example([0.5, float("nan"), 0.5])
def test_rankdata_matches_scipy_bit_for_bit(vals):
    x = np.asarray(vals)
    expected = stats.rankdata(x)
    got = rankdata(x)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def _scipy_spearman(x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on a constant input
        return stats.spearmanr(x, y).statistic


_pairs = _columns.flatmap(
    lambda x: st.tuples(st.just(x), st.lists(_values, min_size=len(x), max_size=len(x)))
)


@settings(deadline=None, max_examples=200)
@given(_pairs)
@example(([1.0, 2.0], [0.0, 1.0]))
@example(([1.0, 2.0, 2.0], [1.0, 1.0, 1.0]))
@example(([1.0, float("nan"), 2.0], [0.0, 1.0, 1.0]))
def test_spearman_matches_scipy_bit_for_bit(pair):
    x, y = (np.asarray(col) for col in pair)
    assert _bits(spearman(x, y)) == _bits(_scipy_spearman(x, y))


@settings(deadline=None, max_examples=100)
@given(
    st.lists(st.one_of(st.sampled_from([0.0, 0.25, 1.0, 4.0]), st.floats(1e-6, 1e6)), min_size=2, max_size=30),
    st.integers(0, 2**32 - 1),
)
@example([1.0, 4.0], 0)
@example([0.0, 1.0, 1.0, 4.0], 1)
# One positive value: geomspace(13, 13, 3) rounds its middle edge below 13.
@example([0.0, 13.0], 0)
@example([0.0, 13.0, 13.0], 0)
def test_curve_spearman_matches_scipy_bit_for_bit(gnq, seed):
    gnq = np.asarray(gnq)
    assume(np.unique(gnq).size >= 2)
    success = np.random.default_rng(seed).integers(0, 2, size=gnq.size)
    rho = _scipy_spearman(gnq, success.astype(np.float64))
    curve = success_vs_gnq(fake_attack(success), fake_record(gnq), 2)
    assert _bits(curve.spearman) == _bits(rho if np.isfinite(rho) else 0.0)
