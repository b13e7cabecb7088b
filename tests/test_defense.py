"""Rank-and-remove defense: ranking, removal bookkeeping, determinism."""

import dataclasses
import math

import numpy as np
import pytest

from gnqaudit import (
    ConfigurationError,
    GramMode,
    ModelKind,
    ModelSpec,
    SamplingConfig,
    make_blobs,
    train,
)
from gnqaudit.bounds import fano_error_bound
from gnqaudit.defense import rank_examples, run_defense, run_defense_sweep, split_pool
from gnqaudit.training import AuditCadence, AuditRecord, audit

SPEC = ModelSpec(kind=ModelKind.LOGISTIC, input_dim=4, n_classes=2)


def small_setup(seed=3):
    ds = make_blobs([40, 40], input_dim=4, center_distance=2.0, spread=2.0, seed=7)
    cfg = SamplingConfig(n_total=60, n_train=30, batch_size=10, n_iters=12, learning_rate=0.5, seed=seed)
    return cfg, ds


def fake_record(gnq):
    return AuditRecord(
        mode=GramMode.FULL_EXACT,
        cadence=AuditCadence.FINAL_ONLY,
        audited_iterations=(1,),
        values=np.asarray([gnq], dtype=np.float64),
        range_ok=np.ones((1, len(gnq)), dtype=bool),
        cumulative_gnq=np.asarray(gnq, dtype=np.float64),
        prior_entropy_bits=1.0,
        per_iteration_bits=np.zeros((1, len(gnq))),
        total_bits=np.zeros(len(gnq)),
        fano=fano_error_bound(1.0, np.zeros(len(gnq))),
        tol=1e-10,
    )


def reports_equal(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


# ranking --------------------------------------------------------------------------


def test_rank_descending_by_uniqueness():
    assert rank_examples(fake_record([0.1, 0.9, 0.5])).tolist() == [1, 2, 0]


def test_rank_ties_keep_index_order():
    assert rank_examples(fake_record([2.0, 2.0, 2.0])).tolist() == [0, 1, 2]


def test_rank_is_a_permutation():
    rng = np.random.default_rng(0)
    gnq = rng.exponential(size=17)
    order = rank_examples(fake_record(gnq))
    assert sorted(order.tolist()) == list(range(17))
    assert np.all(np.diff(gnq[order]) <= 0)


# pool split -----------------------------------------------------------------------


def test_split_pool_sizes_and_disjointness():
    cfg, ds = small_setup()
    pool, held = split_pool(ds, cfg)
    assert len(pool) == 60
    assert len(held) == 20
    rows = np.vstack([pool.features, held.features])
    assert np.array_equal(
        np.sort(rows.ravel()), np.sort(ds.features.ravel())
    )


def test_split_pool_needs_held_out_rows():
    cfg, ds = small_setup()
    exact = ds.subset(np.arange(60))
    with pytest.raises(ConfigurationError, match="held-out"):
        split_pool(exact, cfg)


def test_split_pool_deterministic():
    cfg, ds = small_setup()
    a, _ = split_pool(ds, cfg)
    b, _ = split_pool(ds, cfg)
    assert np.array_equal(a.features, b.features)


# removal bookkeeping ----------------------------------------------------------------


def test_zero_removal_reproduces_baseline():
    cfg, ds = small_setup()
    rep = run_defense(cfg, SPEC, ds, 0.0)
    assert rep.removed_ids == ()
    assert rep.auc_before == rep.auc_after
    assert rep.test_accuracy_before == rep.test_accuracy_after
    assert rep.n_train_after == cfg.n_train


def test_removed_count_is_ceil_of_fraction():
    cfg, ds = small_setup()
    for p in (0.05, 0.10, 0.25):
        rep = run_defense(cfg, SPEC, ds, p)
        assert len(rep.removed_ids) == math.ceil(p * cfg.n_total)


def test_removed_ids_are_the_top_ranked_baseline_examples():
    cfg, ds = small_setup()
    rep = run_defense(cfg, SPEC, ds, 0.10)
    pool, _ = split_pool(ds, cfg)
    traj = train(cfg, SPEC, pool)
    record = audit(traj, pool)
    expected = rank_examples(record)[: len(rep.removed_ids)]
    assert list(rep.removed_ids) == expected.tolist()


def test_retrain_population_arithmetic():
    cfg, ds = small_setup()
    rep = run_defense(cfg, SPEC, ds, 0.10)
    k = len(rep.removed_ids)
    assert rep.n_train_after == round(cfg.n_train * (cfg.n_total - k) / cfg.n_total)


def test_defense_deterministic_across_reruns():
    cfg, ds = small_setup()
    a = run_defense(cfg, SPEC, ds, 0.10)
    b = run_defense(cfg, SPEC, ds, 0.10)
    assert reports_equal(a, b)


def test_fraction_validation():
    cfg, ds = small_setup()
    with pytest.raises(ConfigurationError, match="fraction"):
        run_defense(cfg, SPEC, ds, 1.0)
    with pytest.raises(ConfigurationError, match="fraction"):
        run_defense(cfg, SPEC, ds, -0.1)


def test_removal_cannot_starve_the_batch():
    ds = make_blobs([15, 15], input_dim=4, center_distance=2.0, spread=2.0, seed=7)
    cfg = SamplingConfig(n_total=20, n_train=10, batch_size=10, n_iters=5, learning_rate=0.5, seed=1)
    with pytest.raises(ConfigurationError, match="batch_size"):
        run_defense(cfg, SPEC, ds, 0.5)


# sweep -------------------------------------------------------------------------------


def test_sweep_runs_each_fraction():
    cfg, ds = small_setup()
    reps = run_defense_sweep(cfg, SPEC, ds, [0.0, 0.10])
    assert [r.removed_fraction for r in reps] == [0.0, 0.10]
    single = run_defense(cfg, SPEC, ds, 0.10)
    assert reports_equal(reps[1], single)


def test_sweep_trains_and_audits_the_baseline_once(monkeypatch):
    pool_sizes = []
    audited_sizes = []

    def counting_train(cfg, *args):
        pool_sizes.append(cfg.n_total)
        return train(cfg, *args)

    def counting_audit(traj, data, **kwargs):
        audited_sizes.append(len(data))
        return audit(traj, data, **kwargs)

    monkeypatch.setattr("gnqaudit.defense.train", counting_train)
    monkeypatch.setattr("gnqaudit.defense.audit", counting_audit)
    cfg, ds = small_setup()
    run_defense_sweep(cfg, SPEC, ds, [0.01, 0.05, 0.10])
    # The 60-row baseline once, then one retrain per fraction: 4 runs, not 6.
    assert pool_sizes == [60, 59, 57, 54]
    # Only the baseline is audited: the ranking is all the scores are for.
    assert audited_sizes == [60]


def test_sweep_rejects_empty():
    cfg, ds = small_setup()
    with pytest.raises(ConfigurationError):
        run_defense_sweep(cfg, SPEC, ds, [])
