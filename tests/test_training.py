"""Trainer and audit loop: updates, replay, cadences, persistence."""

import json
import tracemalloc

import numpy as np
import pytest

from gnqaudit import (
    CapacityError,
    ConfigurationError,
    Dataset,
    DivergenceError,
    GramMode,
    ModelKind,
    ModelSpec,
    SamplingConfig,
    SamplingScheme,
    GradientSet,
    diagonal_scores,
    gnq_exact,
    gradient_all,
    load_trajectory,
    loo_scores,
    loss_all,
    make_blobs,
    make_linear_dataset,
    save_trajectory,
    train,
)
from gnqaudit.reports import audit_report
from gnqaudit.sampling import batch_indices, train_indicator
from gnqaudit.training import AuditCadence, TrainingTrajectory, audit, audited_iterations

LIN = ModelSpec(kind=ModelKind.LINEAR2D, input_dim=1)


def lin_data(n, seed=2, noise=0.1):
    return make_linear_dataset(n, slope=1.0, intercept=0.0, noise_scale=noise, x_low=0.0, x_high=1.0, seed=seed)


def cfg_of(n, nt, b, iters, lr=0.1, seed=0, scheme=SamplingScheme.WITHOUT_REPLACEMENT):
    return SamplingConfig(n_total=n, n_train=nt, batch_size=b, n_iters=iters, learning_rate=lr, scheme=scheme, seed=seed)


# configuration ------------------------------------------------------------------


def test_zero_learning_rate_rejected():
    with pytest.raises(ConfigurationError, match="learning_rate"):
        cfg_of(4, 2, 1, 2, lr=0.0)


def test_negative_learning_rate_rejected():
    with pytest.raises(ConfigurationError):
        cfg_of(4, 2, 1, 2, lr=-0.5)


# single-step arithmetic ---------------------------------------------------------


def test_single_example_update_is_one_gradient_step():
    ds = Dataset(features=np.array([[1.0]]), targets=np.array([1.0]))
    traj = train(cfg_of(1, 1, 1, 1, lr=0.5, seed=3), LIN, ds)
    # residual at zero params is -1, gradient is -(x, 1), so the step adds lr*(1, 1)
    assert np.allclose(traj.params_per_iter[0], 0.0)
    assert np.allclose(traj.params_per_iter[1], [0.5, 0.5])


def test_replay_from_batch_log_reproduces_every_step():
    ds = lin_data(6)
    cfg = cfg_of(6, 3, 2, 5, seed=9)
    traj = train(cfg, LIN, ds)
    for i, idx in enumerate(batch_indices(cfg)):
        g = gradient_all(LIN, traj.params_per_iter[i], ds.features[idx], ds.targets[idx])
        step = traj.params_per_iter[i] - (cfg.learning_rate / cfg.batch_size) * g.sum(axis=0)
        assert np.allclose(step, traj.params_per_iter[i + 1], rtol=1e-12, atol=1e-15)


def test_empty_bernoulli_batch_leaves_params_unchanged():
    ds = lin_data(6)
    traj = train(cfg_of(6, 3, 2, 40, seed=5, scheme=SamplingScheme.INDEPENDENT_BERNOULLI), LIN, ds)
    empties = [i for i, batch in enumerate(batch_indices(traj.cfg)) if batch.size == 0]
    assert empties, "seed chosen to include an empty draw"
    for i in empties:
        assert np.array_equal(traj.params_per_iter[i], traj.params_per_iter[i + 1])


def test_full_batch_convex_loss_never_increases():
    ds = lin_data(8, noise=0.3)
    cfg = cfg_of(8, 8, 8, 60, lr=0.05)
    traj = train(cfg, LIN, ds)
    losses = [loss_all(LIN, p, ds.features, ds.targets).mean() for p in traj.params_per_iter]
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-12)
    assert losses[-1] < losses[0]


def test_membership_only_training_rows_enter_batches():
    ds = lin_data(10)
    traj = train(cfg_of(10, 4, 2, 30, seed=7), LIN, ds)
    t = traj.train_indicator
    assert int(t.sum()) == 4
    for batch in batch_indices(traj.cfg):
        assert np.all(t[batch] == 1)


def test_divergence_error_names_the_iteration():
    ds = make_linear_dataset(4, slope=1.0, intercept=0.0, noise_scale=0.0, x_low=1.0, x_high=4.0, seed=0)
    with pytest.raises(DivergenceError, match=r"iteration \d+"):
        train(cfg_of(4, 4, 4, 200, lr=1e6), LIN, ds)


def test_training_is_deterministic_in_seed():
    ds = lin_data(8)
    a = train(cfg_of(8, 4, 2, 10, seed=21), LIN, ds)
    b = train(cfg_of(8, 4, 2, 10, seed=21), LIN, ds)
    assert all(np.array_equal(x, y) for x, y in zip(a.params_per_iter, b.params_per_iter))


def _blob_run(kind, scheme=SamplingScheme.WITHOUT_REPLACEMENT, batch_size=6, seed=4):
    hidden = 5 if kind is ModelKind.MLP else 0
    spec = ModelSpec(kind=kind, input_dim=3, hidden_dim=hidden, n_classes=2, init="seeded_gaussian")
    ds = make_blobs([20, 20], input_dim=3, center_distance=2.0, spread=1.0, seed=6)
    return spec, ds, cfg_of(40, 20, batch_size, 40, lr=0.5, seed=seed, scheme=scheme)


@pytest.mark.parametrize(
    "run",
    [
        _blob_run(ModelKind.MLP),
        _blob_run(ModelKind.LOGISTIC),
        (LIN, lin_data(12, noise=0.3), cfg_of(12, 8, 3, 40, lr=0.3, seed=2)),
        _blob_run(ModelKind.MLP, SamplingScheme.INDEPENDENT_BERNOULLI, batch_size=1, seed=5),
    ],
    ids=["mlp", "logistic", "linear2d", "mlp-bernoulli-empty-batches"],
)
def test_every_step_is_bitwise_the_row_by_row_batch_sum(run):
    # The step is theta - lr * (sum / B), the sum an axis-0 sum of the batch's
    # gradient rows in ascending index order; summing in any other order
    # moves some bits of some step.
    spec, ds, cfg = run
    traj = train(cfg, spec, ds)
    sizes = []
    for i, rows in enumerate(batch_indices(cfg)):
        sizes.append(rows.size)
        g = gradient_all(spec, traj.params_per_iter[i], ds.features[rows], ds.targets[rows])
        step = traj.params_per_iter[i] - cfg.learning_rate * (g.sum(axis=0) / cfg.batch_size)
        assert np.array_equal(traj.params_per_iter[i + 1], step), i
    if cfg.scheme is SamplingScheme.INDEPENDENT_BERNOULLI:
        assert 0 in sizes, "seed chosen to include an empty batch"
    assert max(sizes) > 2


def test_mlp_divergence_error_names_the_iteration():
    spec, ds, cfg = _blob_run(ModelKind.MLP)
    with pytest.raises(DivergenceError) as caught:
        train(cfg_of(40, 20, 6, 40, lr=1e308, seed=4), spec, ds)
    assert isinstance(caught.value.iteration, int)
    assert str(caught.value).endswith(f"at iteration {caught.value.iteration}")


def test_overflowing_batch_sum_is_a_gradient_divergence():
    # Each row's gradient is finite; their sum is not.
    ds = Dataset(features=np.array([[1.0], [1.0]]), targets=np.array([1e308, 1e308]))
    with pytest.raises(DivergenceError, match="non-finite gradient at iteration 0") as caught:
        train(cfg_of(2, 2, 2, 3, lr=0.1), LIN, ds)
    assert caught.value.iteration == 0


def test_bad_label_outside_the_training_set_is_rejected_before_any_step(monkeypatch):
    spec, ds, cfg = _blob_run(ModelKind.MLP)
    outside = int(np.flatnonzero(train_indicator(cfg) == 0)[0])
    targets = ds.targets.copy()
    targets[outside] = 2
    bad = Dataset(features=ds.features, targets=targets)
    steps = []
    monkeypatch.setattr("gnqaudit.training._gradients", lambda *args: steps.append(args))
    with pytest.raises(ConfigurationError, match="class labels"):
        train(cfg, spec, bad)
    assert steps == []
    monkeypatch.undo()
    # audit scores every pool row and rejects the same pool.
    with pytest.raises(ConfigurationError, match="class labels"):
        audit(train(cfg, spec, ds), bad, mode=GramMode.DIAGONAL)


# cadences ------------------------------------------------------------------------


def test_cadence_every_iteration_visits_pre_update_states():
    cfg = cfg_of(6, 3, 2, 7)
    assert audited_iterations(cfg, AuditCadence.EVERY_ITERATION) == tuple(range(7))


def test_cadence_final_only():
    cfg = cfg_of(6, 3, 2, 7)
    assert audited_iterations(cfg, AuditCadence.FINAL_ONLY) == (7,)


def test_cadence_epoch_marks_multiples_of_epoch_length():
    cfg = cfg_of(12, 6, 2, 7)  # epoch = 3 iterations
    assert audited_iterations(cfg, AuditCadence.EVERY_EPOCH) == (3, 6, 7)


def test_every_iteration_scores_all_examples_each_step():
    ds = lin_data(5)
    traj = train(cfg_of(5, 3, 2, 3, seed=1), LIN, ds)
    rec = audit(traj, ds, cadence=AuditCadence.EVERY_ITERATION)
    assert rec.values.shape == rec.range_ok.shape == (3, 5)
    assert rec.n_examples == 5


def test_cumulative_gnq_is_the_sum_over_audited_iterations():
    ds = lin_data(6)
    traj = train(cfg_of(6, 3, 2, 9, seed=4), LIN, ds)
    rec = audit(traj, ds, cadence=AuditCadence.EVERY_EPOCH)
    for j in range(6):
        total = sum(rec.values[:, j].tolist())
        assert rec.cumulative_gnq[j] == pytest.approx(total, rel=1e-12, abs=1e-15)


def test_leakage_bound_totals_grow_with_audited_prefix():
    ds = lin_data(6)
    traj = train(cfg_of(6, 3, 2, 9, seed=4), LIN, ds)
    final, every = (
        audit_report(audit(traj, ds, cadence=cadence), traj.cfg, {})["per_example"]
        for cadence in (AuditCadence.FINAL_ONLY, AuditCadence.EVERY_EPOCH)
    )
    for j in range(6):
        assert every[j]["total_bits"] >= final[j]["total_bits"] - 1e-12
        assert every[j]["total_bits"] >= 0.0


def test_duplicated_examples_get_equal_scores():
    feats = np.array([[0.5], [0.5], [1.5], [2.0]])
    targs = np.array([0.7, 0.7, 1.4, 2.2])
    ds = Dataset(features=feats, targets=targs)
    traj = train(cfg_of(4, 4, 4, 6, lr=0.05, seed=2), LIN, ds)
    rec = audit(traj, ds, cadence=AuditCadence.EVERY_EPOCH)
    for a, b in rec.values[:, :2]:
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


def test_audit_record_carries_mode_and_tolerance():
    ds = lin_data(5)
    traj = train(cfg_of(5, 3, 2, 3, seed=1), LIN, ds)
    rec = audit(traj, ds, mode=GramMode.FULL_EXACT, tol=1e-9)
    assert rec.mode is GramMode.FULL_EXACT
    assert rec.tol == 1e-9


def _small_mlp_run(hidden_dim=3):
    # 23 parameters at hidden width 3, which the pool of 30 spans; 58 at
    # width 8, which it does not.
    spec = ModelSpec(kind=ModelKind.MLP, input_dim=4, hidden_dim=hidden_dim, n_classes=2, init="seeded_gaussian")
    ds = make_blobs([15, 15], input_dim=4, center_distance=2.0, spread=1.0, seed=0)
    return spec, ds, train(cfg_of(30, 20, 5, 8, lr=0.5, seed=1), spec, ds)


def test_audit_record_tallies_fallbacks_per_iteration():
    spec, ds, traj = _small_mlp_run(hidden_dim=8)
    rec = audit(traj, ds, mode=GramMode.FULL_EXACT)
    tally = {}
    assert set(rec.spectra) == set(rec.audited_iterations)
    for it in rec.audited_iterations:
        grads = gradient_all(spec, traj.params_per_iter[it], ds.features, ds.targets)
        _, _, reasons, health = loo_scores(grads, rec.tol)
        assert rec.spectra[it] == health
        for reason in reasons[reasons != ""].tolist():
            counts = tally.setdefault(it, {})
            counts[reason] = counts.get(reason, 0) + 1
        assert rec.spectra[it].fallbacks == tally.get(it, {})
    # 30 rows against 58 parameters: each row leaves the others' span.
    tallied = {it: h.fallbacks for it, h in rec.spectra.items() if h.fallbacks}
    assert tallied == {4: {"crossing": 30}, 8: {"crossing": 30}}


def _reference_scores(grads, mode, j):
    """Example j's score and range flag, computed on its own."""
    if mode is GramMode.DIAGONAL:
        diag = np.sum(grads**2, axis=0)
        seen = diag > 0.0
        return float(np.sum(grads[j, seen] ** 2 / diag[seen])), bool(np.all(grads[j, ~seen] == 0.0))
    return gnq_exact(GradientSet(grads), j)


@pytest.mark.parametrize("mode", list(GramMode))
def test_every_mode_matches_per_example_references(mode):
    spec, ds, traj = _small_mlp_run()
    rec = audit(traj, ds, mode=mode)
    assert rec.values.shape == rec.range_ok.shape == (len(rec.audited_iterations), 30)
    want_values = np.zeros_like(rec.values)
    want_ok = np.zeros_like(rec.range_ok)
    for row, it in enumerate(rec.audited_iterations):
        grads = gradient_all(spec, traj.params_per_iter[it], ds.features, ds.targets)
        for j in range(30):
            want_values[row, j], want_ok[row, j] = _reference_scores(grads, mode, j)
    np.testing.assert_allclose(rec.values, want_values, rtol=1e-8, atol=1e-10)
    assert np.array_equal(rec.range_ok, want_ok)
    flagged = [(it, j) for row, it in enumerate(rec.audited_iterations) for j in range(30) if not want_ok[row, j]]
    assert rec.range_violations == tuple(flagged)
    np.testing.assert_allclose(rec.cumulative_gnq, want_values.sum(axis=0), rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("hidden_dim", [3, 8])
@pytest.mark.parametrize("mode", list(GramMode))
def test_audit_reusing_its_buffers_equals_fresh_gradients(mode, hidden_dim):
    # The audit refills one gradient buffer (and one scratch array) per
    # iteration; recompute each iteration from its own fresh arrays. At width
    # 8 every exact row falls back, so fallbacks and spectra are populated.
    spec = ModelSpec(kind=ModelKind.MLP, input_dim=4, hidden_dim=hidden_dim, n_classes=2, init="seeded_gaussian")
    ds = make_blobs([15, 15], input_dim=4, center_distance=2.0, spread=1.0, seed=0)
    traj = train(cfg_of(30, 20, 5, 12, lr=0.5, seed=1), spec, ds)
    rec = audit(traj, ds, mode=mode, cadence=AuditCadence.EVERY_ITERATION)
    assert len(rec.audited_iterations) == 12
    spectra = {}
    for row, it in enumerate(rec.audited_iterations):
        grads = gradient_all(spec, traj.params_per_iter[it], ds.features, ds.targets)
        if mode is GramMode.FULL_EXACT:
            values, range_ok, reasons, spectra[it] = loo_scores(grads, rec.tol)
            names, counts = np.unique(reasons[reasons != ""], return_counts=True)
            assert spectra[it].fallbacks == dict(zip(names.tolist(), counts.tolist()))
        else:
            values, range_ok = diagonal_scores(grads)
        assert rec.values[row].tobytes() == values.tobytes()
        assert np.array_equal(rec.range_ok[row], range_ok)
    assert rec.spectra == spectra
    if mode is GramMode.FULL_EXACT and hidden_dim == 8:
        assert any(h.fallbacks for h in spectra.values())


def test_capacity_error_in_exact_mode_suggests_diagonal():
    big = ModelSpec(kind=ModelKind.MLP, input_dim=100, hidden_dim=100, n_classes=50, init="seeded_gaussian")
    ds = make_blobs([2, 2], input_dim=100, center_distance=1.0, spread=1.0, seed=0)
    traj = train(cfg_of(4, 2, 1, 1), big, ds)
    with pytest.raises(CapacityError, match="diagonal"):
        audit(traj, ds)


# persistence ---------------------------------------------------------------------


def test_trajectory_round_trip(tmp_path):
    ds = lin_data(6)
    traj = train(cfg_of(6, 3, 2, 5, seed=11), LIN, ds)
    path = tmp_path / "traj.json"
    save_trajectory(path, traj)
    back = load_trajectory(path)
    assert back.cfg == traj.cfg
    assert back.model == traj.model
    assert back.dataset_sha256 == traj.dataset_sha256 == ds.sha256
    assert all(np.array_equal(a, b) for a, b in zip(back.params_per_iter, traj.params_per_iter))
    assert np.array_equal(train_indicator(back.cfg), train_indicator(traj.cfg))
    for a, b in zip(batch_indices(back.cfg), batch_indices(traj.cfg), strict=True):
        assert np.array_equal(a, b)


def test_checkpoint_stores_no_indicators(tmp_path):
    ds = lin_data(6)
    traj = train(cfg_of(6, 3, 2, 5, seed=11), LIN, ds)
    path = tmp_path / "traj.json"
    save_trajectory(path, traj)
    payload = json.loads(path.read_text())
    assert set(payload) == {"format_version", "sampling", "model", "params_per_iter", "dataset_sha256"}
    assert payload["format_version"] == 3


def test_saved_trajectory_bytes_are_stable(tmp_path):
    ds = lin_data(4)
    traj = train(cfg_of(4, 2, 1, 3, seed=6), LIN, ds)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_trajectory(p1, traj)
    save_trajectory(p2, traj)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_write_holds_about_one_row(tmp_path):
    """The (401, 192) parameters are streamed: no document text, no nested list."""
    model = ModelSpec(kind=ModelKind.MLP, input_dim=16, hidden_dim=10, n_classes=2)
    params = np.random.default_rng(0).standard_normal((401, model.n_params))
    traj = TrainingTrajectory(cfg_of(400, 200, 25, 400), model, params, "0" * 64)
    path = tmp_path / "trajectory.json"
    tracemalloc.start()
    try:
        save_trajectory(path, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.n_params == 192
    assert peak < path.stat().st_size / 2


def test_final_params_property():
    ds = lin_data(4)
    traj = train(cfg_of(4, 2, 1, 3, seed=6), LIN, ds)
    assert np.array_equal(traj.final_params, traj.params_per_iter[-1])
