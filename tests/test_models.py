"""Model zoo: losses, analytic gradients, datasets, CSV round-trips."""

import numpy as np
import pytest

from gnqaudit import (
    ConfigurationError,
    GradientSet,
    ModelKind,
    ModelSpec,
    ShapeError,
    gnq_exact,
    gradient_all,
    init_params,
    load_csv_dataset,
    loss,
    loss_all,
    make_blobs,
    make_linear_dataset,
    make_outlier_regression_dataset,
    per_example_gradient,
    predict,
    save_csv_dataset,
)
from oracles import central_diff_gradient

LIN = ModelSpec(kind=ModelKind.LINEAR2D, input_dim=1)
LOG = ModelSpec(kind=ModelKind.LOGISTIC, input_dim=3, n_classes=4)
MLP = ModelSpec(kind=ModelKind.MLP, input_dim=4, hidden_dim=5, n_classes=3)


# spec validation ---------------------------------------------------------------


def test_spec_accepts_enum_values_as_strings():
    spec = ModelSpec(kind="linear2d", input_dim=1, init="zeros")
    assert spec.kind is ModelKind.LINEAR2D


def test_spec_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        ModelSpec(kind=ModelKind.LINEAR2D, input_dim=3)
    with pytest.raises(ConfigurationError):
        ModelSpec(kind=ModelKind.LOGISTIC, input_dim=2, n_classes=1)
    with pytest.raises(ConfigurationError):
        ModelSpec(kind=ModelKind.MLP, input_dim=2, hidden_dim=0, n_classes=2)


def test_param_counts():
    assert LIN.n_params == 2
    assert LOG.n_params == 4 * (3 + 1)
    assert MLP.n_params == 5 * (4 + 1) + 3 * (5 + 1)


# losses -------------------------------------------------------------------------


def test_linear_loss_perfect_fit():
    assert loss(LIN, np.array([1.0, 0.0]), np.array([2.0]), 2.0) == 0.0


def test_linear_loss_half_square():
    assert loss(LIN, np.array([0.0, 0.0]), np.array([1.0]), 2.0) == pytest.approx(2.0)


def test_logistic_uniform_loss_is_log_n_classes():
    got = loss(LOG, np.zeros(LOG.n_params), np.array([0.3, -1.2, 0.7]), 2)
    assert got == pytest.approx(np.log(4.0), rel=1e-12)


def test_losses_nonnegative():
    rng = np.random.default_rng(1)
    for spec in (LIN, LOG, MLP):
        for _ in range(20):
            params = rng.normal(size=spec.n_params)
            x = rng.normal(size=spec.input_dim)
            y = 0.7 if spec is LIN else int(rng.integers(spec.n_classes))
            assert loss(spec, params, x, y) >= 0.0


def test_loss_all_matches_scalar_loss():
    rng = np.random.default_rng(2)
    params = rng.normal(size=MLP.n_params)
    feats = rng.normal(size=(6, 4))
    targs = rng.integers(3, size=6)
    vec = loss_all(MLP, params, feats, targs)
    for i in range(6):
        assert vec[i] == pytest.approx(loss(MLP, params, feats[i], int(targs[i])), rel=1e-12)


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        loss(LIN, np.zeros(3), np.array([1.0]), 0.0)


# gradients ----------------------------------------------------------------------


def test_linear_gradient_zero_residual():
    g = per_example_gradient(LIN, np.array([1.0, 0.0]), np.array([3.0]), 3.0)
    assert np.allclose(g, 0.0)


def test_linear_gradient_unit_residual():
    g = per_example_gradient(LIN, np.array([0.0, 0.0]), np.array([1.0]), 1.0)
    assert np.allclose(g, [-1.0, -1.0])


@pytest.mark.parametrize("spec", [LIN, LOG, MLP], ids=["linear2d", "logistic", "mlp"])
def test_gradients_match_finite_differences(spec):
    rng = np.random.default_rng(7)
    for _ in range(25):
        params = rng.normal(scale=0.8, size=spec.n_params)
        x = rng.normal(size=spec.input_dim)
        y = float(rng.normal()) if spec is LIN else int(rng.integers(spec.n_classes))
        analytic = per_example_gradient(spec, params, x, y)
        numeric = central_diff_gradient(lambda p: loss(spec, p, x, y), params)
        scale = max(float(np.linalg.norm(numeric)), 1.0)
        assert np.linalg.norm(analytic - numeric) <= 1e-5 * scale


def test_gradient_all_matches_per_example():
    rng = np.random.default_rng(9)
    params = rng.normal(size=MLP.n_params)
    feats = rng.normal(size=(5, 4))
    targs = rng.integers(3, size=5)
    mat = gradient_all(MLP, params, feats, targs)
    for i in range(5):
        row = per_example_gradient(MLP, params, feats[i], int(targs[i]))
        assert np.allclose(mat[i], row, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("spec", [LIN, LOG, MLP], ids=lambda s: s.kind.value)
def test_gradient_all_into_a_buffer_is_bitwise_the_fresh_array(spec):
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(7, spec.input_dim))
    targs = rng.normal(size=7) if spec is LIN else rng.integers(spec.n_classes, size=7)
    buf = np.full((7, spec.n_params), np.nan)
    for _ in range(3):  # stale contents from the previous parameters must not leak
        params = rng.normal(size=spec.n_params)
        fresh = gradient_all(spec, params, feats, targs)
        assert gradient_all(spec, params, feats, targs, out=buf) is buf
        assert buf.tobytes() == fresh.tobytes()


@pytest.mark.parametrize(
    "out",
    [np.empty((7, MLP.n_params + 1)), np.empty((7, MLP.n_params), dtype=np.float32),
     np.empty((MLP.n_params, 7)).T],
    ids=["shape", "dtype", "fortran"],
)
def test_gradient_all_rejects_an_unfit_buffer(out):
    feats = np.zeros((7, MLP.input_dim))
    with pytest.raises(ShapeError, match="out must be"):
        gradient_all(MLP, np.zeros(MLP.n_params), feats, np.zeros(7, dtype=int), out=out)


# init ----------------------------------------------------------------------------


def test_zeros_init():
    assert np.all(init_params(LIN, seed=0) == 0.0)


def test_seeded_init_reproducible():
    spec = ModelSpec(kind=ModelKind.MLP, input_dim=4, hidden_dim=5, n_classes=3, init="seeded_gaussian", init_scale=0.2)
    a = init_params(spec, seed=12)
    b = init_params(spec, seed=12)
    c = init_params(spec, seed=13)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_nonpositive_init_scale_rejected():
    with pytest.raises(ConfigurationError):
        ModelSpec(kind=ModelKind.LINEAR2D, input_dim=1, init="seeded_gaussian", init_scale=0.0)


# the seven-point outlier dataset ---------------------------------------------------


def test_outlier_dataset_shape():
    ds = make_outlier_regression_dataset()
    assert len(ds) == 7
    assert ds.input_dim == 1


def test_outlier_attains_strict_max_gnq_at_inlier_fit():
    ds = make_outlier_regression_dataset()
    x6 = np.column_stack([ds.features[:6, 0], np.ones(6)])
    coef6, *_ = np.linalg.lstsq(x6, ds.targets[:6], rcond=None)
    grads = gradient_all(LIN, coef6, ds.features, ds.targets)
    scores = [gnq_exact(GradientSet(grads), j)[0] for j in range(7)]
    assert int(np.argmax(scores)) == 6
    assert scores[6] > max(scores[:6])


def test_outlier_rotates_fit_away_from_trend():
    # At the six-point fit the inliers' gradients cancel exactly (that is
    # what least squares means); the outlier's pull is what remains, and it
    # rotates the full fit clockwise off the y = x trend. Refitting without
    # the outlier rotates back.
    ds = make_outlier_regression_dataset()
    x6 = np.column_stack([ds.features[:6, 0], np.ones(6)])
    coef6, *_ = np.linalg.lstsq(x6, ds.targets[:6], rcond=None)
    x7 = np.column_stack([ds.features[:, 0], np.ones(7)])
    coef7, *_ = np.linalg.lstsq(x7, ds.targets, rcond=None)
    grads = gradient_all(LIN, coef6, ds.features, ds.targets)
    assert np.linalg.norm(grads[:6].sum(axis=0)) < 1e-8
    assert np.linalg.norm(grads[6]) > 1.0
    assert abs(coef6[0] - 1.0) < 0.05
    assert coef7[0] < coef6[0] - 0.5


# synthetic generators ----------------------------------------------------------------


def test_blobs_counts_and_determinism():
    a = make_blobs([30, 20], input_dim=3, center_distance=2.0, spread=1.0, seed=4)
    b = make_blobs([30, 20], input_dim=3, center_distance=2.0, spread=1.0, seed=4)
    assert len(a) == 50
    assert a.features.shape == (50, 3)
    assert sorted(np.unique(a.targets)) == [0, 1]
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)


def test_blobs_validation():
    with pytest.raises(ConfigurationError):
        make_blobs([10], input_dim=2, center_distance=1.0, spread=1.0, seed=0)


def test_linear_dataset_shape():
    ds = make_linear_dataset(25, slope=2.0, intercept=-1.0, noise_scale=0.0, x_low=0.0, x_high=1.0, seed=0)
    assert len(ds) == 25
    assert np.allclose(ds.targets, 2.0 * ds.features[:, 0] - 1.0)


# CSV round-trip -----------------------------------------------------------------------


def test_csv_round_trip_identical(tmp_path):
    ds = make_blobs([500, 500], input_dim=4, center_distance=1.5, spread=2.0, seed=8)
    path = tmp_path / "blob.csv"
    save_csv_dataset(path, ds)
    back = load_csv_dataset(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.targets, ds.targets)
    # a second write is byte-identical
    path2 = tmp_path / "blob2.csv"
    save_csv_dataset(path2, ds)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_small_file(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x_0,x_1,target\n1.0,2.0,0\n3.0,4.0,1\n0.5,0.5,0\n")
    ds = load_csv_dataset(p)
    assert len(ds) == 3
    assert ds.input_dim == 2


def test_csv_ragged_row_names_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x_0,target\n1.0,0\n2.0\n")
    with pytest.raises(ConfigurationError, match="3"):
        load_csv_dataset(p)


def test_csv_non_numeric_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x_0,target\n1.0,zero\n")
    with pytest.raises(ConfigurationError):
        load_csv_dataset(p)


def test_csv_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        load_csv_dataset(tmp_path / "absent.csv")


def test_csv_missing_target_column(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x_0,label\n1.0,0\n")
    with pytest.raises(ConfigurationError):
        load_csv_dataset(p)


# predictions ---------------------------------------------------------------------------


def test_predict_shapes():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(8, 4))
    out = predict(MLP, rng.normal(size=MLP.n_params), feats)
    assert out.shape[0] == 8
