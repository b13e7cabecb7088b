"""Uniqueness scores: the gnq_exact reference, loo_scores, diagonal_scores; pdet machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gnqaudit import (
    ConfigurationError,
    GradientSet,
    InsufficientDataError,
    ShapeError,
    diagonal_scores,
    gnq_exact,
    loo_scores,
    make_blobs,
    pdet_rank_one,
)
from gnqaudit.geometry import FallbackReason, downdate_guard, pdet_and_rank
from gnqaudit.defense import split_pool
from gnqaudit.models import ModelSpec, gradient_all, init_params
from gnqaudit.sampling import SamplingConfig, batch_indices
from gnqaudit.training import train
from oracles import ref_gnq, ref_in_range, ref_kept_count, ref_pdet

CROSSING = FallbackReason.CROSSING.value
OUT_OF_RANGE = FallbackReason.OUT_OF_RANGE.value
CANCELLATION = FallbackReason.CANCELLATION.value


def gs(rows):
    return GradientSet(np.asarray(rows, dtype=float))


def loo(rows, tol=1e-10):
    """loo_scores without the spectrum health."""
    return loo_scores(np.asarray(rows, dtype=float), tol)[:3]


# gnq_exact --------------------------------------------------------------------


def test_identity_gram():
    value, range_ok = gnq_exact(gs([(1, 0), (0, 1), (1, 0)]), 2)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert range_ok


def test_quadratic_scaling():
    value, _ = gnq_exact(gs([(1, 0), (0, 1), (2, 0)]), 2)
    assert value == pytest.approx(4.0, abs=1e-12)


def test_out_of_span_flagged_zero():
    # S = diag(2, 0) and g_3 = (0, 1): orthogonal to range(S).
    value, range_ok = gnq_exact(gs([(1, 0), (1, 0), (0, 1)]), 2)
    assert value == 0.0
    assert not range_ok


def test_all_zero_others():
    value, range_ok = gnq_exact(gs([(0.0, 0.0), (1.0, 2.0)]), 1)
    assert value == 0.0
    assert not range_ok


def test_single_example_rejected():
    with pytest.raises(InsufficientDataError):
        gnq_exact(gs([(1.0, 0.0)]), 0)


def test_bad_index_and_tol_rejected():
    with pytest.raises(ConfigurationError):
        gnq_exact(gs([(1, 0), (0, 1)]), 5)
    with pytest.raises(ConfigurationError):
        gnq_exact(gs([(1, 0), (0, 1)]), 0, tol=0.0)


def test_matches_pinv_reference():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        d = int(rng.integers(1, 8))
        g = rng.normal(size=(n, d))
        j = int(rng.integers(n))
        value, range_ok = gnq_exact(gs(g), j)
        assert value == pytest.approx(ref_gnq(g, j), rel=1e-9, abs=1e-12)
        assert range_ok == ref_in_range(g, j)


@given(
    g=hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 7), st.integers(1, 5)),
        elements=st.floats(-10, 10, allow_nan=False),
    )
)
@settings(max_examples=120, deadline=None)
def test_nonnegative(g):
    for j in range(g.shape[0]):
        assert gnq_exact(gs(g), j)[0] >= 0.0


@given(
    g=hnp.arrays(
        np.float64,
        st.tuples(st.integers(3, 7), st.integers(2, 5)),
        elements=st.floats(-4, 4, allow_nan=False).filter(lambda x: abs(x) > 1e-3),
    ),
    c=st.floats(0.25, 4.0),
)
@settings(max_examples=80, deadline=None)
def test_scale_law(g, c):
    base, _ = gnq_exact(gs(g), 0)
    scaled = g.copy()
    scaled[0] *= c
    got, _ = gnq_exact(gs(scaled), 0)
    assert got == pytest.approx(c * c * base, rel=1e-8, abs=1e-10)


def test_rotation_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = rng.normal(size=(6, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        rotated = g @ q.T
        for j in range(6):
            a, _ = gnq_exact(gs(g), j)
            b, _ = gnq_exact(gs(rotated), j)
            assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


def test_duplicate_group_value():
    # k identical rows: each one's leave-one-out span keeps the direction,
    # GNQ = 1/(k-1) along it.
    for k in (2, 3, 5):
        g = np.tile([(2.0, 1.0)], (k, 1))
        value, _ = gnq_exact(gs(g), 0)
        assert value == pytest.approx(1.0 / (k - 1), rel=1e-10)


# loo_scores ---------------------------------------------------------------


def test_all_orthogonal_out_of_span():
    values, range_ok, _ = loo(np.eye(3))
    assert np.all(values == 0.0)
    assert not range_ok.any()


def test_downdate_simple_value():
    values, range_ok, _ = loo([(1, 0), (0, 1), (1, 1)])
    assert values[2] == pytest.approx(2.0, rel=1e-10)
    assert range_ok[2]


def test_downdate_consistency_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = rng.normal(size=(8, 5))
        values, range_ok, _ = loo(g)
        for j in range(8):
            slow_value, slow_ok = gnq_exact(gs(g), j)
            assert values[j] == pytest.approx(slow_value, rel=1e-8, abs=1e-10)
            assert range_ok[j] == slow_ok


def test_downdate_consistency_rank_deficient():
    # d > n forces every leave-one-out matrix to lose rank: all rows take
    # the recompute path.
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = rng.normal(size=(5, 9))
        values, range_ok, _ = loo(g)
        for j in range(5):
            slow_value, slow_ok = gnq_exact(gs(g), j)
            assert values[j] == pytest.approx(slow_value, rel=1e-8, abs=1e-10)
            assert range_ok[j] == slow_ok


def _mlp_gradients():
    # Two-class softmax: p_0 + p_1 = 1 makes the two output units' gradients
    # cancel, leaving an 11-dimensional null space of S (rank 181 of 192)
    # that only rounding fills.
    spec = ModelSpec(
        kind="mlp", input_dim=16, hidden_dim=10, n_classes=2, init="seeded_gaussian", init_scale=0.1
    )
    ds = make_blobs([100, 100], 16, center_distance=2.5, spread=1.75, seed=0)
    return gradient_all(spec, init_params(spec, 0), ds.features, ds.targets)


def _count_eigh(monkeypatch):
    calls = []
    real = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_rounding_filled_null_space_takes_no_fallback(monkeypatch):
    g = _mlp_gradients()
    w = np.linalg.eigvalsh(g.T @ g)
    assert int(np.sum(w > 1e-10 * w[-1])) == 181
    calls = _count_eigh(monkeypatch)
    values, range_ok, reasons, health = loo_scores(g, 1e-10)
    assert len(calls) == 1
    assert np.all(reasons == "") and range_ok.all()
    # A clean cut with every f(c) >= 0: no secular root is needed.
    assert health.near_cutoff == () and health.secular == 0
    for j in range(0, 200, 10):
        assert values[j] == pytest.approx(ref_gnq(g, j), rel=1e-8, abs=1e-10)


def test_dropped_eigenvalue_near_cutoff_is_corrected_from_one_factorization(monkeypatch):
    # S has a dropped eigenvalue at 0.97 of the cutoff next to a kept one at
    # 1.3: removing a row mixes the two, so truncating S and downdating it no
    # longer commute (the downdate alone is off by up to 10x here). The
    # secular correction scores every row from S's one factorization, except
    # where S_j keeps a different number of eigenvalues than S.
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(40, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    g = q @ np.diag(np.sqrt([1.0, 0.5, 1.3e-10, 0.97e-10])) @ v.T
    w = np.linalg.eigvalsh(g.T @ g)
    assert 0.95 < w[0] / (1e-10 * w[-1]) < 1.0
    kept = int(np.sum(w > 1e-10 * w[-1]))
    crossings = [j for j in range(40) if ref_kept_count(g, j) != kept]
    calls = _count_eigh(monkeypatch)
    values, range_ok, reasons = loo(g)
    assert len(calls) == 1 + len(crossings)
    assert np.flatnonzero(reasons != "").tolist() == crossings
    assert set(reasons[crossings].tolist()) <= {CROSSING}
    for j in range(40):
        # Kept eigenvalues reach down to the cutoff, so the condition number
        # is near 1 / tol and both routes carry ~eps * 1e10 relative error.
        assert values[j] == pytest.approx(ref_gnq(g, j), rel=1e-5, abs=1e-10)
        assert range_ok[j] == ref_in_range(g, j)


def test_near_cutoff_eigenvalue_kept_under_the_lower_cutoff_falls_back():
    # Row 0 carries 90% of lambda_max, so S_0's cutoff is 10x lower than S's,
    # and the near-cutoff eigenvalue (0.51 of S's cutoff, along the third
    # axis, where row 0 also has a component) is kept by S_0: its secular
    # root rises above S_0's cutoff, as rows 106 and 119 of the exact-epoch
    # benchmark's iteration 144 do. Rows 1-3 are corrected from S's one
    # factorization. Rows 4 and 5 lie along the direction S_j drops: their
    # score (~1e-15) is q / (1 - q) ~ 1 minus a correction of the same size,
    # a cancellation past the rounding bound, so they fall back too.
    tol = 1e-6
    g = np.zeros((6, 3))
    g[0, 0], g[0, 2] = np.sqrt(0.9), 1e-4
    g[1, 0] = np.sqrt(0.1)
    g[2:4, 1] = np.sqrt(1.5e-6)
    g[4:6, 2] = np.sqrt(0.25e-6)
    rotation, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    g = g @ rotation.T
    w = np.linalg.eigvalsh(g.T @ g)
    assert 0.5 < w[0] / (tol * w[-1]) < 0.52
    kept = int(np.sum(w > tol * w[-1]))
    assert [j for j in range(6) if ref_kept_count(g, j, tol) != kept] == [0]
    values, range_ok, reasons, health = loo_scores(g, tol)
    assert reasons.tolist() == [CROSSING, "", "", "", CANCELLATION, CANCELLATION]
    assert health.secular == 3
    for j in range(6):
        assert values[j] == pytest.approx(ref_gnq(g, j, tol), rel=1e-8, abs=1e-10)
        assert range_ok[j] == ref_in_range(g, j, tol)


def test_member_row_the_factorization_does_not_resolve_falls_back():
    # The 27 rows batched at iteration 368 of the seed-2 acceptance run,
    # scored among themselves: S of rank 26 out of N_p = 192. Row 22's gradient
    # (||g||^2 ~ 1e-13, far under eigh's backward error of S) lies mostly
    # along eigenvectors S's factorization takes as null, so its removal
    # cannot be read off S: the downdate was 35x the reference's own
    # tolerance off. It must be recomputed.
    spec = ModelSpec(
        kind="mlp", input_dim=16, hidden_dim=10, n_classes=2, init="seeded_gaussian", init_scale=0.1
    )
    cfg = SamplingConfig(400, 200, 25, 400, 1.0, seed=2)
    pool, _ = split_pool(make_blobs([250, 250], 16, 2.5, 1.75, seed=102), cfg)
    traj = train(cfg, spec, pool)
    rows = list(batch_indices(cfg))[368]
    g = gradient_all(spec, traj.params_per_iter[368], pool.features[rows], pool.targets[rows])
    values, range_ok, reasons = loo(g)
    assert reasons[22] == OUT_OF_RANGE
    # Against pinv of the same sum, to the kappa-scaled tolerance of the
    # benchmark's score check.
    s = np.delete(g, 22, axis=0).T @ np.delete(g, 22, axis=0)
    w = np.linalg.eigvalsh(s)
    kept = w[w > 1e-10 * w[-1]]
    want = float(g[22] @ np.linalg.pinv(s, rcond=1e-10, hermitian=True) @ g[22])
    rel = 10 * np.finfo(float).eps * kept[-1] / kept[0]
    assert values[22] == pytest.approx(want, rel=rel)
    assert range_ok[22] == ref_in_range(g, 22)


@st.composite
def planted_spectrum(draw):
    # One eigenvalue 1, kept ones at 1.01-3x the cutoff and near-cutoff ones
    # at 0.2-0.99x, one of them possibly repeated. Each row lies in one of
    # two coordinate blocks, so S is block diagonal and a row has zero
    # components along the other block's eigenvectors.
    tol = 1e-6
    near = draw(st.lists(st.floats(0.2, 0.99), min_size=1, max_size=3))
    kept = draw(st.lists(st.floats(1.01, 3.0), max_size=2))
    spectrum = [1.0] + [tol * k for k in kept] + [tol * r for r in near]
    if draw(st.booleans()):
        spectrum.append(spectrum[draw(st.integers(1, len(spectrum) - 1))])
    split = draw(st.integers(1, len(spectrum)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for part in (spectrum[:split], spectrum[split:]):
        if not part:
            continue
        m = len(part)
        basis, _ = np.linalg.qr(rng.normal(size=(m + draw(st.integers(1, 4)), m)))
        rotation, _ = np.linalg.qr(rng.normal(size=(m, m)))
        blocks.append(basis @ np.diag(np.sqrt(part)) @ rotation.T)
    g = np.zeros((sum(b.shape[0] for b in blocks), len(spectrum)))
    g[: blocks[0].shape[0], :split] = blocks[0]
    if len(blocks) > 1:
        g[blocks[0].shape[0] :, split:] = blocks[1]
    return g, tol


@given(case=planted_spectrum())
@settings(max_examples=150, deadline=None)
def test_secular_correction_matches_gnq_exact_on_planted_spectra(case):
    g, tol = case
    values, range_ok, _ = loo(g, tol)
    for j in range(g.shape[0]):
        slow_value, slow_ok = gnq_exact(gs(g), j, tol)
        # Kept eigenvalues reach down to the cutoff: both routes carry
        # ~eps / tol relative error.
        assert values[j] == pytest.approx(slow_value, rel=1e-7, abs=1e-10)
        assert range_ok[j] == slow_ok


def test_cutoff_crossing_row_falls_back():
    # S's smallest eigenvalue (along e3) is kept; removing row 3 pushes it
    # under the cutoff, where the truncated pseudoinverse drops it and the
    # downdate q / (1 - q) would not. Same pattern as a downdate giving 11.78
    # against the pseudoinverse's 7.06.
    tol = 1e-6
    a = np.sqrt(2.4 * tol)
    g = np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 0], [0.5, 0, a], [0, 0, a]])
    w, v = np.linalg.eigh(g.T @ g)
    keep = w > tol * w[-1]
    assert keep.all()
    z = v.T @ g[3]
    q = float(np.sum(z**2 / w))
    naive = q / (1.0 - q)
    values, range_ok, reasons = loo(g, tol)
    want = ref_gnq(g, 3, tol)
    assert naive == pytest.approx(want + 1.0, rel=1e-6)
    assert reasons[3] == CROSSING
    assert reasons[4] == CROSSING
    for j in range(5):
        assert values[j] == pytest.approx(ref_gnq(g, j, tol), rel=1e-8, abs=1e-10)
        assert range_ok[j] == ref_in_range(g, j, tol)


def test_eigenvalue_between_the_two_cutoffs_falls_back():
    # Row 0 dominates S, so S_0's cutoff (1e-17) sits far below S's (1e-10).
    # S_0 = diag(1e-7, 2e-15) keeps both directions, but S drops the second
    # at its rounding level (5e-15 <= N_p * eps * lambda_max), and the
    # downdate would lose the half of row 0's score that lies along it.
    g = np.zeros((3, 50))
    g[0, 0], g[0, 1] = 1.0, np.sqrt(3e-8)
    g[1, 0] = np.sqrt(1e-7)
    g[2, 1] = np.sqrt(2e-15)
    values, range_ok, reasons = loo(g)
    assert reasons[0] == CROSSING
    assert values[0] == pytest.approx(1e7 + 1.5e7, rel=1e-8)
    for j in range(3):
        assert values[j] == pytest.approx(ref_gnq(g, j), rel=1e-8, abs=1e-10)
        assert range_ok[j] == ref_in_range(g, j)


def test_residual_beyond_the_dropped_eigenvalues_falls_back():
    # A factorization whose dropped eigenvalue (0) understates row 1's
    # residual along it (1e-6), as rounding could: clauses (i)-(iii) pass,
    # the range check does not.
    rows = np.array([[1.0, 0.0], [0.0, 1e-3]])
    v = np.array([[0.0, 1.0], [1.0, 0.0]])  # e2 with eigenvalue 0, e1 with 1
    w = np.array([0.0, 1.0])
    _, _, reasons, _ = downdate_guard(w, v, rows, 1e-10)
    assert reasons.tolist() == [CROSSING, OUT_OF_RANGE]


def test_range_ok_ignores_rounding_level_residual():
    # A well-fit example: tiny gradient, residual at rounding level. The old
    # test ||resid|| <= tol * ||g|| flagged it; the cutoff-consistent test
    # ||resid||^2 <= tol * lambda_max(S) does not.
    g = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1e-6, 1e-6, 3e-16]])
    resid = 3e-16
    assert resid > 1e-10 * np.linalg.norm(g[2])
    assert ref_in_range(g, 2)
    assert gnq_exact(gs(g), 2)[1]
    assert loo(g)[1][2]


@st.composite
def rank_deficient(draw):
    # Integer factors keep every product exact, so the null space is exact
    # and only eigh's rounding fills it.
    n = draw(st.integers(2, 8))
    d = draw(st.integers(1, 5))
    r = draw(st.integers(1, d))
    a = draw(hnp.arrays(np.int64, (n, r), elements=st.integers(-2, 2)))
    b = draw(hnp.arrays(np.int64, (r, d), elements=st.integers(-2, 2)))
    return (a @ b).astype(float)


@given(g=rank_deficient())
@settings(max_examples=150, deadline=None)
def test_every_route_matches_gnq_exact_on_rank_deficient_input(g):
    values, range_ok, _ = loo(g)
    for j in range(g.shape[0]):
        slow_value, slow_ok = gnq_exact(gs(g), j)
        assert values[j] == pytest.approx(slow_value, rel=1e-8, abs=1e-10)
        assert range_ok[j] == slow_ok


# diagonal_scores ------------------------------------------------------------


def test_diagonal_basic():
    values, range_ok = diagonal_scores(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert values.tolist() == [1.0, 1.0]
    assert range_ok.all()


def test_diagonal_direct_sum():
    # G = (2, 4), each row's own contribution included: row 0 scores
    # 1/2 + 4/4, row 1 scores 1/2 + 0.
    values, _ = diagonal_scores(np.array([[1.0, 2.0], [1.0, 0.0]]))
    assert values[0] == pytest.approx(1.5, rel=1e-12)
    assert values[1] == pytest.approx(0.5, rel=1e-12)


def test_diagonal_zero_column_flag():
    # Row 0's second coordinate squares to an underflowed 0, so G_2 = 0 while
    # the row is nonzero there: the coordinate contributes 0 and the row is
    # out of range. An all-zero column flags nobody.
    assert (1e-170) ** 2 == 0.0
    values, range_ok = diagonal_scores(np.array([[1.0, 1e-170, 0.0], [1.0, 0.0, 0.0]]))
    assert values.tolist() == [0.5, 0.5]
    assert range_ok.tolist() == [False, True]


def test_diagonal_equals_exact_for_axis_aligned():
    # Axis-aligned gradients make S exactly diagonal. For a row with one
    # nonzero coordinate the diagonal score is x = g^2 / G_p with its own row
    # in G_p, and the exact score g^2 / (G_p - g^2) is x / (1 - x).
    g = np.array([[3.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, 1.0]])
    values, _ = diagonal_scores(g)
    for j in range(4):
        exact, _ = gnq_exact(gs(g), j)
        assert values[j] / (1.0 - values[j]) == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("zero_column", [False, True])
def test_diagonal_with_work_is_bitwise_the_fresh_call(zero_column):
    rng = np.random.default_rng(12)
    work = np.full((9, 6), np.nan)
    for _ in range(3):  # the scratch keeps the previous call's squares
        g = rng.normal(size=(9, 6)) * rng.uniform(0.1, 10.0, size=6)
        if zero_column:
            # Column 2's squares underflow, so G_2 = 0 and row 4 is out of range.
            g[:, 2] = 0.0
            g[4, 2] = 1e-170
        values, range_ok = diagonal_scores(g)
        got_values, got_ok = diagonal_scores(g, work)
        assert got_values.tobytes() == values.tobytes()
        assert np.array_equal(got_ok, range_ok)
        assert range_ok.tolist() == [not zero_column or j != 4 for j in range(9)]
        # The formula the scores were defined by, evaluated without shortcuts.
        diag = np.sum(g**2, axis=0)
        zero = diag == 0.0
        terms = np.where(zero, 0.0, g**2 / np.where(zero, 1.0, diag))
        assert values.tobytes() == terms.sum(axis=1).tobytes()
        assert np.array_equal(range_ok, ~np.any(zero & (g != 0.0), axis=1))


def test_diagonal_rejects_an_unfit_work_array():
    with pytest.raises(ShapeError, match="work must be"):
        diagonal_scores(np.ones((3, 2)), np.empty((2, 3)))


# pdet ------------------------------------------------------------------------


def test_pdet_rank_one_hand_value():
    # A = diag(2, 0), q = (1, 0): pdet 2, quadform 1/2, target diag(3, 0).
    assert pdet_rank_one(2.0, 0.5) == pytest.approx(3.0)
    direct, rank = pdet_and_rank(np.diag([3.0, 0.0]))
    assert direct == pytest.approx(3.0)
    assert rank == 1


def test_pdet_rank_one_zero_vector():
    assert pdet_rank_one(7.25, 0.0) == 7.25


def test_pdet_rank_one_matches_eigen_oracle():
    rng = np.random.default_rng(23)
    for _ in range(40):
        basis = rng.normal(size=(5, 3))
        a = basis @ np.diag(rng.uniform(0.5, 3.0, size=3)) @ basis.T
        a = (a + a.T) / 2
        q = basis @ rng.normal(size=3)  # stays in range(A)
        w, v = np.linalg.eigh(a)
        keep = w > 1e-10 * w[-1]
        quad = float(np.sum((v[:, keep].T @ q) ** 2 / w[keep]))
        got = pdet_rank_one(ref_pdet(a), quad)
        want = ref_pdet(a + np.outer(q, q))
        assert got == pytest.approx(want, rel=1e-9)
        _, rank_before = pdet_and_rank(a)
        _, rank_after = pdet_and_rank(a + np.outer(q, q))
        assert rank_before == rank_after


def test_determinant_lemma_invertible():
    rng = np.random.default_rng(29)
    for _ in range(40):
        m = rng.normal(size=(4, 4))
        a = m @ m.T + 0.5 * np.eye(4)
        q = rng.normal(size=4)
        lhs = np.linalg.det(a + np.outer(q, q))
        rhs = (1.0 + q @ np.linalg.solve(a, q)) * np.linalg.det(a)
        assert lhs == pytest.approx(rhs, rel=1e-9)

