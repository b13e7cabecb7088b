"""End-to-end acceptance gate, one test per numbered criterion.

The conftest terminal hook prints a PASS/FAIL line per criterion after the
run. Each test carries its tolerance and (where applicable) wall-clock budget
next to the assertion that uses it. Criteria 8 and 9 share one experimental
setup: a deliberately memorizing MLP on overlapping blobs, sized so the
leakage concentrates in a minority of hard points (that is the regime where
ranking by uniqueness has something to remove).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from gnqaudit.attack import loss_attack, success_vs_gnq
from gnqaudit.bounds import (
    binary_entropy,
    fano_error_bound,
    growth_condition_holds,
    inverse_binary_entropy,
    per_iteration_leakage,
    prior_entropy,
)
from gnqaudit.cli import main
from gnqaudit.data import make_blobs, make_outlier_regression_dataset
from gnqaudit.defense import run_defense, split_pool
from gnqaudit.geometry import (
    DEFAULT_TOL,
    GradientSet,
    GramMode,
    loo_scores,
    pdet_and_rank,
    pdet_rank_one,
)
from gnqaudit.models import ModelSpec, gradient_all, loss, per_example_gradient
from gnqaudit.oracle import (
    closed_form_covariances,
    enumerate_covariances,
    exact_discrete_mi,
)
from gnqaudit.sampling import (
    SamplingConfig,
    SamplingScheme,
    enumerate_exact_moments,
    indicator_moments,
)
from gnqaudit.training import AuditCadence, audit, train

from oracles import FROZEN, central_diff_gradient, ref_leakage_bits

BER = SamplingScheme.INDEPENDENT_BERNOULLI
WOR = SamplingScheme.WITHOUT_REPLACEMENT


# 1: closed-form update covariances == exact enumeration ----------------------


def test_criterion_01_covariance_identity():
    start = time.monotonic()
    rng = np.random.default_rng(20260819)
    for i in range(50):
        n = int(rng.integers(3, 11))
        nt = int(rng.integers(1, n))
        b = int(rng.integers(1, nt + 1))
        dim = int(rng.integers(1, 5))
        cfg = SamplingConfig(n, nt, b, 1, 0.1, scheme=BER, seed=i)
        grads = GradientSet(rng.normal(size=(n, dim)))
        j = int(rng.integers(0, n))
        closed = closed_form_covariances(grads, cfg, j)
        enum = enumerate_covariances(grads, cfg, j)
        for name in ("sigma", "sigma0", "sigma1"):
            gap = np.abs(getattr(enum, name) - getattr(closed, name)).max()
            assert gap <= 1e-12, f"instance {i}, {name}: gap {gap:.3e}"
    assert time.monotonic() - start < 60.0


# 2: closed-form indicator variances == enumeration under fixed-size sampling --


def test_criterion_02_variance_formulas():
    start = time.monotonic()
    worst_var_gap = 0.0
    max_cross = 0.0
    worst_cross_gap = 0.0
    for n in (4, 6, 8, 10, 12):
        for nt in sorted({2, n // 2, n - 1}):
            for b in sorted({1, max(1, nt // 2), nt}):
                cfg = SamplingConfig(n, nt, b, 1, 0.1, scheme=WOR, seed=0)
                mom = indicator_moments(cfg)
                tab = enumerate_exact_moments(cfg, 0)
                others = np.arange(1, n)
                gaps = (
                    np.abs(
                        np.asarray(tab.var_unconditional, dtype=float)
                        - mom.var_unconditional
                    ).max(),
                    np.abs(
                        np.asarray(tab.var_given_out, dtype=float)[others]
                        - mom.var_given_out
                    ).max(),
                    np.abs(
                        np.asarray(tab.var_given_in, dtype=float)[others]
                        - mom.var_given_in
                    ).max(),
                    abs(float(tab.var_self_given_in) - mom.var_self_given_in),
                )
                worst_var_gap = max(worst_var_gap, *gaps)
                assert max(gaps) <= 1e-12, f"N={n} nt={nt} B={b}: {gaps}"

                # Cross-covariance of two product indicators under fixed-size
                # sampling: -B^2 (N - nt) / (N^2 (N-1) nt), identical for
                # every off-diagonal pair. Enumeration carries ~1e-12 of float
                # accumulation, so this is bounded, not pinned to 1e-12.
                cov = np.asarray(tab.cov_unconditional, dtype=float).copy()
                np.fill_diagonal(cov, 0.0)
                expected = -(b**2) * (n - nt) / (n**2 * (n - 1) * nt)
                off = cov[~np.eye(n, dtype=bool)]
                worst_cross_gap = max(worst_cross_gap, np.abs(off - expected).max())
                max_cross = max(max_cross, np.abs(off).max())
                assert np.abs(off - expected).max() <= 1e-9
                assert np.abs(off).max() <= mom.var_unconditional
    print(
        f"cross-covariance report: max |cov| {max_cross:.3e}, "
        f"worst gap to closed form {worst_cross_gap:.3e}, "
        f"worst marginal-variance gap {worst_var_gap:.3e}"
    )
    assert time.monotonic() - start < 60.0


# 3: pseudo-determinant under a rank-one update --------------------------------


def test_criterion_03_rank_one_pdet():
    start = time.monotonic()
    rng = np.random.default_rng(31)
    invertible_cases = 0
    for i in range(100):
        dim = int(rng.integers(2, 8))
        r = dim if i % 4 == 0 else int(rng.integers(1, dim + 1))
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        eigs = rng.uniform(0.5, 4.0, size=r)
        a = (basis[:, :r] * eigs) @ basis[:, :r].T
        a = 0.5 * (a + a.T)
        q = a @ rng.normal(size=dim)  # stays inside range(a)

        pdet_a, rank_a = pdet_and_rank(a)
        quad = float(q @ np.linalg.pinv(a, hermitian=True) @ q)
        predicted = pdet_rank_one(pdet_a, quad)
        pdet_b, rank_b = pdet_and_rank(a + np.outer(q, q))
        assert rank_b == rank_a
        assert abs(pdet_b - predicted) <= 1e-9 * abs(predicted)

        if r == dim:
            lhs = np.linalg.det(a + np.outer(q, q))
            rhs = np.linalg.det(a) * (1.0 + float(q @ np.linalg.solve(a, q)))
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)
            invertible_cases += 1
    assert invertible_cases >= 20
    assert time.monotonic() - start < 30.0


# 4: per-iteration leakage: zero at zero, strictly increasing, pinned value ----


def test_criterion_04_leakage_function():
    for n, nt, b in ((8, 4, 2), (20, 10, 4), (100, 50, 10), (200, 100, 30)):
        cfg = SamplingConfig(n, nt, b, 1, 0.1, seed=0)
        assert growth_condition_holds(cfg)
        assert per_iteration_leakage(0.0, cfg) == 0.0
        vals = np.array(
            [per_iteration_leakage(float(g), cfg) for g in np.linspace(0.0, 1e3, 1001)]
        )
        assert np.all(np.diff(vals) > 0.0), f"not strictly increasing at N={n}"

    headline = per_iteration_leakage(1.0, SamplingConfig(100, 50, 10, 1, 0.1, seed=0))
    high_precision = float(ref_leakage_bits(1, 100, 50, 10))
    assert headline == pytest.approx(0.13152, abs=1e-5)
    assert headline == pytest.approx(high_precision, abs=1e-12)
    assert high_precision == pytest.approx(FROZEN["leakage_n100_nt50_b10_gnq1"], abs=1e-15)


# 5: Fano floor and entropy inversion ------------------------------------------


def test_criterion_05_fano_chain():
    fb = fano_error_bound(1.0, 0.0)
    assert fb.pe_lower == 0.5
    assert not fb.vacuous
    for h in np.linspace(0.0, 1.0, 1000):
        p = inverse_binary_entropy(float(h))
        assert 0.0 <= p <= 0.5
        assert abs(binary_entropy(p) - float(h)) <= 1e-10


# 6: analytic gradients == central finite differences ---------------------------


def _gradient_case(kind: str, rng: np.random.Generator):
    if kind == "linear2d":
        spec = ModelSpec("linear2d")
        features = rng.normal(size=1)
        target = float(rng.normal())
    elif kind == "logistic":
        spec = ModelSpec(
            "logistic",
            input_dim=int(rng.integers(1, 6)),
            n_classes=int(rng.integers(2, 5)),
        )
        features = rng.normal(size=spec.input_dim)
        target = int(rng.integers(spec.n_classes))
    else:
        spec = ModelSpec(
            "mlp",
            input_dim=int(rng.integers(1, 5)),
            hidden_dim=int(rng.integers(1, 6)),
            n_classes=int(rng.integers(2, 5)),
        )
        features = rng.normal(size=spec.input_dim)
        target = int(rng.integers(spec.n_classes))
    params = 0.5 * rng.normal(size=spec.n_params)
    return spec, params, features, target


def test_criterion_06_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(6)
    for kind in ("linear2d", "logistic", "mlp"):
        for _ in range(100):
            spec, params, features, target = _gradient_case(kind, rng)
            analytic = per_example_gradient(spec, params, features, target)
            numeric = central_diff_gradient(
                lambda p: loss(spec, p, features, target), params
            )
            err = np.linalg.norm(analytic - numeric)
            assert err <= 1e-5 * max(np.linalg.norm(numeric), 1.0), (
                f"{kind}: gradient error {err:.3e}"
            )
    assert time.monotonic() - start < 30.0


# 7: the planted outlier owns the largest exact uniqueness score ---------------


def test_criterion_07_outlier_max_gnq():
    ds = make_outlier_regression_dataset()
    x = ds.features[:6, 0]
    design = np.stack([x, np.ones(6)], axis=1)
    params, *_ = np.linalg.lstsq(design, ds.targets[:6], rcond=None)

    spec = ModelSpec("linear2d")
    grads = gradient_all(spec, params, ds.features, ds.targets)
    values, _, _, _ = loo_scores(grads, DEFAULT_TOL)
    assert int(np.argmax(values)) == 6
    assert values[6] > values[:6].max()  # strict, ordinal only


# 8 and 9: memorizing MLP on overlapping blobs ---------------------------------
#
# 400-point pool, half trained, batch 25, 400 iterations = 50 epochs. Hidden
# width 10 keeps the gradient dimension (192) under the pool size so removing
# one row generically leaves the full Gram's rank alone and the exact audit
# takes the downdate fast path. That rank is 181, not 192: a two-class softmax
# gradient has no part along the 11 (hidden + 1) class-sum directions of the
# output layer. Blob spread 1.75 against center distance 2.5 leaves most points
# learnable and a hard overlapping minority that the model can only memorize;
# that minority is what the attack wins on and what removal takes away.

SEEDS = (0, 1, 2, 3, 4)


def _overfit_model() -> ModelSpec:
    return ModelSpec(
        "mlp",
        input_dim=16,
        hidden_dim=10,
        n_classes=2,
        init="seeded_gaussian",
        init_scale=0.1,
    )


def _overfit_cfg(seed: int) -> SamplingConfig:
    return SamplingConfig(400, 200, 25, 400, 1.0, seed=seed)


def _overfit_data(seed: int):
    return make_blobs([250, 250], 16, 2.5, 1.75, seed=100 + seed)


@pytest.fixture(scope="session")
def overfit_experiment():
    model = _overfit_model()
    rows = []
    start = time.monotonic()
    for seed in SEEDS:
        cfg = _overfit_cfg(seed)
        pool, _ = split_pool(_overfit_data(seed), cfg)
        traj = train(cfg, model, pool)
        record = audit(
            traj, pool, mode=GramMode.FULL_EXACT, cadence=AuditCadence.EVERY_EPOCH
        )
        attacked = loss_attack(
            model, traj.final_params, pool.with_membership(traj.train_indicator)
        )
        rows.append((attacked.auc, success_vs_gnq(attacked, record, 8).spearman))
    return rows, time.monotonic() - start


def test_criterion_08_gnq_attack_correlation(overfit_experiment):
    rows, elapsed = overfit_experiment
    aucs = np.array([r[0] for r in rows])
    spearmans = np.array([r[1] for r in rows])
    assert aucs.min() >= 0.6, f"per-seed AUCs {np.round(aucs, 4)}"
    assert spearmans.mean() > 0.15, f"per-seed Spearman {np.round(spearmans, 4)}"
    assert (spearmans > 0).sum() >= 4  # sign test across seeds
    assert elapsed < 300.0


def test_criterion_09_defense_direction():
    model = _overfit_model()
    start = time.monotonic()
    decreased = 0
    accuracy_drops = []
    for seed in SEEDS:
        report = run_defense(_overfit_cfg(seed), model, _overfit_data(seed), 0.10)
        decreased += report.auc_after < report.auc_before
        accuracy_drops.append(
            report.test_accuracy_before - report.test_accuracy_after
        )
    assert decreased >= 4, f"AUC dropped in only {decreased}/5 seeds"
    assert float(np.mean(accuracy_drops)) < 0.15, f"accuracy drops {accuracy_drops}"
    assert time.monotonic() - start < 600.0


# 10: reruns are byte-identical, timestamps quarantined to the sidecar ----------


def _snapshot(root: Path) -> tuple[dict, dict]:
    payload, sidecars = {}, {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            rel = str(p.relative_to(root))
            (sidecars if rel.endswith(".meta.json") else payload)[rel] = p.read_bytes()
    return payload, sidecars


def test_criterion_10_determinism(tmp_path):
    sampling60 = {
        "n_total": 60,
        "n_train": 30,
        "batch_size": 10,
        "n_iters": 12,
        "learning_rate": 0.5,
        "seed": 3,
    }
    logistic4 = {"kind": "logistic", "input_dim": 4, "n_classes": 2}

    def blobs(per_class):
        return {
            "kind": "blobs",
            "class_sizes": [per_class, per_class],
            "input_dim": 4,
            "center_distance": 2.0,
            "spread": 2.0,
            "seed": 7,
        }

    exact_size = {"sampling": sampling60, "model": logistic4, "dataset": blobs(30)}
    configs = {
        "gen-data": {"dataset": blobs(30)},
        "train": exact_size,
        "audit": exact_size,
        "attack": exact_size,
        "bound": {
            "sampling": {
                "n_total": 100,
                "n_train": 50,
                "batch_size": 10,
                "n_iters": 1,
                "learning_rate": 0.1,
                "seed": 0,
            },
            "bound": {"gnq": [0.0, 1.0, 10.0]},
        },
        # The defense needs spare rows beyond the pool for its held-out split.
        "defend": {
            "sampling": sampling60,
            "model": logistic4,
            "dataset": blobs(40),
            "defense": {"p": 0.1},
        },
        "oracle": {"oracle": {"seed": 1}},
    }

    for command, payload in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(payload))
        out = tmp_path / command.replace("-", "_")
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        first_payload, first_sidecars = _snapshot(out)
        assert first_payload, f"{command} wrote no files"
        if command != "gen-data":  # gen-data emits no report, hence no sidecar
            assert first_sidecars, f"{command} wrote no timestamp sidecar"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
        second_payload, second_sidecars = _snapshot(out)
        assert first_payload == second_payload, f"{command} rerun changed bytes"
        assert set(first_sidecars) == set(second_sidecars)
        for raw in second_sidecars.values():
            assert "written_at" in json.loads(raw.decode())


# 11: exact discrete leakage sanity on tiny instances ---------------------------


def test_criterion_11_discrete_mi_sanity():
    rng = np.random.default_rng(11)
    for i in range(20):
        n = int(rng.integers(3, 9))
        nt = int(rng.integers(1, n))
        b = int(rng.integers(1, nt + 1))
        scheme = BER if i % 2 == 0 else WOR
        cfg = SamplingConfig(n, nt, b, 1, 0.1, scheme=scheme, seed=i)
        vectors = rng.normal(size=(n, int(rng.integers(1, 4))))
        j = int(rng.integers(0, n))

        base = exact_discrete_mi(GradientSet(vectors), cfg, j)
        assert -1e-12 <= base <= prior_entropy(nt, n) + 1e-12

        doubled = vectors.copy()
        doubled[j] *= 2.0
        assert exact_discrete_mi(GradientSet(doubled), cfg, j) >= base - 1e-12

        # Zero gradient leaks nothing when memberships are independent. Under
        # fixed-size sampling the indicators stay coupled through the shared
        # size constraint, so the identity is checked on the independent law.
        zeroed = vectors.copy()
        zeroed[j] = 0.0
        cfg_ber = SamplingConfig(n, nt, b, 1, 0.1, scheme=BER, seed=i)
        assert exact_discrete_mi(GradientSet(zeroed), cfg_ber, j) == 0.0
