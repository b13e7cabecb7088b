"""Report serialization: canonical form, hashing, schema conformance, CSV writers."""

import csv
import dataclasses
import enum
import json
import typing
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gnqaudit import (
    AttackResult,
    GramMode,
    ModelKind,
    ModelSpec,
    SamplingConfig,
    loss_attack,
    make_blobs,
    make_linear_dataset,
    success_vs_gnq,
    train,
)
from gnqaudit.canonical import canonical_json, json_default, write_json
from gnqaudit.cli import _DATASETS, AuditSettings
from gnqaudit.defense import DefenseReport, rank_examples, run_defense, run_defense_sweep
from gnqaudit.oracle import run_oracle_checks
from gnqaudit.reports import (
    attack_report,
    audit_report,
    config_hash,
    defense_report,
    finalize_report,
    oracle_report,
    write_attack_csv,
    write_gradients_csv,
    write_report,
    write_scores_csv,
    write_sweep_csv,
)
from gnqaudit.training import audit, save_trajectory

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "src" / "gnqaudit" / "schemas" / "report.schema.json"
REPORT_SCHEMA = json.loads(SCHEMA_PATH.read_text())
CONFIG_SCHEMA = json.loads((SCHEMA_PATH.parent / "config.schema.json").read_text())


@pytest.fixture(scope="module")
def small_run():
    spec = ModelSpec(kind=ModelKind.LINEAR2D, input_dim=1)
    base = make_linear_dataset(8, slope=1.0, intercept=0.0, noise_scale=0.2, x_low=0.0, x_high=2.0, seed=1)
    cfg = SamplingConfig(n_total=8, n_train=4, batch_size=2, n_iters=10, learning_rate=0.1, seed=3)
    traj = train(cfg, spec, base)
    ds = base.with_membership(traj.train_indicator)
    record = audit(traj, ds)
    attack = loss_attack(spec, traj.final_params, ds)
    return spec, cfg, ds, traj, record, attack


# canonical form and hashing ---------------------------------------------------------


def test_canonical_json_is_key_order_independent():
    assert canonical_json({"b": 1, "a": [1.5, 2]}) == canonical_json({"a": [1.5, 2], "b": 1})


def test_canonical_json_round_trips():
    payload = {"a": [1, 2.5], "b": {"c": "x"}}
    assert json.loads(canonical_json(payload)) == payload


def test_canonical_json_ends_with_newline():
    assert canonical_json({}).endswith("\n")


def test_numpy_and_enum_values_serialize_like_plain_python():
    payload = {
        "f": np.float64(0.1) + np.float64(0.2),
        "i": np.int64(7),
        "b": np.bool_(True),
        "mode": GramMode.DIAGONAL,
        "t": (1, np.float64(2.5)),
        "m": np.arange(6.0).reshape(2, 3) / 7.0,
    }
    plain = {
        "f": 0.1 + 0.2,
        "i": 7,
        "b": True,
        "mode": "diagonal",
        "t": [1, 2.5],
        "m": [[k / 7.0 for k in range(3)], [k / 7.0 for k in range(3, 6)]],
    }
    assert canonical_json(payload) == canonical_json(plain)
    assert config_hash(payload) == config_hash(plain)
    with pytest.raises(TypeError):
        canonical_json({"x": object()})
    with pytest.raises(TypeError):
        config_hash({"x": {1, 2}})


class _Shade(enum.Enum):
    DARK = "dark"
    LEVEL = 3


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 1e-5]),
)
_LEAVES = st.one_of(
    _FLOATS,
    st.integers(min_value=-(10**30), max_value=10**30),
    st.booleans(),
    st.none(),
    st.text(),
    _FLOATS.map(np.float64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.sampled_from([*_Shade, *GramMode]),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4), elements=_FLOATS),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)),
    st.lists(_FLOATS, max_size=6),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=24,
)


@given(value=_PAYLOADS)
@example(value={3: "a", 1.5: [], False: {"\x00\u00e9\U0001f600": {}}})
@example(value=[1, 2.5, True, -0.0, 10**30, [0.5, float("nan")]])
@settings(max_examples=300, deadline=None)
def test_streamed_json_is_byte_identical_to_json_dumps(value):
    payload = {"value": value}
    expected = json.dumps(payload, sort_keys=True, indent=2, default=json_default) + "\n"
    assert canonical_json(payload) == expected


def test_write_json_leaves_no_partial_file(tmp_path):
    target = tmp_path / "report.json"
    with pytest.raises(TypeError):
        write_json(target, {"a": list(range(1000)), "z": object()})
    assert list(tmp_path.iterdir()) == []
    write_json(target, {"a": [0.5]})
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    with pytest.raises(TypeError):
        write_json(target, {"b": object()})
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    assert target.read_text(encoding="utf-8") == canonical_json({"a": [0.5]})


def test_checkpoint_bytes_equal_the_nested_list_dump(tmp_path, small_run):
    _, _, _, traj, _, _ = small_run
    params = traj.params_per_iter.copy()
    params[0, :2] = [-0.0, 1e16]
    params[-1, :2] = [1e-5, 5e-324]
    traj = dataclasses.replace(traj, params_per_iter=params)
    path = tmp_path / "trajectory.json"
    save_trajectory(path, traj)
    old = {
        "format_version": 3,
        "sampling": traj.cfg.to_json_dict(),
        "model": traj.model.to_json_dict(),
        "params_per_iter": [[float(v) for v in row] for row in traj.params_per_iter],
        "dataset_sha256": traj.dataset_sha256,
    }
    assert path.read_text() == json.dumps(old, indent=2, sort_keys=True) + "\n"


def test_config_hash_shape_and_stability():
    h = config_hash({"sampling": {"n_total": 8}, "model": {"kind": "linear2d"}})
    assert len(h) == 64
    assert h == config_hash({"model": {"kind": "linear2d"}, "sampling": {"n_total": 8}})
    assert h != config_hash({"sampling": {"n_total": 9}, "model": {"kind": "linear2d"}})


def test_finalize_report_stamps_provenance():
    cfg = {"sampling": {"n_total": 4}}
    out = finalize_report("train", {"final_loss": 0.5}, cfg)
    assert out["report_kind"] == "train"
    assert out["config_hash"] == config_hash(cfg)
    assert out["config"] == cfg
    assert out["library_version"]
    jsonschema.validate(out, REPORT_SCHEMA)


# schema conformance ------------------------------------------------------------------


def test_audit_report_conforms(small_run):
    _, cfg, _, _, record, _ = small_run
    rep = audit_report(record, {"sampling": {"n_total": cfg.n_total}}, rank_examples(record))
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["report_kind"] == "audit"
    assert len(rep["per_example"]) == 8
    assert sorted(rep["ranking"]) == list(range(8))


def test_attack_report_conforms(small_run):
    _, cfg, _, _, record, attack = small_run
    curve = success_vs_gnq(attack, record, 2)
    for c in (curve, None):
        rep = attack_report(attack, {"sampling": {"n_total": cfg.n_total}}, c)
        jsonschema.validate(rep, REPORT_SCHEMA)
        assert rep["report_kind"] == "attack"
    assert rep["n_examples"] == 8


def test_defense_report_conforms():
    ds = make_blobs([40, 40], input_dim=4, center_distance=2.0, spread=2.0, seed=7)
    cfg = SamplingConfig(n_total=60, n_train=30, batch_size=10, n_iters=12, learning_rate=0.5, seed=3)
    spec = ModelSpec(kind=ModelKind.LOGISTIC, input_dim=4, n_classes=2)
    rep = defense_report(run_defense(cfg, spec, ds, 0.1), {"defense": {"p": 0.1}})
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["report_kind"] == "defense"


def test_defense_schema_requires_exactly_the_keys_the_report_writes():
    # A key added to the report but not the schema, or the reverse, fails here.
    rep = defense_report(DefenseReport(0.1, (3,), 0.6, 0.5, 0.7, 0.8, 27), {})
    envelope = REPORT_SCHEMA["required"]
    required = REPORT_SCHEMA["$defs"]["defense_run"]["required"]
    assert len(set(required)) == len(required)
    assert set(required) == rep.keys() - set(envelope)


def test_oracle_report_conforms():
    rep = oracle_report(run_oracle_checks(seed=0), {"oracle": {"seed": 0}})
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["report_kind"] == "oracle"
    assert rep["passed"] is True
    assert rep["failures"] == []


def test_corrupted_oracle_report_lists_failures():
    rep = oracle_report(run_oracle_checks(seed=0, corrupt="kappa"), {"oracle": {"corrupt": "kappa"}})
    jsonschema.validate(rep, REPORT_SCHEMA)
    assert rep["passed"] is False
    assert rep["failures"]


def test_config_schema_accepts_partial_configs():
    # gen-data and oracle runs carry only their own sections
    jsonschema.validate({"dataset": {"kind": "outlier_regression"}}, CONFIG_SCHEMA)
    jsonschema.validate({"oracle": {"seed": 0}}, CONFIG_SCHEMA)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"unknown_section": {}}, CONFIG_SCHEMA)


def test_config_schema_matches_sampling_fields():
    ok = {
        "sampling": {"n_total": 8, "n_train": 4, "batch_size": 2, "n_iters": 10, "learning_rate": 0.1},
        "model": {"kind": "linear2d", "input_dim": 1},
        "dataset": {"kind": "outlier_regression"},
    }
    jsonschema.validate(ok, CONFIG_SCHEMA)
    bad = dict(ok, sampling={**ok["sampling"], "learning_rate": 0})
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, CONFIG_SCHEMA)


@pytest.mark.parametrize(
    "section, cls", [("sampling", SamplingConfig), ("model", ModelSpec), ("audit", AuditSettings)]
)
def test_config_schema_sections_are_the_dataclass_fields(section, cls):
    # The dataclass is the program's only definition of its section; the
    # shipped schema must name the same keys with the same JSON types.
    props = CONFIG_SCHEMA["properties"][section]["properties"]
    hints = typing.get_type_hints(cls)
    assert set(props) == {f.name for f in dataclasses.fields(cls)}
    for name, kind in hints.items():
        if isinstance(kind, type) and issubclass(kind, enum.Enum):
            assert props[name]["enum"] == [m.value for m in kind], name
        else:
            assert props[name]["type"] == {int: "integer", float: "number"}[kind], name


def test_config_schema_dataset_kinds_are_the_builder_table():
    kinds = {
        variant["properties"]["kind"]["const"]: set(variant["properties"]) - {"kind"}
        for variant in CONFIG_SCHEMA["properties"]["dataset"]["oneOf"]
    }
    assert kinds == {kind: set(fields) for kind, (_, fields) in _DATASETS.items()}


def test_config_schema_dataset_limits_are_the_builder_table():
    # The reader refuses at load what the schema refuses: the same bounds, by key.
    for variant in CONFIG_SCHEMA["properties"]["dataset"]["oneOf"]:
        _, fields = _DATASETS[variant["properties"]["kind"]["const"]]
        for key, prop in variant["properties"].items():
            if key == "kind":
                continue
            limits = {**prop, **prop.get("items", {})}
            want = {k: v for k, v in limits.items() if k in ("minimum", "exclusiveMinimum", "minItems")}
            assert (fields[key][2:] or ({},))[0] == want, key


# determinism of written artifacts -----------------------------------------------------


def test_write_report_is_byte_stable(tmp_path, small_run):
    _, cfg, _, _, record, _ = small_run
    rep = audit_report(record, {"sampling": {"n_total": cfg.n_total}}, rank_examples(record))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_report(a, rep)
    write_report(b, rep)
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text()) == rep


def test_scores_csv_layout(tmp_path, small_run):
    _, _, _, _, record, _ = small_run
    path = write_scores_csv(tmp_path / "scores.csv", record)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,example_id,mode,gnq,range_ok"
    assert len(lines) == 1 + record.values.size


def test_attack_csv_layout(tmp_path, small_run):
    _, _, _, _, _, attack = small_run
    path = write_attack_csv(tmp_path / "attack.csv", attack)
    lines = path.read_text().splitlines()
    assert lines[0] == "example_id,score,success,membership"
    assert len(lines) == 1 + attack.membership.size


def test_gradients_csv_layout(tmp_path):
    per_iter = [(0, np.arange(6.0).reshape(2, 3)), (2, np.ones((2, 3)))]
    path = write_gradients_csv(tmp_path / "g.csv", per_iter)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,example_id,g_0,g_1,g_2"
    assert len(lines) == 1 + 4
    assert lines[1].startswith("0,0,")


def _csv_module_bytes(path, header, rows):
    """The csv module's layout, which the direct formatting must keep."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def test_gradients_csv_streamed_pairs_write_the_csv_module_bytes(tmp_path):
    rng = np.random.default_rng(3)
    mats = {it: rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-20, 20, size=3) for it in (0, 3, 7)}
    mats[3][1, 2] = -0.0
    buf = np.empty((4, 3))

    def refill():  # one buffer, overwritten before each pair is handed on
        for it in sorted(mats):
            buf[...] = mats[it]
            yield it, buf

    streamed = write_gradients_csv(tmp_path / "stream.csv", refill()).read_bytes()
    rows = ([it, ex] + [repr(float(v)) for v in mat[ex]] for it, mat in sorted(mats.items()) for ex in range(4))
    header = ["iteration", "example_id", "g_0", "g_1", "g_2"]
    assert _csv_module_bytes(tmp_path / "csv.csv", header, rows) == streamed


def test_attack_and_sweep_csv_write_the_csv_module_bytes(tmp_path):
    # numpy scalars in, as the attack's arrays and a defense run's floats
    # arrive; np.float64's own repr would be "np.float64(...)".
    scores = np.array([np.inf, -np.inf, 0.5, 0.5, -0.0, 1e-300, 0.1 + 0.2, 7.0])
    success = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
    member = np.array([True, False, True, False, False, True, True, False])
    attack = AttackResult(scores, success, member, auc=0.5, threshold=0.5)
    rows = [(ex, repr(float(scores[ex])), int(success[ex]), int(member[ex])) for ex in range(scores.size)]
    want = _csv_module_bytes(tmp_path / "attack_ref.csv", ["example_id", "score", "success", "membership"], rows)
    assert write_attack_csv(tmp_path / "attack.csv", attack).read_bytes() == want

    reports = [
        DefenseReport(
            removed_fraction=np.float64(p),
            removed_ids=(),
            auc_before=np.float64(auc),
            auc_after=np.float64(auc),  # a tie
            test_accuracy_before=np.float64(0.1 + 0.2),
            test_accuracy_after=np.float64(1.0),
            n_train_after=4,
        )
        for p, auc in ((0.0, 0.75), (0.05, 0.75), (0.1, 2.0 / 3.0))
    ]
    fields = ("removed_fraction", "auc_before", "auc_after", "test_accuracy_before", "test_accuracy_after")
    rows = [tuple(repr(float(getattr(r, f))) for f in fields) for r in reports]
    header = ["p", "auc_before", "auc_after", "acc_before", "acc_after"]
    want = _csv_module_bytes(tmp_path / "sweep_ref.csv", header, rows)
    assert write_sweep_csv(tmp_path / "sweep.csv", reports).read_bytes() == want


def test_gradients_csv_refuses_descending_or_mixed_pairs(tmp_path):
    with pytest.raises(ValueError, match="ascend"):
        write_gradients_csv(tmp_path / "g.csv", [(2, np.ones((2, 3))), (1, np.ones((2, 3)))])
    with pytest.raises(ValueError, match="parameter dimension"):
        write_gradients_csv(tmp_path / "g.csv", [(1, np.ones((2, 3))), (2, np.ones((2, 4)))])
    with pytest.raises(ValueError, match="no gradient"):
        write_gradients_csv(tmp_path / "g.csv", [])


def test_sweep_csv_one_row_per_fraction(tmp_path):
    ds = make_blobs([40, 40], input_dim=4, center_distance=2.0, spread=2.0, seed=7)
    cfg = SamplingConfig(n_total=60, n_train=30, batch_size=10, n_iters=12, learning_rate=0.5, seed=3)
    spec = ModelSpec(kind=ModelKind.LOGISTIC, input_dim=4, n_classes=2)
    reports = run_defense_sweep(cfg, spec, ds, [0.0, 0.05, 0.10])
    path = write_sweep_csv(tmp_path / "sweep.csv", reports)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "p,auc_before,auc_after,acc_before,acc_after"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "0.05", "0.1"]
