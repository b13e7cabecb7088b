"""Command-line pipeline: every subcommand in-process, exit codes, artifacts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from gnqaudit.cli import RunConfig, main
from gnqaudit.models import gradient_all
from gnqaudit.reports import write_gradients_csv
from gnqaudit.training import AuditCadence, audited_iterations, load_trajectory

SCHEMAS = Path(__file__).resolve().parents[1] / "src" / "gnqaudit" / "schemas"
SCHEMA = json.loads((SCHEMAS / "report.schema.json").read_text())
CONFIG_SCHEMA = json.loads((SCHEMAS / "config.schema.json").read_text())


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def outlier_audit_config(tmp_path, out="run"):
    return write_config(
        tmp_path,
        {
            "sampling": {
                "n_total": 7,
                "n_train": 7,
                "batch_size": 7,
                "n_iters": 25,
                "learning_rate": 0.05,
                "seed": 0,
            },
            "model": {"kind": "linear2d", "input_dim": 1},
            "dataset": {"kind": "outlier_regression"},
            "output_dir": str(tmp_path / out),
        },
    )


def blob_config(tmp_path, out="run", extra=None, class_sizes=(40, 40)):
    # defend pool-splits and needs spare rows beyond n_total; the other
    # commands train on the dataset as-is, so pass class_sizes=(30, 30) there
    payload = {
        "sampling": {
            "n_total": 60,
            "n_train": 30,
            "batch_size": 10,
            "n_iters": 12,
            "learning_rate": 0.5,
            "seed": 3,
        },
        "model": {"kind": "logistic", "input_dim": 4, "n_classes": 2},
        "dataset": {
            "kind": "blobs",
            "class_sizes": list(class_sizes),
            "input_dim": 4,
            "center_distance": 2.0,
            "spread": 2.0,
            "seed": 7,
        },
        "output_dir": str(tmp_path / out),
    }
    payload.update(extra or {})
    return write_config(tmp_path, payload)


# gen-data -------------------------------------------------------------------------


def test_gen_data_outlier_writes_seven_rows(tmp_path):
    cfgp = write_config(
        tmp_path,
        {"dataset": {"kind": "outlier_regression"}, "output_dir": str(tmp_path / "o")},
    )
    assert main(["gen-data", "--config", cfgp]) == 0
    rows = (tmp_path / "o" / "dataset.csv").read_text().splitlines()
    assert len(rows) == 8  # header + 7 points
    assert (tmp_path / "o" / "run_config.json").exists()


def test_gen_data_blobs_row_count_and_rerun_bytes(tmp_path):
    cfgp = write_config(
        tmp_path,
        {
            "dataset": {"kind": "blobs", "class_sizes": [250, 150], "input_dim": 3, "seed": 5},
            "output_dir": str(tmp_path / "b"),
        },
    )
    assert main(["gen-data", "--config", cfgp]) == 0
    first = (tmp_path / "b" / "dataset.csv").read_bytes()
    assert first.decode().count("\n") == 401
    assert main(["gen-data", "--config", cfgp]) == 0
    assert (tmp_path / "b" / "dataset.csv").read_bytes() == first


def test_gen_data_seed_override_changes_output(tmp_path):
    cfgp = write_config(
        tmp_path,
        {
            "dataset": {"kind": "blobs", "class_sizes": [20, 20], "input_dim": 2, "seed": 5},
            "output_dir": str(tmp_path / "c"),
        },
    )
    assert main(["gen-data", "--config", cfgp]) == 0
    base = (tmp_path / "c" / "dataset.csv").read_bytes()
    assert main(["gen-data", "--config", cfgp, "--seed", "6", "--out", str(tmp_path / "d")]) == 0
    assert (tmp_path / "d" / "dataset.csv").read_bytes() != base


# train / audit ---------------------------------------------------------------------


def test_train_then_audit_reuses_checkpoint(tmp_path):
    cfgp = outlier_audit_config(tmp_path)
    assert main(["train", "--config", cfgp]) == 0
    out = tmp_path / "run"
    assert (out / "trajectory.json").exists()
    report = json.loads((out / "train_report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["report_kind"] == "train"

    assert main(["audit", "--config", cfgp, "--trajectory", str(out / "trajectory.json")]) == 0
    audit = json.loads((out / "audit_report.json").read_text())
    jsonschema.validate(audit, SCHEMA)
    assert (out / "scores.csv").exists()


def test_audit_ranks_the_outlier_first(tmp_path):
    # full-batch descent converges toward the six inliers' trend line, where
    # the off-trend seventh point dominates every uniqueness score
    cfgp = outlier_audit_config(tmp_path)
    assert main(["audit", "--config", cfgp]) == 0
    report = json.loads((tmp_path / "run" / "audit_report.json").read_text())
    assert report["ranking"][0] == 6


def test_audit_dump_gradients_writes_csv(tmp_path):
    cfgp = outlier_audit_config(tmp_path)
    assert main(["audit", "--config", cfgp, "--dump-gradients"]) == 0
    lines = (tmp_path / "run" / "gradients.csv").read_text().splitlines()
    assert lines[0] == "iteration,example_id,g_0,g_1"
    assert len(lines) > 7


def test_audit_dump_streams_each_iteration_from_one_buffer(tmp_path):
    # The dump refills one buffer per audited iteration; every iteration's
    # rows must still match its own freshly computed matrix.
    cfgp = outlier_audit_config(tmp_path)
    assert main(["train", "--config", cfgp]) == 0
    assert main(["audit", "--config", cfgp, "--dump-gradients"]) == 0
    out = tmp_path / "run"
    traj = load_trajectory(out / "trajectory.json")
    ds = RunConfig.from_json_dict(json.loads(Path(cfgp).read_text()), None, None).build_dataset()
    its = audited_iterations(traj.cfg, AuditCadence.EVERY_EPOCH)
    assert len(its) > 1
    fresh = [(it, gradient_all(traj.model, traj.params_per_iter[it], ds.features, ds.targets)) for it in its]
    write_gradients_csv(tmp_path / "fresh.csv", fresh)
    assert (out / "gradients.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_audit_reruns_byte_identical_with_timestamps_in_sidecar(tmp_path):
    cfgp = outlier_audit_config(tmp_path)
    assert main(["audit", "--config", cfgp]) == 0
    out = tmp_path / "run"
    first = {p.name: p.read_bytes() for p in out.iterdir() if not p.name.endswith(".meta.json")}
    assert main(["audit", "--config", cfgp]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir() if not p.name.endswith(".meta.json")}
    assert first == second
    meta = json.loads((out / "audit_report.json.meta.json").read_text())
    assert "written_at" in meta or any("time" in k or "at" in k for k in meta)


def test_audit_sidecar_counts_fallbacks_by_reason(tmp_path):
    # 60 examples against 72 parameters: no gradient lies in the others'
    # span, so no exact score can come from the shared factorization.
    cfgp = blob_config(
        tmp_path,
        class_sizes=(30, 30),
        extra={
            "model": {"kind": "mlp", "input_dim": 4, "hidden_dim": 10, "n_classes": 2,
                      "init": "seeded_gaussian"},
            "audit": {"mode": "full_exact", "cadence": "final_only"},
        },
    )
    assert main(["audit", "--config", cfgp]) == 0
    meta = json.loads((tmp_path / "run" / "audit_report.json.meta.json").read_text())
    fallbacks = meta["fallbacks"]
    assert fallbacks["total"] == sum(fallbacks["by_reason"].values()) == 60
    assert fallbacks["by_iteration"] == {"12": fallbacks["by_reason"]}
    # One spectrum entry per audited iteration; every row fell back.
    spectrum = meta["spectra"]["12"]
    assert set(meta["spectra"]) == {"12"}
    assert spectrum["rank"] + spectrum["null"] + len(spectrum["near_cutoff"]) == 72
    assert spectrum["secular"] == 0
    assert meta["report"] == "audit_report.json"


def test_threads_flag_is_gone():
    with pytest.raises(SystemExit):
        main(["oracle", "--config", "unused.json", "--threads", "2"])


# bound ------------------------------------------------------------------------------


def test_bound_report_contents(tmp_path):
    cfgp = write_config(
        tmp_path,
        {
            "sampling": {"n_total": 100, "n_train": 50, "batch_size": 10, "n_iters": 1, "learning_rate": 0.1},
            "bound": {"gnq": [0.0, 1.0, 10.0]},
            "output_dir": str(tmp_path / "bd"),
        },
    )
    assert main(["bound", "--config", cfgp]) == 0
    report = json.loads((tmp_path / "bd" / "bound_report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["prior_entropy_bits"] == 1.0
    rows = report["per_gnq"]
    assert [r["gnq"] for r in rows] == [0.0, 1.0, 10.0]
    assert rows[0]["per_iteration_bits"] == 0.0
    assert rows[0]["pe_lower_single_iteration"] == 0.5
    assert rows[1]["per_iteration_bits"] == pytest.approx(0.13152, abs=1e-5)
    bits = [r["per_iteration_bits"] for r in rows]
    assert bits == sorted(bits)


# attack / defend --------------------------------------------------------------------


def test_attack_writes_report_and_csv(tmp_path):
    cfgp = blob_config(
        tmp_path, out="atk", extra={"attack": {"n_bins": 4}}, class_sizes=(30, 30)
    )
    assert main(["attack", "--config", cfgp]) == 0
    report = json.loads((tmp_path / "atk" / "attack_report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert 0.0 <= report["auc"] <= 1.0
    lines = (tmp_path / "atk" / "attack.csv").read_text().splitlines()
    assert len(lines) == 61


def test_defend_zero_fraction_changes_nothing(tmp_path):
    cfgp = blob_config(tmp_path, out="dz", extra={"defense": {"p": 0.0}})
    assert main(["defend", "--config", cfgp]) == 0
    report = json.loads((tmp_path / "dz" / "defense_report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["removed_ids"] == []
    assert report["auc_before"] == report["auc_after"]
    assert report["test_accuracy_before"] == report["test_accuracy_after"]


def test_defend_sweep_writes_one_row_per_fraction(tmp_path):
    cfgp = blob_config(tmp_path, out="ds", extra={"defense": {"sweep": [0.01, 0.05, 0.10]}})
    assert main(["defend", "--config", cfgp]) == 0
    lines = (tmp_path / "ds" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4
    report = json.loads((tmp_path / "ds" / "defense_report.json").read_text())
    assert len(report["sweep"]) == 3
    jsonschema.validate(report, SCHEMA)
    # each entry holds the run's fields alone; the envelope is written once
    run_fields = set(SCHEMA["$defs"]["defense_run"]["required"])
    assert all(entry.keys() == run_fields for entry in report["sweep"])
    del report["sweep"][1]["auc_after"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, SCHEMA)


def test_single_run_defense_report_still_needs_every_field(tmp_path):
    cfgp = blob_config(tmp_path, out="dp", extra={"defense": {"p": 0.05}})
    assert main(["defend", "--config", cfgp]) == 0
    report = json.loads((tmp_path / "dp" / "defense_report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    del report["auc_after"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, SCHEMA)


def test_attack_and_defend_never_import_scipy(tmp_path):
    # Every subcommand runs in a fresh process, and importing scipy.stats
    # costs several times the import of numpy: the program runs on numpy alone.
    (tmp_path / "atk").mkdir()
    (tmp_path / "def").mkdir()
    attack = blob_config(tmp_path / "atk", class_sizes=(30, 30))
    defend = blob_config(tmp_path / "def", extra={"defense": {"p": 0.1}})
    code = (
        "import sys\n"
        "from gnqaudit.cli import main\n"
        f"assert main(['attack', '--config', {attack!r}]) == 0\n"
        f"assert main(['defend', '--config', {defend!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# oracle -----------------------------------------------------------------------------


def test_oracle_passes_and_reports(tmp_path):
    cfgp = write_config(tmp_path, {"oracle": {"seed": 0}, "output_dir": str(tmp_path / "ok")})
    assert main(["oracle", "--config", cfgp]) == 0
    report = json.loads((tmp_path / "ok" / "oracle_report.json").read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["passed"] is True


def test_oracle_seed_flag_overrides_the_config_seed(tmp_path):
    configs = {
        "flag": ({"oracle": {"seed": 0}}, ["--seed", "3"]),
        "no-section": ({}, ["--seed", "3"]),
        "config": ({"oracle": {"seed": 3}}, []),
        "seed-0": ({"oracle": {"seed": 0}}, []),
    }
    reports = {}
    for name, (payload, flags) in configs.items():
        cfgp = write_config(tmp_path, payload, name=f"{name}.json")
        assert main(["oracle", "--config", cfgp, "--out", str(tmp_path / name), *flags]) == 0
        reports[name] = json.loads((tmp_path / name / "oracle_report.json").read_text())
        run_config = json.loads((tmp_path / name / "run_config.json").read_text())
        assert run_config["oracle"]["seed"] == reports[name]["config"]["oracle"]["seed"]
    assert reports["flag"]["checks"] == reports["config"]["checks"]
    assert reports["no-section"]["checks"] == reports["config"]["checks"]
    assert reports["seed-0"]["checks"] != reports["config"]["checks"]
    assert reports["flag"]["config"]["oracle"]["seed"] == 3


def test_oracle_corruption_exits_5_and_names_the_formula(tmp_path, capsys):
    cfgp = write_config(
        tmp_path, {"oracle": {"seed": 0, "corrupt": "kappa"}, "output_dir": str(tmp_path / "bad")}
    )
    assert main(["oracle", "--config", cfgp]) == 5
    err = capsys.readouterr().err
    assert "kappa" in err
    report = json.loads((tmp_path / "bad" / "oracle_report.json").read_text())
    assert report["passed"] is False
    assert report["config"]["oracle"]["corrupt"] == "kappa"


def test_oracle_corrupt_flag_is_gone():
    with pytest.raises(SystemExit):
        main(["oracle", "--config", "c.json", "--corrupt", "kappa"])


def test_oracle_ignores_the_size_of_a_sampling_section(tmp_path):
    # The battery runs its own instances: a sampling section too large to
    # enumerate (N = 20) neither fails the run nor changes its checks.
    sampling = {"n_total": 20, "n_train": 10, "batch_size": 2, "n_iters": 1, "learning_rate": 0.1}
    checks = {}
    for name, payload in (("plain", {}), ("sampled", {"sampling": sampling})):
        cfgp = write_config(tmp_path, {"oracle": {"seed": 0}, **payload}, name=f"{name}.json")
        assert main(["oracle", "--config", cfgp, "--out", str(tmp_path / name)]) == 0
        checks[name] = json.loads((tmp_path / name / "oracle_report.json").read_text())["checks"]
    assert checks["sampled"] == checks["plain"]


# failure modes ----------------------------------------------------------------------


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "absent.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["train", "--config", str(path)]) == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfgp = write_config(tmp_path, {"dataset": {"kind": "outlier_regression"}, "surprise": 1})
    assert main(["gen-data", "--config", cfgp]) == 2
    assert "surprise" in capsys.readouterr().err


def test_empty_dataset_file_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    cfgp = write_config(
        tmp_path,
        {"dataset": {"kind": "csv", "path": str(empty)}, "output_dir": str(tmp_path / "e")},
    )
    assert main(["gen-data", "--config", cfgp]) == 2
    assert "empty" in capsys.readouterr().err


def test_missing_required_section_exits_2(tmp_path, capsys):
    cfgp = write_config(tmp_path, {"dataset": {"kind": "outlier_regression"}})
    assert main(["train", "--config", cfgp]) == 2
    assert "section" in capsys.readouterr().err


def test_divergent_run_exits_4(tmp_path):
    cfgp = write_config(
        tmp_path,
        {
            "sampling": {"n_total": 7, "n_train": 7, "batch_size": 7, "n_iters": 200, "learning_rate": 1e6},
            "model": {"kind": "linear2d", "input_dim": 1},
            "dataset": {"kind": "outlier_regression"},
            "output_dir": str(tmp_path / "dv"),
        },
    )
    assert main(["train", "--config", cfgp]) == 4


def test_audit_capacity_exits_3(tmp_path):
    cfgp = write_config(
        tmp_path,
        {
            "sampling": {"n_total": 8, "n_train": 4, "batch_size": 2, "n_iters": 1, "learning_rate": 0.1},
            "model": {"kind": "mlp", "input_dim": 100, "hidden_dim": 100, "n_classes": 50, "init": "seeded_gaussian"},
            "dataset": {"kind": "blobs", "class_sizes": [4, 4], "input_dim": 100, "seed": 0},
            "output_dir": str(tmp_path / "big"),
        },
    )
    assert main(["audit", "--config", cfgp]) == 3


def test_checkpoint_config_mismatch_exits_2(tmp_path, capsys):
    cfgp = outlier_audit_config(tmp_path)
    assert main(["train", "--config", cfgp]) == 0
    other = write_config(
        tmp_path,
        {
            "sampling": {"n_total": 7, "n_train": 7, "batch_size": 7, "n_iters": 30, "learning_rate": 0.05},
            "model": {"kind": "linear2d", "input_dim": 1},
            "dataset": {"kind": "outlier_regression"},
            "output_dir": str(tmp_path / "run2"),
        },
        name="other.json",
    )
    traj = str(tmp_path / "run" / "trajectory.json")
    assert main(["audit", "--config", other, "--trajectory", traj]) == 2
    assert "different sampling config" in capsys.readouterr().err
    # Same sampling, different model: a logistic checkpoint under an MLP config.
    logistic = blob_config(tmp_path, out="blob", class_sizes=(30, 30))
    assert main(["train", "--config", logistic]) == 0
    mlp = json.loads(Path(logistic).read_text())
    mlp["model"] = {"kind": "mlp", "input_dim": 4, "hidden_dim": 3, "n_classes": 2}
    mlp_cfg = write_config(tmp_path, mlp, name="mlp.json")
    blob_traj = str(tmp_path / "blob" / "trajectory.json")
    for command in ("audit", "attack"):
        assert main([command, "--config", mlp_cfg, "--trajectory", blob_traj]) == 2
        assert "different model config" in capsys.readouterr().err
    # Same sampling and model, a dataset of the same size from another blob seed.
    swapped = json.loads(Path(logistic).read_text())
    swapped["dataset"]["seed"] = 8
    swapped_cfg = write_config(tmp_path, swapped, name="swapped.json")
    for command in ("audit", "attack"):
        assert main([command, "--config", swapped_cfg, "--trajectory", blob_traj]) == 2
        assert "different dataset" in capsys.readouterr().err
    assert main(["audit", "--config", logistic, "--trajectory", blob_traj]) == 0


def _set(section, key, value):
    def edit(payload):
        payload.setdefault(section, {})[key] = value
        return payload

    return edit


def _param(value):
    def edit(payload):
        payload["params_per_iter"][3][1] = value
        return payload

    return edit


@pytest.mark.parametrize(
    "edit_config, edit_checkpoint, names",
    [
        pytest.param(lambda c: {**c, "dataset": {"kind": "csv"}}, None, "path", id="csv-without-path"),
        pytest.param(
            lambda c: {**c, "dataset": {"kind": "blobs"}}, None, "class_sizes", id="blobs-without-sizes"
        ),
        pytest.param(_set("attack", "n_bins", "x"), None, "attack.n_bins", id="attack.n_bins"),
        pytest.param(_set("oracle", "seed", "abc"), None, "oracle.seed", id="oracle.seed"),
        pytest.param(_set("sampling", "n_total", "x"), None, "sampling.n_total", id="sampling.n_total"),
        pytest.param(_set("model", "input_dim", "q"), None, "model.input_dim", id="model.input_dim"),
        pytest.param(_set("defense", "p", "zz"), None, "defense.p", id="defense.p"),
        pytest.param(_set("bound", "gnq", 5), None, "bound.gnq", id="bound.gnq"),
        # Ill-typed values the schema refuses: none may be coerced into a run.
        pytest.param(_set("sampling", "n_iters", 12.7), None, "sampling.n_iters", id="float-n_iters"),
        pytest.param(_set("sampling", "n_train", "30"), None, "sampling.n_train", id="quoted-n_train"),
        pytest.param(
            _set("sampling", "learning_rate", "0.5"), None, "sampling.learning_rate", id="quoted-learning_rate"
        ),
        pytest.param(_set("sampling", "seed", True), None, "sampling.seed", id="boolean-seed"),
        pytest.param(_set("model", "input_dim", 4.2), None, "model.input_dim", id="float-input_dim"),
        pytest.param(
            lambda c: {**c, "dataset": {"kind": "blobs", "class_sizes": [30.8, 30.2]}},
            None,
            "dataset.class_sizes",
            id="float-class_sizes",
        ),
        pytest.param(_set("attack", "n_bins", 2.5), None, "attack.n_bins", id="float-n_bins"),
        pytest.param(_set("audit", "tol", "1e-10"), None, "audit.tol", id="quoted-tol"),
        pytest.param(_set("audit", "mode", "batch_exact"), None, "audit.mode", id="batch-exact-mode"),
        pytest.param(_set("audit", "mode", "batch_diagonal"), None, "audit.mode", id="batch-diagonal-mode"),
        pytest.param(_set("oracle", "seed", 1.5), None, "oracle.seed", id="float-oracle-seed"),
        pytest.param(_set("defense", "p", "0.1"), None, "defense.p", id="quoted-defense-p"),
        pytest.param(_set("bound", "gnq", ["1"]), None, "bound.gnq", id="quoted-gnq"),
        pytest.param(_set("bound", "gnq", []), None, "bound.gnq", id="empty-gnq"),
        pytest.param(_set("oracle", "seed", -1), None, "oracle.seed", id="negative-oracle-seed"),
        pytest.param(_set("audit", "tol", 1.0), None, "audit tol", id="tol-one"),
        pytest.param(_set("sampling", "seed", 2**64), None, "seed must fit in u64", id="seed-past-u64"),
        pytest.param(lambda c: {**c, "defense": {}}, None, "exactly one of p, sweep", id="defense-neither"),
        pytest.param(
            lambda c: {**c, "defense": {"p": 0.1, "sweep": [0.1]}},
            None,
            "exactly one of p, sweep",
            id="defense-both",
        ),
        # Values of the right type that the schema's limits refuse, at load,
        # whether or not the command builds the dataset.
        pytest.param(
            lambda c: {**c, "dataset": {"kind": "blobs", "class_sizes": [4, 3], "input_dim": 1, "seed": -1}},
            None,
            "dataset.seed",
            id="negative-blobs-seed",
        ),
        pytest.param(
            lambda c: {**c, "dataset": {"kind": "linear", "n": 7, "seed": -4}},
            None,
            "dataset.seed",
            id="negative-linear-seed",
        ),
        pytest.param(
            lambda c: {**c, "dataset": {"kind": "blobs", "class_sizes": [4, 3], "input_dim": 1, "spread": 0}},
            None,
            "dataset.spread",
            id="zero-spread",
        ),
        pytest.param(
            lambda c: {**c, "dataset": {"kind": "blobs", "class_sizes": [4, 3], "input_dim": 1, "center_distance": 0}},
            None,
            "dataset.center_distance",
            id="zero-center-distance",
        ),
        pytest.param(
            lambda c: {**c, "dataset": {"kind": "blobs", "class_sizes": [7, 0], "input_dim": 1}},
            None,
            "dataset.class_sizes",
            id="empty-class",
        ),
        pytest.param(
            lambda c: {**c, "dataset": {"kind": "blobs", "class_sizes": [7], "input_dim": 1}},
            None,
            "dataset.class_sizes",
            id="one-class",
        ),
        pytest.param(
            lambda c: {**c, "dataset": {"kind": "linear", "n": 7, "noise_scale": -0.5}},
            None,
            "dataset.noise_scale",
            id="negative-noise-scale",
        ),
        pytest.param(
            lambda c: {**c, "dataset": {"kind": "linear", "n": 1}}, None, "dataset.n", id="one-row-linear"
        ),
        pytest.param(_set("model", "init_scale", 0), None, "model.init_scale", id="zero-init-scale-zeros-init"),
        pytest.param(_set("model", "hidden_dim", -1), None, "model.hidden_dim", id="negative-hidden-dim"),
        pytest.param(
            None,
            lambda t: {k: v for k, v in t.items() if k != "dataset_sha256"},
            "dataset_sha256",
            id="checkpoint-without-sha",
        ),
        pytest.param(None, _param("x"), None, id="checkpoint-string-param"),
        pytest.param(None, _param("1.5"), None, id="checkpoint-quoted-number"),
        pytest.param(None, _param("nan"), None, id="checkpoint-quoted-nan"),
        pytest.param(None, _param(True), None, id="checkpoint-boolean-param"),
        pytest.param(None, _param(None), None, id="checkpoint-null-param"),
        pytest.param(None, _param(float("nan")), None, id="checkpoint-nan-param"),
        pytest.param(None, _param(float("inf")), None, id="checkpoint-infinite-param"),
        pytest.param(None, _param(10**400), None, id="checkpoint-overflowing-param"),
        pytest.param(None, lambda t: [t], None, id="checkpoint-list"),
        # The checkpoint's sections go through the config reader too.
        pytest.param(None, _set("sampling", "n_iters", 25.0), "sampling.n_iters", id="checkpoint-float-n_iters"),
        pytest.param(None, _set("model", "depth", 3), "model: depth", id="checkpoint-unknown-model-key"),
    ],
)
def test_malformed_values_exit_2(tmp_path, capsys, edit_config, edit_checkpoint, names):
    cfgp = outlier_audit_config(tmp_path)
    argv = ["audit", "--config", cfgp]
    if edit_config is not None:
        edited = edit_config(json.loads(Path(cfgp).read_text()))
        with pytest.raises(jsonschema.ValidationError):  # the shipped schema agrees
            jsonschema.validate(edited, CONFIG_SCHEMA)
        write_config(tmp_path, edited)
    if edit_checkpoint is not None:
        assert main(["train", "--config", cfgp]) == 0
        ckpt = tmp_path / "run" / "trajectory.json"
        ckpt.write_text(json.dumps(edit_checkpoint(json.loads(ckpt.read_text()))))
        argv += ["--trajectory", str(ckpt)]
        capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if edit_checkpoint is not None:
        assert "trajectory.json" in err  # refused on loading, not later
    if names is not None:
        assert names in err


def test_older_checkpoint_format_exits_2_and_names_the_version(tmp_path, capsys):
    cfgp = outlier_audit_config(tmp_path)
    assert main(["train", "--config", cfgp]) == 0
    ckpt = tmp_path / "run" / "trajectory.json"
    payload = json.loads(ckpt.read_text())
    payload["format_version"] = 2
    ckpt.write_text(json.dumps(payload))
    assert main(["audit", "--config", cfgp, "--trajectory", str(ckpt)]) == 2
    assert "format_version 2" in capsys.readouterr().err


def test_reloaded_checkpoint_writes_the_fresh_train_bytes(tmp_path):
    # The attack reads membership, which comes from the sampling seed
    # whether or not a checkpoint is given.
    cfgp = blob_config(
        tmp_path, class_sizes=(30, 30), extra={"audit": {"mode": "full_exact", "cadence": "every_iteration"}}
    )
    out = tmp_path / "run"
    artifacts = ("audit_report.json", "scores.csv", "attack_report.json", "attack.csv")
    assert main(["audit", "--config", cfgp]) == 0
    assert main(["attack", "--config", cfgp]) == 0
    fresh = {name: (out / name).read_bytes() for name in artifacts}
    assert main(["train", "--config", cfgp]) == 0
    ckpt = str(out / "trajectory.json")
    for name in artifacts:
        (out / name).unlink()
    assert main(["audit", "--config", cfgp, "--trajectory", ckpt]) == 0
    assert main(["attack", "--config", cfgp, "--trajectory", ckpt]) == 0
    assert {name: (out / name).read_bytes() for name in artifacts} == fresh
