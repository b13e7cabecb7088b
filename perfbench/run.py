"""Benchmark of the gnqaudit CLI: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload exact-epoch --seed 0 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each
    python3 perfbench/run.py --smoke

Run from the repository root. The program is imported from ./src, never from
an installed copy. An operation is one in-process call of
`gnqaudit.cli.main` (CLI, library and report writing timed together); the
next operation starts only after the previous one returned, and only while
it is expected to end within --seconds (default: BENCHMARK.json's
run_seconds; at least one operation always runs). setup_s is the median of
five set-up repeats, one after each of the first operations: a fresh Python
process importing the program, then data generation, CSV and config writing
and training the checkpoint.

The inputs come from --seed alone: sampling seed s, blob seed 100 + s, except
for a workload that fixes its data seed in workloads.json, where --seed only
picks which audited iterations have their scores recomputed. The program
sees only the generated config JSON and dataset CSV (plus, for audits, the
checkpoint its own `train` command wrote during set-up). After the timed
loop, every operation's outputs are checked (report schema, recomputed
scores of seeded whole iterations or the defense report's consistency, byte
identity across operations); a failed check or a nonzero exit counts the
operation as failed, and each check's count of failed operations is printed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 wraps
the program's layers (see spans.py) and reports the per-layer metrics. The
tracing overhead is traced.op_s minus op_s of an untraced run; compare.py
prints it. Human-readable lines go first; the last stdout line is the JSON
result, and a fuller record goes to .perfbench/results/.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = f"import sys; sys.path.insert(0, {str(SRC)!r}); import gnqaudit.cli"


def cap_blas_threads() -> int:
    """Set every BLAS pool to nproc threads, whatever the environment says; before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(cap)
    return cap


def import_program() -> None:
    if not (SRC / "gnqaudit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'gnqaudit'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gnqaudit
    import gnqaudit.cli

    if Path(gnqaudit.__file__).resolve().parent != (SRC / "gnqaudit").resolve():
        sys.exit(f"perfbench: imported gnqaudit from {gnqaudit.__file__}, not {SRC}")


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# -- environment -------------------------------------------------------------


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "gnqaudit").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(seed: int, blas_cap: int) -> dict:
    import numpy as np
    import scipy

    def blas_version(mod) -> str | None:
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, ValueError):
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(np),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": blas_cap,
        "workload_seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "machine": platform.machine(),
    }


# -- workload set-up ---------------------------------------------------------


def write_inputs(spec: dict, seed: int, work: Path) -> dict:
    """Generate the dataset CSV and config JSON; train the checkpoint for audits."""
    import gnqaudit.cli
    from gnqaudit.data import make_blobs, save_csv_dataset
    from gnqaudit.defense import split_pool
    from gnqaudit.sampling import SamplingConfig

    work.mkdir(parents=True, exist_ok=True)
    blobs = spec["blobs"]
    data = make_blobs(
        blobs["class_sizes"], blobs["input_dim"], blobs["center_distance"], blobs["spread"],
        seed=100 + seed,
    )
    sampling = dict(spec["sampling"], seed=seed)
    if spec["op"] == "audit" and len(data) > sampling["n_total"]:
        data, _ = split_pool(data, SamplingConfig.from_json_dict(sampling))
    rel = work.relative_to(ROOT)
    paths = {
        "data": rel / "data.csv",
        "config": rel / "config.json",
        "out": rel / "op",
        "checkpoint": rel / "checkpoint" / "trajectory.json",
    }
    save_csv_dataset(ROOT / paths["data"], data)
    config = {
        "sampling": sampling,
        "model": spec["model"],
        "dataset": {"kind": "csv", "path": paths["data"].as_posix(), "target": "target"},
        "output_dir": paths["out"].as_posix(),
    }
    for section in ("audit", "defense"):
        if section in spec:
            config[section] = spec[section]
    (ROOT / paths["config"]).write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    if spec["op"] == "audit":
        with contextlib.redirect_stdout(io.StringIO()):
            rc = gnqaudit.cli.main(
                ["train", "--config", str(paths["config"]), "--out", str(paths["checkpoint"].parent)]
            )
        if rc != 0:
            raise RuntimeError(f"training the checkpoint exited {rc}")
    return paths


def setup_repeat(spec: dict, data_seed: int, work: Path) -> float:
    """One full set-up as a new process would pay it: start and imports, then the inputs."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True)
    write_inputs(spec, data_seed, work)
    return time.perf_counter() - t


def op_argv(spec: dict, paths: dict) -> list[str]:
    argv = [spec["op"], "--config", str(paths["config"]), "--out", str(paths["out"])]
    if spec["op"] == "audit":
        argv += ["--trajectory", str(paths["checkpoint"])]
    return argv


# -- metrics -----------------------------------------------------------------


def layer_metrics(agg: dict, op_wall: float, out_bytes: int) -> dict[str, float]:
    ls, li, lc = agg["layer_self"], agg["layer_incl"], agg["layer_calls"]
    ns, ni, nc = agg["name_self"], agg["name_incl"], agg["name_calls"]
    scores = agg["counters"].get("scores", 0)
    return {
        "cli.self_s": ls["cli"],
        "data.build_s": li["data"],
        "training.load_trajectory_s": ni["training.load_trajectory"],
        "training.train.calls": nc["training.train"],
        "training.train_s": ni["training.train"],
        "training.audit.calls": nc["training.audit"],
        "training.audit.self_s": ns["training.audit"],
        "models.gradient_all.calls": nc["models.gradient_all"],
        "models.gradient_all_s": ni["models.gradient_all"],
        "geometry.score_s": ls["geometry"],
        "geometry.scores": scores,
        "geometry.factor.calls": lc["factor"],
        "geometry.factor_s": li["factor"],
        "geometry.factor.n3": agg["layer_n3"]["factor"],
        "geometry.factor_per_score": lc["factor"] / scores if scores else 0.0,
        "bounds.calls": lc["bounds"],
        "bounds_s": li["bounds"],
        "sampling.indicator_moments.calls": nc["sampling.indicator_moments"],
        "attack.loss_attack_s": ni["attack.loss_attack"],
        "defense.self_s": ls["defense"],
        "reports.write_s": li["reports"],
        "reports.bytes": out_bytes,
        "traced.op_s": op_wall,
        "trace.spans": agg["spans"],
    }


def tail_note(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return f"no tail percentile: {n} samples, 20 needed for ten beyond the median"
    p = math.floor(100 * (1 - 10 / n))
    value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return f"p{p} {value:.6f} s"


# -- one run -----------------------------------------------------------------


def run_workload(
    name: str,
    spec: dict,
    seed: int,
    seconds: float,
    trace: bool,
    bench: dict,
    import_s: float,
    blas_cap: int,
    results_dir: Path,
    perturb: bool = False,
    setup_repeats: int = SETUP_REPEATS,
) -> tuple[list[str], dict]:
    import gnqaudit
    import gnqaudit.cli
    from gnqaudit.models import ModelSpec

    import checks
    import spans

    work = ROOT / ".perfbench" / name
    shutil.rmtree(work, ignore_errors=True)
    data_seed = spec.get("fixed_data_seed", seed)

    t = time.perf_counter()
    paths = write_inputs(spec, data_seed, work)
    first_setup_s = import_s + time.perf_counter() - t
    # The repeats write their own copy of the inputs, so the operations' stay untouched.
    setup_times: list[float] = []

    # Every operation writes to the same directory, because the output path is
    # part of the config hashed into the reports; the first one's is kept.
    out, first = ROOT / paths["out"], work / "first"
    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    ops = []
    loop_start = time.perf_counter()
    try:
        while True:
            step_start = time.perf_counter()
            shutil.rmtree(out, ignore_errors=True)
            gc.collect()  # each operation starts from a collected heap
            if tracer is not None:
                tracer.reset()
                tracer.active = True
            rc, err = None, None
            t = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = gnqaudit.cli.main(op_argv(spec, paths))
            except Exception:
                err = traceback.format_exc()
            wall = time.perf_counter() - t
            if tracer is not None:
                tracer.active = False
            digest, nbytes = checks.tree_digest(out)
            op = {"wall_s": wall, "rc": rc, "sha256": digest, "bytes": nbytes, "error": err}
            if err is not None:
                print(f"perfbench: operation {len(ops)} raised:\n{err}", file=sys.stderr)
            if tracer is not None:
                op["layers"] = layer_metrics(tracer.summarize(), wall, nbytes)
                if not ops:
                    tracer.write_spans(work / "spans_op0.csv.gz")
            if not ops and out.is_dir():
                out.rename(first)
            ops.append(op)
            if len(setup_times) < setup_repeats:
                setup_times.append(setup_repeat(spec, data_seed, work / "setup-repeat"))
            now = time.perf_counter()
            if now - loop_start + (now - step_start) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    while len(setup_times) < setup_repeats:
        setup_times.append(setup_repeat(spec, data_seed, work / "setup-repeat"))
    setup_s = statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Content checks on the first operation's outputs; later ones must match its bytes.
    problems: dict[str, list[str]] = {}
    score_check = None
    if ops[0]["rc"] == 0:
        if perturb:
            _perturb_scores(first / "scores.csv")
        schema = Path(gnqaudit.__file__).parent / "schemas" / "report.schema.json"
        problems["schema"] = checks.check_reports_schema(first, schema)
        if spec["op"] == "audit":
            problems["scores"], score_check = checks.check_scores(
                first, ROOT / paths["data"], ROOT / paths["checkpoint"],
                ModelSpec.from_json_dict(spec["model"]), spec["audit"].get("tol", 1e-10),
                spec["check_samples"], seed,
            )
        else:
            problems["defense"] = checks.check_defense(
                first, spec["defense"]["p"], spec["sampling"]["n_total"]
            )
    for check, found in problems.items():
        for p in found:
            print(f"perfbench: {check} check failed: {p}", file=sys.stderr)
    # Each operation is failed by the checks it fails; every check's count is
    # printed, so a check that always fails does not hide another one.
    for op in ops:
        if op["rc"] != 0:
            op["failed"] = ["exit"]
        elif op["sha256"] != ops[0]["sha256"]:
            op["failed"] = ["bytes"]
        else:
            op["failed"] = [check for check, found in problems.items() if found]
    failed = sum(bool(op["failed"]) for op in ops)
    failed_by_check = {
        check: sum(check in op["failed"] for op in ops) for check in ("exit", "bytes", *problems)
    }

    walls = [op["wall_s"] for op in ops]
    size = spec["size"]
    lines = [
        f"workload {name}  seed {seed}  data seed {data_seed}  trace {int(trace)}  "
        f"operations {len(ops)}  (per operation: N={size['N']} N_p={size['N_p']} "
        f"audits={size['audits']} scores={size['scores']})",
    ]
    if trace:
        section = bench["per_layer"]
        values = {m: statistics.median(op["layers"][m] for op in ops) for m in ops[0]["layers"]}
    else:
        section = bench["end_to_end"]
        values = {"setup_s": setup_s, "op_s": statistics.median(walls), "peak_rss_mb": peak_rss_mb}
    metrics = {}
    for m in section:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        lines.append(f"{m['name']:<34} {values[m['name']]:.6g} {m['unit']}")
    lines.append(f"{'ops_failed_frac':<34} {failed / len(ops):.6g} fraction ({failed} of {len(ops)})")
    if not trace:
        lines.append(f"{'op_s tail':<34} {tail_note(walls)}")
        lines.append(f"{'throughput':<34} {size['scores'] / values['op_s']:.6g} scores/s")
        lines.append(f"{'setup_s repeats':<34} median of "
                     f"{', '.join(f'{t:.4f}' for t in setup_times)} s "
                     f"(first set-up in this process {first_setup_s:.4f} s)")
    lines.append(f"{'failed ops by check':<34} "
                 + ", ".join(f"{check} {n}" for check, n in failed_by_check.items()))
    if tracer is not None and tracer.absent:
        lines.append(f"{'absent spans':<34} {', '.join(tracer.absent)}")
    if score_check:
        lines.append(f"{'scores checked':<34} {score_check['scores']} in iterations "
                     f"{score_check['iterations']}, {score_check['binding_fallback_rows']} on the "
                     f"fallback path above {checks.ATOL / checks.RTOL:g}; "
                     f"worst relative gap {score_check['worst_relative_gap']:.3g}")
    lines.append(f"{'report_sha256':<34} {ops[0]['sha256']}")

    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    record = {
        "workload": name,
        "seed": seed,
        "data_seed": data_seed,
        "trace": int(trace),
        "seconds": seconds,
        "result": result,
        "ops_failed_frac": failed / len(ops),
        "setup_times_s": setup_times,
        "first_setup_s": first_setup_s,
        "import_s": import_s,
        "ops": ops,
        "problems": problems,
        "failed_ops_by_check": failed_by_check,
        "score_check": score_check,
        "absent_spans": tracer.absent if tracer is not None else [],
        "size": size,
        "reference_counts_seed0": spec.get("reference_counts_seed0"),
        "env": environment(seed, blas_cap),
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}.seed{seed}.trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    return lines, result


def _perturb_scores(path: Path) -> None:
    """Change the largest gnq value in scores.csv by 0.1% (smoke test of the checks)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    i = max(range(len(rows)), key=lambda r: float(rows[r][3]))
    rows[i][3] = repr(float(rows[i][3]) * 1.001 + 1e-3)
    path.write_text("\n".join([lines[0], *(",".join(r) for r in rows)]) + "\n", encoding="utf-8")


# -- smoke mode ----------------------------------------------------------------


def smoke(workloads: dict, bench: dict, import_s: float, blas_cap: int) -> int:
    """Self-test of the harness on the README's N=60 config.

    Runs every operation kind in both trace modes and fails when a metric is
    missing from the JSON or its printed line, or when a perturbed scores.csv
    value is not counted as a failed operation. Check failures of the
    unperturbed program are printed but are findings about the program, not
    harness failures.
    """
    small = workloads["smoke"]
    results_dir = ROOT / ".perfbench" / "smoke-results"
    failures = []
    for name, spec in workloads["workloads"].items():
        spec = dict(spec, blobs=small["blobs"], sampling=small["sampling"], model=small["model"],
                    size=small["size"], check_samples=10**6)
        spec.pop("fixed_data_seed", None)
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            lines, result = run_workload(name, spec, 0, 0.0, trace, bench, import_s,
                                         blas_cap, results_dir, setup_repeats=1)
            print("\n".join(lines))
            expected = [*bench[section], {"name": "ops_failed_frac", "unit": "fraction"}]
            for m in expected:
                if not any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                           or line.startswith(m["name"] + " ") and f" {m['unit']} (" in line
                           for line in lines):
                    failures.append(f"{name} trace {int(trace)}: {m['name']} [{m['unit']}] not printed")
            if set(result["metrics"]) != {m["name"] for m in bench[section]}:
                failures.append(f"{name} trace {int(trace)}: JSON metrics {sorted(result['metrics'])}")
            if result["failed"]:
                print(f"smoke: program check failed on {name} trace {int(trace)} (see stderr)")
        if name == "exact-epoch":
            _, result = run_workload(name, spec, 0, 0.0, False, bench, import_s, blas_cap,
                                     results_dir, perturb=True, setup_repeats=1)
            if result["failed"] != result["attempted"]:
                failures.append(f"{name}: perturbed scores.csv was not counted as failed")
    for f in failures:
        print(f"smoke: FAIL {f}")
    print("smoke: harness ok" if not failures else f"smoke: {len(failures)} harness failure(s)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed loop (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=ROOT / ".perfbench" / "results",
                        help="directory for the full per-run records")
    parser.add_argument("--smoke", action="store_true",
                        help="run the harness's self-test on the README config")
    args = parser.parse_args(argv)
    bench = load_json(ROOT / "BENCHMARK.json")
    workloads = load_json(HERE / "workloads.json")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(seconds), "--trace", str(args.trace),
                            "--results", str(args.results)]).returncode
            for name in workloads["workloads"]
        ]
        return max(codes)
    if not args.smoke and args.workload not in workloads["workloads"]:
        parser.error(f"--workload must be one of all, {', '.join(workloads['workloads'])}")

    blas_cap = cap_blas_threads()
    import_program()  # with numpy and scipy: the import cost counted in setup_s
    import_s = time.perf_counter() - _T0
    os.chdir(ROOT)

    if args.smoke:
        return smoke(workloads, bench, import_s, blas_cap)
    lines, result = run_workload(
        args.workload, workloads["workloads"][args.workload], args.seed, seconds,
        bool(args.trace), bench, import_s, blas_cap, args.results,
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
