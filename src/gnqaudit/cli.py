"""Single executable for the whole pipeline.

Subcommands: gen-data, train, audit, bound, attack, defend, oracle. Anything
structural lives in the JSON config; flags cover only paths, seed override,
and the gradient dump toggle, so one config file is the full provenance of a
run; BLAS thread pools follow OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS. The config, after --seed, is read through the shipped
config.schema.json (sampling.check_config), stricter than JSON Schema in two
rules: an integer is never a float, 12.0 included, and a number is never NaN
or +-Infinity. No value is coerced; anything else exits 2, naming the key.
Every command writes its effective config back to the output directory and
exits 0 on success, 2 on config errors, 3 on capacity errors, 4 on
divergence, 5 on verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from collections.abc import Callable
from dataclasses import MISSING
from pathlib import Path

import numpy as np

from ._version import __version__
from .attack import loss_attack, success_vs_gnq
from .bounds import (
    fano_error_bound,
    growth_condition_holds,
    kappa_regime_note,
    per_iteration_leakage,
    prior_entropy,
)
from .canonical import write_json
from .data import (
    Dataset,
    load_csv_dataset,
    make_blobs,
    make_linear_dataset,
    make_outlier_regression_dataset,
    save_csv_dataset,
)
from .defense import run_defense_sweep
from .errors import AuditError, ConfigurationError, VerificationError
from .geometry import DEFAULT_TOL, GramMode
from .models import ModelSpec, gradient_all
from .oracle import run_oracle_checks
from .reports import (
    attack_report,
    audit_health,
    audit_report,
    defense_report,
    finalize_report,
    oracle_report,
    write_attack_csv,
    write_gradients_csv,
    write_report,
    write_scores_csv,
    write_sweep_csv,
)
from .sampling import ConfigSection, SamplingConfig, check_config, config_schema
from .training import AuditCadence, audit, load_trajectory, save_trajectory, train

# Each dataset kind's builder and its keys' defaults (MISSING where
# config.schema.json requires the key), in the order of the builder's arguments.
_DATASETS = {
    "outlier_regression": (make_outlier_regression_dataset, {}),
    "blobs": (
        make_blobs,
        {"class_sizes": MISSING, "input_dim": 2, "center_distance": 2.0, "spread": 1.0, "seed": 0},
    ),
    "linear": (
        make_linear_dataset,
        {"n": MISSING, "slope": 1.0, "intercept": 0.0, "noise_scale": 0.1,
         "x_low": 0.0, "x_high": 1.0, "seed": 0},
    ),
    "csv": (load_csv_dataset, {"path": MISSING, "target": "target"}),
}


def _seeded(section, seed_override: int | None):
    """The section with --seed in place of its seed, when one was given."""
    if seed_override is None or not isinstance(section, dict):
        return section
    return {**section, "seed": seed_override}


@dataclasses.dataclass(frozen=True)
class AuditSettings(ConfigSection):
    section = "audit"

    mode: GramMode = GramMode.FULL_EXACT
    cadence: AuditCadence = AuditCadence.EVERY_EPOCH
    tol: float = DEFAULT_TOL


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated view of the JSON config; every present section parses eagerly."""

    raw: dict
    sampling: SamplingConfig | None
    model: ModelSpec | None
    dataset: dict | None
    build_dataset: Callable[[], Dataset] | None
    audit: AuditSettings
    bound_gnq: tuple[float, ...]
    attack_bins: int
    defense_fractions: tuple[float, ...] | None
    oracle: dict
    oracle_seed: int
    oracle_corrupt: str | None
    output_dir: Path

    @classmethod
    def from_json_dict(cls, raw: dict, out_override: str | None, seed_override: int | None) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError("config root must be a JSON object")
        # --seed stands in for every seed before the whole config is checked.
        seeded = dict(raw, oracle=_seeded(raw.get("oracle", {}), seed_override))
        if "sampling" in raw:
            seeded["sampling"] = _seeded(raw["sampling"], seed_override)
        kind = raw["dataset"].get("kind") if isinstance(raw.get("dataset"), dict) else None
        if any(kind == k and "seed" in defaults for k, (_, defaults) in _DATASETS.items()):
            seeded["dataset"] = _seeded(raw["dataset"], seed_override)
        checked = check_config("", seeded, config_schema())

        sampling = model = dataset = build_dataset = defense_fractions = None
        if "sampling" in raw:
            sampling = SamplingConfig.from_json_dict(seeded["sampling"])
        if "model" in raw:
            model = ModelSpec.from_json_dict(raw["model"])
        if "dataset" in raw:
            dataset = seeded["dataset"]
            builder, defaults = _DATASETS[kind]
            given = checked["dataset"]
            build_dataset = functools.partial(builder, *(given.get(k, v) for k, v in defaults.items()))
        if "defense" in raw:
            fractions = checked["defense"]
            defense_fractions = (fractions["p"],) if "p" in fractions else tuple(fractions["sweep"])
        out = out_override if out_override is not None else checked.get("output_dir", "out")
        return cls(
            raw=raw,
            sampling=sampling,
            model=model,
            dataset=dataset,
            build_dataset=build_dataset,
            audit=AuditSettings.from_json_dict(raw.get("audit", {})),
            bound_gnq=tuple(checked.get("bound", {}).get("gnq", (0.1, 1.0, 10.0))),
            attack_bins=checked.get("attack", {}).get("n_bins", 8),
            defense_fractions=defense_fractions,
            oracle=seeded["oracle"],
            oracle_seed=checked["oracle"].get("seed", 0),
            oracle_corrupt=checked["oracle"].get("corrupt"),
            output_dir=Path(out),
        )

    def effective(self) -> dict:
        """The config as actually run (overrides applied); hashed into reports."""
        out = dict(self.raw)
        if self.sampling is not None:
            out["sampling"] = self.sampling.to_json_dict()
        if self.dataset is not None:
            out["dataset"] = dict(self.dataset)
        if self.oracle:
            out["oracle"] = dict(self.oracle)
        out["output_dir"] = str(self.output_dir)
        return out

    def require(self, *sections: str) -> None:
        missing = [
            s
            for s in sections
            if getattr(self, "defense_fractions" if s == "defense" else s) is None
        ]
        if missing:
            raise ConfigurationError(
                f"this command needs config section(s): {', '.join(missing)}"
            )


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    path = Path(args.config)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config is not valid JSON: {exc}") from None
    try:
        return RunConfig.from_json_dict(raw, args.out, args.seed)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigurationError(f"bad config value: {exc!r}") from exc


def _build_dataset(cfg: RunConfig) -> Dataset:
    cfg.require("dataset")
    return cfg.build_dataset()


def _write_provenance(cfg: RunConfig) -> None:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    write_json(cfg.output_dir / "run_config.json", cfg.effective())


def _obtain_trajectory(cfg: RunConfig, args: argparse.Namespace):
    """Load the checkpoint if --trajectory was given, else train from scratch."""
    data = _build_dataset(cfg)
    if getattr(args, "trajectory", None):
        traj = load_trajectory(args.trajectory)
        if cfg.sampling is not None and traj.cfg != cfg.sampling:
            raise ConfigurationError(
                "trajectory checkpoint was trained under a different sampling config"
            )
        if cfg.model is not None and traj.model != cfg.model:
            raise ConfigurationError(
                "trajectory checkpoint was trained with a different model config"
            )
        if traj.dataset_sha256 != data.sha256:
            raise ConfigurationError("trajectory checkpoint was trained on a different dataset")
        return traj, data
    cfg.require("sampling", "model")
    return train(cfg.sampling, cfg.model, data), data


def cmd_gen_data(cfg: RunConfig, args: argparse.Namespace) -> None:
    ds = _build_dataset(cfg)
    _write_provenance(cfg)
    save_csv_dataset(cfg.output_dir / "dataset.csv", ds)
    print(f"wrote {len(ds)} rows to {cfg.output_dir / 'dataset.csv'}")


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> None:
    cfg.require("sampling", "model", "dataset")
    data = _build_dataset(cfg)
    traj = train(cfg.sampling, cfg.model, data)
    _write_provenance(cfg)
    save_trajectory(cfg.output_dir / "trajectory.json", traj)
    payload = {
        "n_iters": cfg.sampling.n_iters,
        "n_params": cfg.model.n_params,
        "final_params_norm": float(np.linalg.norm(traj.final_params)),
        "n_members": int(traj.train_indicator.sum()),
    }
    write_report(cfg.output_dir / "train_report.json", finalize_report("train", payload, cfg.effective()))
    print(f"trained {cfg.sampling.n_iters} iterations; checkpoint in {cfg.output_dir}")


def cmd_audit(cfg: RunConfig, args: argparse.Namespace) -> None:
    traj, data = _obtain_trajectory(cfg, args)
    record = audit(
        traj, data, mode=cfg.audit.mode, cadence=cfg.audit.cadence, tol=cfg.audit.tol
    )
    _write_provenance(cfg)
    write_report(
        cfg.output_dir / "audit_report.json",
        audit_report(record, traj.cfg, cfg.effective()),
        meta=audit_health(record),
    )
    write_scores_csv(cfg.output_dir / "scores.csv", record)
    if args.dump_gradients:
        # One buffer, refilled per iteration and written before the next.
        buf = np.empty((len(data), traj.model.n_params))
        write_gradients_csv(cfg.output_dir / "gradients.csv", (
            (it, gradient_all(traj.model, traj.params_per_iter[it], data.features, data.targets, out=buf))
            for it in record.audited_iterations
        ))
    n_flags = len(record.range_violations)
    print(
        f"audited {len(record.audited_iterations)} iterations of {record.n_examples} "
        f"examples; {n_flags} range flags; report in {cfg.output_dir}"
    )


def cmd_bound(cfg: RunConfig, args: argparse.Namespace) -> None:
    cfg.require("sampling")
    s = cfg.sampling
    prior = prior_entropy(s.n_train, s.n_total)
    bits = per_iteration_leakage(np.array(cfg.bound_gnq, dtype=np.float64), s)
    fano = fano_error_bound(prior, bits)
    rows = [
        {
            "gnq": g,
            "per_iteration_bits": b,
            "pe_lower_single_iteration": pe,
            "vacuous": vacuous,
        }
        for g, b, pe, vacuous in zip(
            cfg.bound_gnq, bits.tolist(), fano.pe_lower.tolist(), fano.vacuous.tolist()
        )
    ]
    payload = {
        "prior_entropy_bits": prior,
        "monotone_growth_condition": growth_condition_holds(s),
        "variance_ratio_regime": kappa_regime_note(s),
        "per_gnq": rows,
    }
    _write_provenance(cfg)
    write_report(cfg.output_dir / "bound_report.json", finalize_report("bound", payload, cfg.effective()))
    print(f"bounded {len(rows)} GNQ values; report in {cfg.output_dir}")


def cmd_attack(cfg: RunConfig, args: argparse.Namespace) -> None:
    traj, data = _obtain_trajectory(cfg, args)
    record = audit(
        traj, data, mode=cfg.audit.mode, cadence=cfg.audit.cadence, tol=cfg.audit.tol
    )
    attacked = loss_attack(
        traj.model, traj.final_params, data.with_membership(traj.train_indicator)
    )
    curve = success_vs_gnq(attacked, record, n_bins=cfg.attack_bins)
    _write_provenance(cfg)
    write_report(
        cfg.output_dir / "attack_report.json",
        attack_report(attacked, cfg.effective(), curve),
    )
    write_attack_csv(cfg.output_dir / "attack.csv", attacked)
    print(f"attack AUC {attacked.auc:.4f}; report in {cfg.output_dir}")


def cmd_defend(cfg: RunConfig, args: argparse.Namespace) -> None:
    cfg.require("sampling", "model", "dataset", "defense")
    data = _build_dataset(cfg)
    reports = run_defense_sweep(
        cfg.sampling,
        cfg.model,
        data,
        list(cfg.defense_fractions),
        audit_mode=cfg.audit.mode,
        cadence=cfg.audit.cadence,
        tol=cfg.audit.tol,
    )
    _write_provenance(cfg)
    runs = reports[0] if len(reports) == 1 else reports
    write_report(cfg.output_dir / "defense_report.json", defense_report(runs, cfg.effective()))
    write_sweep_csv(cfg.output_dir / "sweep.csv", reports)
    moved = ", ".join(f"{r.auc_before:.3f}->{r.auc_after:.3f}" for r in reports)
    print(f"defense AUC {moved}; report in {cfg.output_dir}")


def cmd_oracle(cfg: RunConfig, args: argparse.Namespace) -> None:
    report = run_oracle_checks(seed=cfg.oracle_seed, corrupt=cfg.oracle_corrupt)
    _write_provenance(cfg)
    write_report(
        cfg.output_dir / "oracle_report.json", oracle_report(report, cfg.effective())
    )
    if not report.passed:
        raise VerificationError(
            "formula checks failed: " + ", ".join(report.failures)
        )
    print(f"all {len(report.checks)} formula checks passed")


_HANDLERS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "audit": cmd_audit,
    "bound": cmd_bound,
    "attack": cmd_attack,
    "defend": cmd_defend,
    "oracle": cmd_oracle,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnqaudit",
        description="Gradient-uniqueness privacy auditing for mini-batch SGD.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen-data", "write a synthetic dataset CSV"),
        ("train", "run SGD and checkpoint the trajectory"),
        ("audit", "score per-example gradient uniqueness along a trajectory"),
        ("bound", "evaluate per-step leakage bits and Fano floors for a sampling config"),
        ("attack", "run the loss-threshold membership attack"),
        ("defend", "rank, remove, retrain, and compare attack metrics"),
        ("oracle", "verify the closed forms against brute-force enumeration"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output_dir")
        if name in ("audit", "attack"):
            p.add_argument(
                "--trajectory", default=None, help="reuse a trajectory checkpoint"
            )
        if name == "audit":
            p.add_argument(
                "--dump-gradients",
                action="store_true",
                help="also write per-example gradient rows for audited iterations",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_run_config(args)
        _HANDLERS[args.command](cfg, args)
    except AuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
