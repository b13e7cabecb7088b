"""Deterministic report and table writers.

Reruns with the same config and seed must produce byte-identical artifacts,
so the main report files contain no timestamps, no environment strings, and
no dict-order dependence: JSON is written in the one canonical form that
`canonical` defines (sorted keys, floats in round-trip repr form), CSVs with
LF newlines. Reports and sidecars are streamed to a temporary file that
replaces the target only when complete, so a failed write leaves no partial
report. Wall-clock metadata goes to a `.meta.json` sidecar next to each
report.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import hashlib
import itertools
import json
from collections import Counter
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from ._version import __version__
from .attack import AttackResult, BinnedCurve
from .canonical import canonical_json, json_default, write_json  # noqa: F401 (canonical_json re-exported)
from .defense import DefenseReport
from .oracle import OracleReport
from .training import AuditRecord


def config_hash(config: dict) -> str:
    """Stable hash of a config dict; key order and whitespace do not matter."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=json_default)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def finalize_report(kind: str, payload: dict, config: dict) -> dict:
    out = dict(payload)
    out["report_kind"] = kind
    out["library_version"] = __version__
    out["config_hash"] = config_hash(config)
    out["config"] = config
    return out


def write_report(path: str | Path, payload: dict, meta: dict | None = None) -> Path:
    """Write the report plus a sidecar with the timestamp and any extra meta.

    Run diagnostics go into the sidecar, so the report bytes stay
    deterministic.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(path, payload)
    side = dict(meta or {})
    side["report"] = path.name
    side["written_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    write_json(path.with_suffix(path.suffix + ".meta.json"), side)
    return path


def _write_rows(path: str | Path, header: list[str], rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_scores_csv(path: str | Path, record: AuditRecord) -> Path:
    """One row per audited iteration and example.

    Rows are formatted directly, not through csv.writer: no field (integers,
    the mode name, float reprs, 0/1) ever needs quoting.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    mode = record.mode.value
    flags = record.range_ok.astype(np.uint8).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("iteration,example_id,mode,gnq,range_ok\n")
        for it, values, oks in zip(record.audited_iterations, record.values.tolist(), flags):
            fh.write("".join(
                [f"{it},{ex},{mode},{value!r},{ok}\n" for ex, (value, ok) in enumerate(zip(values, oks))]
            ))
    return path


def write_gradients_csv(
    path: str | Path, per_iteration: dict[int, np.ndarray] | Iterable[tuple[int, np.ndarray]]
) -> Path:
    """Dump per-example gradient rows, one (N, Np) matrix per iteration.

    per_iteration is a dict keyed by iteration or (iteration, matrix) pairs in
    ascending iteration order. Pairs are written as they arrive, so a caller
    may pass a generator that refills one buffer for every iteration. Rows
    are formatted directly: no field (integers, float reprs) needs quoting.
    """
    pairs = iter(sorted(per_iteration.items()) if isinstance(per_iteration, dict) else per_iteration)
    first = next(pairs, None)
    if first is None:
        raise ValueError("no gradient matrices to write")
    n_params = first[1].shape[1]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["iteration", "example_id"] + [f"g_{p}" for p in range(n_params)]) + "\n")
        previous = None
        for it, mat in itertools.chain([first], pairs):
            if mat.shape[1] != n_params:
                raise ValueError("all gradient matrices must share the parameter dimension")
            if previous is not None and it <= previous:
                raise ValueError(f"gradient iterations must ascend, got {it} after {previous}")
            previous = it
            fh.write("".join(
                [f"{it},{ex}," + ",".join(map(repr, row)) + "\n" for ex, row in enumerate(mat.tolist())]
            ))
    return path


def write_attack_csv(path: str | Path, attack: AttackResult) -> Path:
    rows = [
        (
            ex,
            repr(float(attack.per_example_score[ex])),
            int(attack.per_example_success[ex]),
            int(attack.membership[ex]),
        )
        for ex in range(attack.per_example_score.shape[0])
    ]
    return _write_rows(path, ["example_id", "score", "success", "membership"], rows)


def write_sweep_csv(path: str | Path, reports: list[DefenseReport]) -> Path:
    rows = [
        (
            repr(float(r.removed_fraction)),
            repr(float(r.auc_before)),
            repr(float(r.auc_after)),
            repr(float(r.test_accuracy_before)),
            repr(float(r.test_accuracy_after)),
        )
        for r in reports
    ]
    return _write_rows(
        path, ["p", "auc_before", "auc_after", "acc_before", "acc_after"], rows
    )


def audit_report(record: AuditRecord, config: dict, ranking: np.ndarray) -> dict:
    """Per-example audit summary: cumulative scores, bounds, ranking, flags.

    total_bits sums per_iteration_bits over the audited iterations only,
    `record.audited_iterations`: 0 .. n_iters - 1 for every-iteration
    audits, the multiples of the epoch length plus the final state n_iters
    for every-epoch audits (whose first audited point is the epoch length,
    not 0), and n_iters alone for final-only audits.
    total_bits_excluding_first drops the first audited iteration, whichever
    it is; it is the initial parameters only for every-iteration audits.
    """
    fano = record.fano
    per_example = [
        {
            "example": j,
            "prior_entropy_bits": record.prior_entropy_bits,
            "per_iteration_bits": bits,
            "total_bits": total,
            "fano_entropy_bits": remaining,
            "pe_lower": pe,
            "vacuous": vacuous,
            "cumulative_gnq": cum,
            "total_bits_excluding_first": float(sum(bits[1:])),
        }
        for j, (bits, total, remaining, pe, vacuous, cum) in enumerate(
            zip(
                record.per_iteration_bits.T.tolist(),
                record.total_bits.tolist(),
                fano.fano_entropy_bits.tolist(),
                fano.pe_lower.tolist(),
                fano.vacuous.tolist(),
                record.cumulative_gnq.tolist(),
            )
        )
    ]
    range_violations = np.flatnonzero(~record.range_ok.all(axis=0))
    payload = {
        "mode": record.mode.value,
        "cadence": record.cadence.value,
        "tol": record.tol,
        "audited_iterations": list(record.audited_iterations),
        "per_example": per_example,
        "ranking": [int(i) for i in ranking],
        "flags": {
            "range_violations": [int(i) for i in range_violations],
            "vacuous_bounds": np.flatnonzero(fano.vacuous).tolist(),
        },
    }
    return finalize_report("audit", payload, config)


def audit_health(record: AuditRecord) -> dict:
    """Numeric health of an exact audit for the report's sidecar.

    Counts the scores recomputed from their own factorization, in total, by
    reason and by audited iteration. For every audited iteration, describes
    the factored Gram matrix: its rank, its null count, its near-cutoff
    eigenvalues as ratios to the cutoff, and the rows scored through the
    secular correction.
    """
    by_reason: Counter[str] = Counter()
    for counts in record.fallbacks.values():
        by_reason.update(counts)
    return {
        "fallbacks": {
            "total": sum(by_reason.values()),
            "by_reason": dict(by_reason),
            "by_iteration": {str(it): counts for it, counts in record.fallbacks.items()},
        },
        "spectra": {
            str(it): {
                "rank": h.rank,
                "null": h.null,
                "near_cutoff": list(h.near_cutoff),
                "secular": h.secular,
            }
            for it, h in record.spectra.items()
        },
    }


def attack_report(attack: AttackResult, config: dict, curve: BinnedCurve | None = None) -> dict:
    payload = {
        "auc": float(attack.auc),
        "threshold": float(attack.threshold),
        "n_examples": int(attack.membership.shape[0]),
        "n_members": int(attack.membership.sum()),
    }
    if curve is not None:
        payload["success_vs_gnq"] = dataclasses.asdict(curve)
    return finalize_report("attack", payload, config)


def defense_report(report: DefenseReport, config: dict) -> dict:
    payload = dataclasses.asdict(report)
    payload["n_removed"] = len(report.removed_ids)
    return finalize_report("defense", payload, config)


def oracle_report(report: OracleReport, config: dict) -> dict:
    payload = {
        "passed": report.passed,
        "failures": list(report.failures),
        "checks": [c.to_json_dict() for c in report.checks],
    }
    return finalize_report("oracle", payload, config)
