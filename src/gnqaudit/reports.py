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
from .bounds import fano_chain, per_iteration_leakage, prior_entropy
from .canonical import json_default, write_json
from .defense import DefenseReport, rank_examples
from .oracle import OracleReport
from .sampling import SamplingConfig
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


def _write_csv(path: str | Path, header: list[str], chunks: Iterable[str]) -> Path:
    """Write the header line, then each chunk of formatted lines as it arrives.

    Rows are formatted by the callers, not through csv.writer: no field of
    gnqaudit's tables (integers, mode names, float reprs, 0/1) needs quoting.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for chunk in chunks:
            fh.write(chunk)
    return path


def write_scores_csv(path: str | Path, record: AuditRecord) -> Path:
    """One row per audited iteration and example."""
    mode = record.mode.value
    flags = record.range_ok.astype(np.uint8).tolist()
    return _write_csv(path, ["iteration", "example_id", "mode", "gnq", "range_ok"], (
        "".join([f"{it},{ex},{mode},{value!r},{ok}\n" for ex, (value, ok) in enumerate(zip(values, oks))])
        for it, values, oks in zip(record.audited_iterations, record.values.tolist(), flags)
    ))


def write_gradients_csv(path: str | Path, per_iteration: Iterable[tuple[int, np.ndarray]]) -> Path:
    """Dump per-example gradient rows, one (N, Np) matrix per iteration.

    per_iteration yields (iteration, matrix) pairs in ascending iteration
    order. Pairs are written as they arrive, so a caller may pass a generator
    that refills one buffer for every iteration.
    """
    pairs = iter(per_iteration)
    first = next(pairs, None)
    if first is None:
        raise ValueError("no gradient matrices to write")
    n_params = first[1].shape[1]

    def chunks():
        previous = None
        for it, mat in itertools.chain([first], pairs):
            if mat.shape[1] != n_params:
                raise ValueError("all gradient matrices must share the parameter dimension")
            if previous is not None and it <= previous:
                raise ValueError(f"gradient iterations must ascend, got {it} after {previous}")
            previous = it
            yield "".join(
                [f"{it},{ex}," + ",".join(map(repr, row)) + "\n" for ex, row in enumerate(mat.tolist())]
            )

    return _write_csv(path, ["iteration", "example_id"] + [f"g_{p}" for p in range(n_params)], chunks())


def write_attack_csv(path: str | Path, attack: AttackResult) -> Path:
    # repr(float(x)): numpy 2 reprs an np.float64 as "np.float64(...)".
    rows = zip(attack.per_example_score, attack.per_example_success, attack.membership)
    return _write_csv(path, ["example_id", "score", "success", "membership"], (
        f"{ex},{float(score)!r},{int(success)},{int(member)}\n"
        for ex, (score, success, member) in enumerate(rows)
    ))


def write_sweep_csv(path: str | Path, reports: list[DefenseReport]) -> Path:
    return _write_csv(path, ["p", "auc_before", "auc_after", "acc_before", "acc_after"], (
        ",".join(repr(float(x)) for x in (
            r.removed_fraction, r.auc_before, r.auc_after, r.test_accuracy_before, r.test_accuracy_after
        )) + "\n"
        for r in reports
    ))


def audit_report(record: AuditRecord, sampling: SamplingConfig, config: dict) -> dict:
    """Per-example audit summary: cumulative scores, leakage chain, ranking, flags.

    The chain is derived only here, from the scores and the sampling config,
    and each fact is written once: the prior at the top level, and per
    example its total, Fano entropy, floor, vacuous flag and cumulative
    score. The per-step bits are `per_iteration_leakage` of `scores.csv`'s
    values. The totals are the paper's per-step Gaussian model summed over
    `audited_iterations`, and `bound` is false: a partial sum bounds
    nothing, and the full sum omits what earlier steps revealed (see
    `bounds`). The ranking is `rank_examples(record)`.
    """
    prior = prior_entropy(sampling.n_train, sampling.n_total)
    totals, fano = fano_chain(prior, per_iteration_leakage(record.values, sampling))
    keys = ("example", "total_bits", "fano_entropy_bits", "pe_lower", "vacuous", "cumulative_gnq")
    columns = (totals, fano.fano_entropy_bits, fano.pe_lower, fano.vacuous, record.cumulative_gnq)
    payload = {
        "mode": record.mode.value,
        "cadence": record.cadence.value,
        "tol": record.tol,
        "audited_iterations": list(record.audited_iterations),
        "prior_entropy_bits": prior,
        "bound": False,
        "per_example": [dict(zip(keys, row)) for row in zip(itertools.count(), *(c.tolist() for c in columns))],
        "ranking": rank_examples(record).tolist(),
        "flags": {"range_violations": np.flatnonzero(~record.range_ok.all(axis=0)).tolist()},
    }
    return finalize_report("audit", payload, config)


def audit_health(record: AuditRecord) -> dict:
    """Numeric health of an exact audit for the report's sidecar.

    Counts the scores recomputed from their own factorization, in total, by
    reason and by audited iteration. For every audited iteration, describes
    the factored Gram matrix: its rank, its null count, its near-cutoff
    eigenvalues as ratios to the cutoff, the rows scored through the secular
    correction, how many of those through a root that crossed the row's own
    cutoff, and the scores flagged out of range.
    """
    flags = dict(zip(record.audited_iterations, (~record.range_ok).sum(axis=1).tolist()))
    by_iteration = {str(it): h.fallbacks for it, h in record.spectra.items() if h.fallbacks}
    by_reason = sum(map(Counter, by_iteration.values()), Counter())
    return {
        "fallbacks": {
            "total": sum(by_reason.values()),
            "by_reason": dict(by_reason),
            "by_iteration": by_iteration,
        },
        "spectra": {
            str(it): {
                "rank": h.rank,
                "null": h.null,
                "near_cutoff": list(h.near_cutoff),
                "secular": h.secular,
                "crossed": h.crossed,
                "range_flags": flags[it],
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


def defense_report(report: DefenseReport | list[DefenseReport], config: dict) -> dict:
    """One run's fields at the top level, or a list of runs as a bare-field `sweep`."""

    def run_fields(run: DefenseReport) -> dict:
        return dataclasses.asdict(run) | {"n_removed": len(run.removed_ids)}

    if isinstance(report, DefenseReport):
        return finalize_report("defense", run_fields(report), config)
    return finalize_report("defense", {"sweep": [run_fields(r) for r in report]}, config)


def oracle_report(report: OracleReport, config: dict) -> dict:
    payload = {
        "passed": report.passed,
        "failures": list(report.failures),
        "checks": [c.to_json_dict() for c in report.checks],
    }
    return finalize_report("oracle", payload, config)
