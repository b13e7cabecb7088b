"""Compare benchmark result sets of a parent and a change, or summarise one set.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS
    python3 perfbench/compare.py RESULTS

A result set is a directory of the records run.py writes (--results). Runs
are paired by workload, trace mode and seed. For every workload and metric
the table gives each side's median and quartiles, the number of pairs and
the share of pairs the change wins (ties count for neither side), and for
end-to-end metrics a verdict:

    unresolved  the parent's own spread (quartile distance over median) is
                wider than the metric's bound, and not every change run beats
                every parent run
    regressed   the change's median is worse than the parent's by more than
                the bound in BENCHMARK.json
    improved    at least ten pairs, the change wins at least nine tenths of
                them, and the medians differ by more than the parent's
                quartile distance
    no worse    otherwise

Per-layer metrics and ops_failed_frac have no bound; counts and failure
fractions are marked "same" when every run on both sides reads the same
value. Where a side has traced and untraced runs
of a workload, the tracing overhead (median traced.op_s minus median op_s)
is printed too.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{(workload, trace): {seed: {metric: value}}} from a results directory."""
    runs: dict = defaultdict(dict)
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        metrics["ops_failed_frac"] = rec["ops_failed_frac"]
        runs[(rec["workload"], rec["trace"])][rec["seed"]] = metrics
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> tuple[str, float]:
    sign = 1.0 if lower_is_better else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    share = wins / len(pairs) if pairs else float("nan")
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved", share
    if pm and sign * (cm - pm) / abs(pm) > bound:
        return "regressed", share
    if len(pairs) >= 10 and share >= 0.9 and sign * (cm - pm) < 0 and abs(cm - pm) > p3 - p1:
        return "improved", share
    return "no worse", share


def fmt(values: list[float]) -> str:
    if not values:
        return "-"
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.4g}, {q3:.4g}]"


def spread(values: list[float]) -> str:
    """Quartile distance as a share of the median, the figure bounds are held to."""
    q1, q2, q3 = quartiles(values)
    return f"{(q3 - q1) / abs(q2):.3f}" if q2 else "-"


def overhead(runs: dict, workload: str) -> str:
    traced = [m["traced.op_s"] for m in runs.get((workload, 1), {}).values()]
    plain = [m["op_s"] for m in runs.get((workload, 0), {}).values()]
    if not traced or not plain:
        return "-"
    return f"{statistics.median(traced) - statistics.median(plain):+.4g} s"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = [load(Path(a)) for a in argv]
    parent, change = sides[0], sides[-1]
    failed = {"name": "ops_failed_frac", "unit": "fraction", "better": "lower"}
    sections = ((0, [*bench["end_to_end"], failed]), (1, bench["per_layer"]))
    for w in [w["name"] for w in bench["workloads"]]:
        print(f"== {w}  (tracing overhead: parent {overhead(parent, w)}, change {overhead(change, w)})"
              if len(sides) == 2 else f"== {w}  (tracing overhead {overhead(parent, w)})")
        for trace, metrics in sections:
            p_runs, c_runs = parent.get((w, trace), {}), change.get((w, trace), {})
            if not p_runs and not c_runs:
                continue
            seeds = sorted(set(p_runs) & set(c_runs))
            for m in metrics:
                name, lower = m["name"], m["better"] == "lower"
                pv = [r[name] for r in p_runs.values() if name in r]
                cv = [r[name] for r in c_runs.values() if name in r]
                if len(sides) == 1:
                    if pv:
                        print(f"  {name:<34} {fmt(pv):<32} {m['unit']:<11} n={len(pv):<3} "
                              f"spread {spread(pv)}")
                    continue
                pairs = [(p_runs[s][name], c_runs[s][name]) for s in seeds]
                if "bound" in m and pv and cv:
                    v, share = verdict(pv, cv, pairs, m["bound"], lower)
                elif m["unit"] in ("count", "fraction") and pv and len(set(pv) | set(cv)) == 1:
                    v, share = "same", float("nan")
                else:
                    v, share = "-", (sum((c < p) if lower else (c > p) for p, c in pairs) / len(pairs)
                                     if pairs else float("nan"))
                print(f"  {name:<34} {fmt(pv):<30} -> {fmt(cv):<30} {m['unit']:<11} "
                      f"pairs {len(pairs):>2} wins {share:.2f}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
