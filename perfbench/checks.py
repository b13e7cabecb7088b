"""Output checks for one operation's artifacts; run outside the timed region.

Every check returns a list of problems; an empty list means the operation's
outputs are correct. The score recomputation deliberately avoids the
program's scorers and loaders: it reads the checkpoint and the dataset CSV
directly, takes gradients from `models.gradient_all`, and evaluates
g_j^T S^+ g_j with `np.linalg.pinv`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# The test suite's downdate-vs-reference tolerance (tests/test_geometry.py)
# is the floor. g^T S^+ g computed in floating point carries a relative error
# of order eps * kappa, kappa = lambda_max / lambda_min over the kept
# eigenvalues of S, which the cutoff caps at 1 / tol; the reference carries
# the same. At kappa near 1e10 (an N=200 < N_p=572 MLP pool) pinv and the
# program's eigh route differ by up to 1.3e-6 relative, so each sample is
# held to max(RTOL, KAPPA_FACTOR * eps * kappa): 2.2e-5 at kappa = 1e10. A
# wrong eigenvalue cutoff (11.78 against 7.06) is off by 67%.
RTOL = 1e-8
ATOL = 1e-10
KAPPA_FACTOR = 10.0
SAMPLE_SEED = 20261017


def tree_digest(root: Path) -> tuple[str, int]:
    """sha256 over (relative path, bytes) of every report file, plus total bytes.

    `*.meta.json` sidecars carry wall-clock timestamps by design and are
    excluded from the digest, but counted in the byte total.
    """
    h = hashlib.sha256()
    total = 0
    for p in sorted(root.rglob("*")):
        if not p.is_file():
            continue
        total += p.stat().st_size
        rel = p.relative_to(root).as_posix()
        if rel.endswith(".meta.json"):
            continue
        h.update(rel.encode() + b"\0")
        with open(p, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest(), total


def check_reports_schema(out_dir: Path, schema_path: Path) -> list[str]:
    try:
        import jsonschema
    except ImportError:
        return ["jsonschema is not installed; reports cannot be validated"]
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    validator = jsonschema.Draft202012Validator(schema)
    problems = []
    reports = sorted(out_dir.glob("*_report.json"))
    if not reports:
        problems.append(f"no *_report.json in {out_dir}")
    for path in reports:
        doc = json.loads(path.read_text(encoding="utf-8"))
        for err in validator.iter_errors(doc):
            problems.append(f"{path.name}: schema: {err.message}")
    return problems


def _read_dataset(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    t = header.index("target")
    feats = np.array([[float(v) for i, v in enumerate(r) if i != t] for r in body])
    return feats, np.array([int(r[t]) for r in body], dtype=np.int64)


def _read_scores(path: Path) -> dict[tuple[int, int], float]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {
            (int(r["iteration"]), int(r["example_id"])): float(r["gnq"])
            for r in csv.DictReader(fh)
        }


def fallback_rows(grads: np.ndarray, tol: float) -> np.ndarray:
    """Rows an exact scorer cannot take from one factorization of S = G^T G.

    Leaving such a row out loses rank (q_j = g_j^T S^+ g_j >= 1 - tol), or
    g_j fails the range test against S's kept eigenvectors; each needs a
    factorization of its own.
    """
    w, v = np.linalg.eigh(grads.T @ grads)
    keep = w > tol * max(float(w[-1]), 0.0)
    proj = v[:, keep].T @ grads.T
    q = np.sum(proj**2 / w[keep][:, None], axis=0)
    resid = np.linalg.norm(grads.T - v[:, keep] @ proj, axis=0)
    return (q >= 1.0 - tol) | (resid > tol * np.linalg.norm(grads, axis=1))


def reference_score(grads: np.ndarray, j: int, tol: float) -> tuple[float, float]:
    """The exact score from first principles, and the relative tolerance it is held to."""
    g = grads[j]
    others = np.delete(grads, j, axis=0)
    s = others.T @ others
    value = float(g @ np.linalg.pinv(s, rcond=tol, hermitian=True) @ g)
    w = np.linalg.eigvalsh(s)
    kept = w[w > tol * max(float(w[-1]), 0.0)]
    kappa = float(kept[-1] / kept[0]) if kept.size else 1.0
    return value, max(RTOL, KAPPA_FACTOR * np.finfo(float).eps * kappa)


def check_scores(
    out_dir: Path,
    dataset_csv: Path,
    trajectory_json: Path,
    model_spec,
    tol: float,
    n_samples: int,
    seed: int,
) -> tuple[list[str], dict]:
    """Recompute a seeded sample of an exact audit's scores.csv; returns problems and a summary.

    The sample is made of whole audited iterations in a seeded order
    (examples in a seeded order within each) until n_samples scores are
    picked, at one gradient_all call per iteration. The iterations come
    first that have fallback rows scored above ATOL / RTOL,
    where the relative tolerance binds, so the per-example factorization
    path is checked whenever the run takes it on a score that matters
    (many fallback rows are well-fit examples scoring below 1e-9, which
    ATOL alone passes).
    """
    from gnqaudit.models import gradient_all

    scores = _read_scores(out_dir / "scores.csv")
    if not scores:
        return ["scores.csv has no rows"], {}
    by_iter: dict[int, list[int]] = {}
    for it, j in sorted(scores):
        by_iter.setdefault(it, []).append(j)
    features, targets = _read_dataset(dataset_csv)
    params = json.loads(trajectory_json.read_text(encoding="utf-8"))["params_per_iter"]

    def grads_at(it: int) -> np.ndarray:
        return gradient_all(model_spec, np.array(params[it]), features, targets)

    def binding_fallbacks(it: int, rows: list[int]) -> int:
        fallback = fallback_rows(grads_at(it), tol)
        return sum(bool(fallback[j]) and scores[(it, j)] > ATOL / RTOL for j in rows)

    rng = np.random.default_rng([SAMPLE_SEED, seed])
    order = [sorted(by_iter)[i] for i in rng.permutation(len(by_iter))]
    order.sort(key=lambda it: binding_fallbacks(it, by_iter[it]) == 0)
    problems, worst, n_checked, n_fallback, checked_iters = [], 0.0, 0, 0, []
    for it in order:
        if n_checked >= n_samples:
            break
        rows = sorted(int(j) for j in rng.permutation(by_iter[it])[: n_samples - n_checked])
        grads = grads_at(it)
        n_fallback += binding_fallbacks(it, rows)
        for j in rows:
            got = scores[(it, j)]
            want, rtol = reference_score(grads, j, tol)
            gap = abs(got - want)
            worst = max(worst, gap / abs(want) if want else gap)
            if not gap <= ATOL + rtol * abs(want):
                problems.append(
                    f"scores.csv ({it}, {j}): {got!r} vs reference {want!r} (rtol {rtol:.2g})"
                )
        n_checked += len(rows)
        checked_iters.append(it)
    summary = {
        "iterations": checked_iters,
        "scores": n_checked,
        "binding_fallback_rows": n_fallback,
        "worst_relative_gap": worst,
    }
    return problems, summary


def check_defense(out_dir: Path, p: float, n_pool: int) -> list[str]:
    """Internal consistency of a one-fraction defense report and its sweep.csv row."""
    problems = []
    doc = json.loads((out_dir / "defense_report.json").read_text(encoding="utf-8"))
    if doc["removed_fraction"] != p:
        problems.append(f"removed_fraction {doc['removed_fraction']} != {p}")
    ids = doc["removed_ids"]
    k = math.ceil(p * n_pool)
    if len(ids) != k or len(set(ids)) != k or not all(0 <= i < n_pool for i in ids):
        problems.append(f"removed_ids are not {k} distinct pool rows")
    with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        problems.append(f"sweep.csv has {len(rows)} rows for one fraction")
        return problems
    for col, key in (("auc_before", "auc_before"), ("auc_after", "auc_after"),
                     ("acc_before", "test_accuracy_before"), ("acc_after", "test_accuracy_after")):
        if float(rows[0][col]) != doc[key]:
            problems.append(f"sweep.csv {col} {rows[0][col]} != report {doc[key]!r}")
    return problems
