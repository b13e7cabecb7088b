"""Rank -> remove -> retrain defense and its privacy/utility report.

The pipeline audits a baseline run, ranks the pool by cumulative uniqueness,
drops the top ceil(p * N) candidates from the pool entirely, retrains on the
filtered pool with the same base seed, and attacks both models. Only the
baseline is audited: the ranking is all the scores are for, and a retrained
model's floors come from running `audit` on it. The input dataset must be
larger than the configured pool: a seeded permutation takes the first n_total
rows as the pool and holds the remainder out as the test set for utility
numbers.

After removal the pool shrinks to N' = N - k, and the retrain uses
n_train' = round(n_train * N'/N) so the membership prior n_train / N stays
comparable before and after.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .attack import loss_attack
from .data import Dataset
from .errors import ConfigurationError
from .geometry import DEFAULT_TOL, GramMode
from .models import ModelSpec, accuracy
from .sampling import _SPLIT_TAG, SamplingConfig, stream
from .training import AuditCadence, AuditRecord, TrainingTrajectory, audit, train


@dataclass(frozen=True)
class DefenseReport:
    removed_fraction: float
    removed_ids: tuple[int, ...]
    auc_before: float
    auc_after: float
    test_accuracy_before: float
    test_accuracy_after: float
    n_train_after: int


def rank_examples(record: AuditRecord) -> np.ndarray:
    """Example indices by descending cumulative uniqueness, ties by ascending index."""
    cum = np.asarray(record.cumulative_gnq, dtype=np.float64)
    return np.lexsort((np.arange(cum.shape[0]), -cum))


def split_pool(data: Dataset, cfg: SamplingConfig) -> tuple[Dataset, Dataset]:
    """Seeded permutation split: first n_total rows are the pool, rest held out."""
    if len(data) <= cfg.n_total:
        raise ConfigurationError(
            f"defense needs held-out rows: dataset has {len(data)} rows, "
            f"pool takes n_total={cfg.n_total}"
        )
    order = stream(cfg.seed, _SPLIT_TAG).permutation(len(data))
    return data.subset(order[: cfg.n_total]), data.subset(order[cfg.n_total :])


def _train_and_attack(
    cfg: SamplingConfig, model: ModelSpec, pool: Dataset, test: Dataset
) -> tuple[TrainingTrajectory, float, float]:
    """Train on the pool; the trajectory, the loss attack's AUC and held-out accuracy."""
    traj = train(cfg, model, pool)
    attacked = loss_attack(model, traj.final_params, pool.with_membership(traj.train_indicator))
    return traj, attacked.auc, accuracy(model, traj.final_params, test.features, test.targets)


def run_defense_sweep(
    cfg: SamplingConfig,
    model: ModelSpec,
    data: Dataset,
    fractions: list[float],
    audit_mode: GramMode = GramMode.FULL_EXACT,
    cadence: AuditCadence = AuditCadence.EVERY_EPOCH,
    tol: float = DEFAULT_TOL,
) -> list[DefenseReport]:
    """Before/after comparisons at each removal fraction, in the given order.

    The baseline is trained, attacked and audited once and shared by every
    fraction; each fraction adds one retrain and attack, with no audit, so k
    fractions cost k + 1 training runs and one audit. p = 0 removes nothing
    and, because the retrain reuses the same base seed, reproduces the
    baseline bit for bit.
    """
    if not fractions:
        raise ConfigurationError("sweep needs at least one removal fraction")
    for p in fractions:
        if not 0.0 <= p < 1.0:
            raise ConfigurationError(f"removal fraction must be in [0, 1), got {p}")
    pool, test = split_pool(data, cfg)
    traj, auc_before, accuracy_before = _train_and_attack(cfg, model, pool, test)
    ranked = rank_examples(audit(traj, pool, mode=audit_mode, cadence=cadence, tol=tol))
    n_pool = len(pool)
    reports = []
    for p in fractions:
        k = math.ceil(p * n_pool)
        removed = ranked[:k]
        survivors = np.setdiff1d(np.arange(n_pool), removed)
        n_train_after = int(round(cfg.n_train * (n_pool - k) / n_pool))
        if not cfg.batch_size <= n_train_after:
            raise ConfigurationError(
                f"removal fraction {p} leaves n_train={n_train_after} below "
                f"batch_size={cfg.batch_size}"
            )
        cfg_after = dc_replace(cfg, n_total=n_pool - k, n_train=n_train_after)
        _, auc_after, accuracy_after = _train_and_attack(
            cfg_after, model, pool.subset(survivors), test
        )
        reports.append(
            DefenseReport(
                removed_fraction=float(p),
                removed_ids=tuple(int(i) for i in removed),
                auc_before=auc_before,
                auc_after=auc_after,
                test_accuracy_before=accuracy_before,
                test_accuracy_after=accuracy_after,
                n_train_after=n_train_after,
            )
        )
    return reports


def run_defense(
    cfg: SamplingConfig,
    model: ModelSpec,
    data: Dataset,
    p: float,
    audit_mode: GramMode = GramMode.FULL_EXACT,
    cadence: AuditCadence = AuditCadence.EVERY_EPOCH,
    tol: float = DEFAULT_TOL,
) -> DefenseReport:
    """Full before/after comparison at removal fraction p: a one-fraction sweep."""
    return run_defense_sweep(cfg, model, data, [p], audit_mode, cadence, tol)[0]
