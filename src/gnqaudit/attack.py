"""Loss-threshold membership inference, used to evaluate the audit, not as a
contribution: members of the training set tend to end up with lower loss, so
score = -loss at the final parameters and predict "member" above a threshold.

The threshold is the oracle choice maximizing balanced accuracy on the
labeled evaluation set, which overstates a realistic attacker and is
therefore conservative for validating the bound. AUC is the Mann-Whitney
statistic computed from tie-averaged ranks, so identical scores contribute
half credit and a constant scorer sits at exactly 0.5. Ranks and Spearman's
rho are computed in numpy alone, since every CLI command is a fresh process
and loading a statistics library would dominate its start-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigurationError
from .models import ModelSpec, loss_all
from .training import AuditRecord


@dataclass(frozen=True)
class AttackResult:
    """Per-example scores and success bits plus the summary metrics."""

    per_example_score: np.ndarray
    per_example_success: np.ndarray
    membership: np.ndarray
    auc: float
    threshold: float


@dataclass(frozen=True)
class BinnedCurve:
    """Mean attack success binned by cumulative uniqueness score.

    Zeros get their own leading bin (log-spaced edges cannot contain 0);
    bin_edges bound the positive bins only. spearman is the rank correlation
    between cumulative score and the success bit over all examples.
    """

    zero_count: int
    zero_mean_success: float
    bin_edges: np.ndarray
    bin_counts: np.ndarray
    bin_mean_success: np.ndarray
    spearman: float


def rankdata(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of their positions.

    If any entry is NaN, every rank is NaN.
    """
    x = np.asarray(x)
    order = np.argsort(x, kind="stable")
    y = x[order]
    starts = np.flatnonzero(np.concatenate(([True], y[:-1] != y[1:])))
    counts = np.diff(starts, append=y.size)
    ranks = np.empty(y.size)
    ranks[order] = np.repeat(starts + 1.0 + (counts - 1) / 2.0, counts)
    if np.isnan(x).any():
        ranks[:] = np.nan
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho: Pearson's correlation of the tie-averaged ranks.

    NaN when x or y is constant or holds a NaN.
    """
    x, y = np.asarray(x), np.asarray(y)
    if np.all(x == x[0]) or np.all(y == y[0]):
        return float("nan")
    return float(np.corrcoef(rankdata(x), rankdata(y))[1, 0])


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with average ranks for ties."""
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ConfigurationError("AUC undefined: need both members and non-members")
    ranks = rankdata(scores)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _oracle_threshold(scores: np.ndarray, labels: np.ndarray) -> float:
    """Threshold (predict member iff score >= tau) maximizing balanced accuracy.

    Candidates are +inf (predict nobody) and every distinct score; ties in
    balanced accuracy resolve to the largest threshold, i.e. the most
    conservative attacker among the best. The members and non-members at or
    above each candidate are counted by binary search in their sorted scores,
    where a NaN score sorts last and is at or above no candidate.
    """
    scores = np.asarray(scores)
    labels = np.asarray(labels, dtype=bool)
    n_pos = labels.sum()
    n_neg = labels.size - n_pos
    candidates = np.concatenate([[np.inf], np.unique(scores)[::-1]])

    def at_or_above(group: np.ndarray) -> np.ndarray:
        ranked = np.sort(group)
        not_nan = ranked.size - np.isnan(ranked).sum()
        return not_nan - np.searchsorted(ranked, candidates, side="left")

    tp = at_or_above(scores[labels])
    fp = at_or_above(scores[~labels])
    bacc = 0.5 * (tp / n_pos + (n_neg - fp) / n_neg)
    # No labels of one kind make every bacc NaN, and the threshold stays +inf.
    best = np.argmax(np.where(np.isnan(bacc), -np.inf, bacc))
    return float(candidates[best])


def loss_attack(model: ModelSpec, params_final: np.ndarray, data: Dataset) -> AttackResult:
    """Score every example by -loss at the final parameters and threshold."""
    if data.membership is None:
        raise ConfigurationError("loss attack needs membership ground truth on the dataset")
    labels = data.membership.astype(bool)
    scores = -loss_all(model, params_final, data.features, data.targets)
    auc = rank_auc(scores, labels)
    tau = _oracle_threshold(scores, labels)
    predicted = scores >= tau
    success = (predicted == labels).astype(np.uint8)
    return AttackResult(
        per_example_score=scores,
        per_example_success=success,
        membership=labels.astype(np.uint8),
        auc=auc,
        threshold=tau,
    )


def success_vs_gnq(attack: AttackResult, audit: AuditRecord, n_bins: int) -> BinnedCurve:
    """Log-binned attack success against cumulative uniqueness, plus Spearman.

    Requires at least 2 distinct cumulative values (otherwise the binning is
    degenerate) and n_bins >= 2 log-spaced bins over the positive values.
    """
    if n_bins < 2:
        raise ConfigurationError(f"n_bins must be >= 2, got {n_bins}")
    gnq = np.asarray(audit.cumulative_gnq, dtype=np.float64)
    success = np.asarray(attack.per_example_success, dtype=np.float64)
    if gnq.shape != success.shape:
        raise ConfigurationError(
            f"audit covers {gnq.shape[0]} examples, attack {success.shape[0]}"
        )
    if np.unique(gnq).size < 2:
        raise ConfigurationError("degenerate binning: fewer than 2 distinct uniqueness values")
    zero = gnq == 0.0
    positive = gnq[~zero]
    lo, hi = positive.min(), positive.max()
    # geomspace can round an interior edge past an endpoint when lo == hi,
    # which would leave the edges out of order.
    edges = np.clip(np.geomspace(lo, hi, n_bins + 1), lo, hi)
    edges[-1] = np.nextafter(hi, np.inf)  # right-open bins must keep the max
    which = np.digitize(positive, edges) - 1
    counts = np.bincount(which, minlength=n_bins)
    sums = np.bincount(which, weights=success[~zero], minlength=n_bins)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    rho = spearman(gnq, success)
    return BinnedCurve(
        zero_count=int(zero.sum()),
        zero_mean_success=float(success[zero].mean()) if zero.any() else float("nan"),
        bin_edges=edges,
        bin_counts=counts,
        bin_mean_success=means,
        spearman=rho if np.isfinite(rho) else 0.0,
    )
