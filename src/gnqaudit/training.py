"""Mini-batch SGD with two-level sampling, trajectory capture, and audits.

Training follows the update theta_{i+1} = theta_i - eta * g_hat_i with

    g_hat_i = (1/B) * sum_n T_n M_in g_in,

i.e. the gradient sum over the realized batch normalized by the expected
batch size B, never the realized count. An empty realized batch contributes a
zero update but still counts as an iteration. The member gradients are rows
of one (batch, N_p) array in ascending example-index order, and the batch
sum adds them one row at a time in that order: numpy's axis-0 sum of a
C-contiguous array with at least two columns (every model has N_p >= 2) is
not a pairwise sum. So trajectories are bit-identical across runs for
identical (config, data).

An audit walks recorded parameter vectors, recomputes every example's
gradient there and scores uniqueness in the requested mode; bits and floors
are derived from the scores only where reported (`reports.audit_report`).
Storing parameters and recomputing gradients keeps memory at
O(N_p * n_iters + N * N_p) instead of O(N * n_iters * N_p); the CLI's
gradient dump recomputes and writes one iteration's matrix at a time, so the
bound holds for it too, and so does writing the checkpoint, which streams
the parameter array row by row and holds the array plus one row's text.

A checkpoint stores parameters only. Training membership and every
iteration's batch are redrawn from the sampling config's counter-based
streams (`train_indicator`, and `batch_indices`, the one route to the
batches), so the seed is their one source of truth.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import geometry
from .canonical import write_json
from .data import Dataset
from .errors import CapacityError, ConfigurationError, DivergenceError, ShapeError
from .geometry import GradientSet, GramMode, SpectrumHealth, diagonal_scores, loo_scores
from .models import ModelSpec, _gradients, _targets, gradient_all, init_params
from .sampling import SamplingConfig, batch_indices, train_indicator

TRAJECTORY_FORMAT_VERSION = 3


class AuditCadence(enum.Enum):
    EVERY_ITERATION = "every_iteration"
    EVERY_EPOCH = "every_epoch"
    FINAL_ONLY = "final_only"


@dataclass(frozen=True)
class TrainingTrajectory:
    """Everything needed to replay or audit one training run.

    Batches are not stored: batch_indices(cfg) regenerates them in order.
    """

    cfg: SamplingConfig
    model: ModelSpec
    params_per_iter: np.ndarray  # (n_iters + 1, n_params); row i is theta_i
    dataset_sha256: str  # Dataset.sha256 of the rows it was trained on

    def __post_init__(self) -> None:
        expected = (self.cfg.n_iters + 1, self.model.n_params)
        if self.params_per_iter.shape != expected:
            raise ShapeError(
                f"params_per_iter shape {self.params_per_iter.shape} != {expected}"
            )

    @property
    def final_params(self) -> np.ndarray:
        return self.params_per_iter[-1]

    @property
    def train_indicator(self) -> np.ndarray:
        return train_indicator(self.cfg)


@dataclass(frozen=True)
class AuditRecord:
    """Per-iteration uniqueness scores and the health of each factorization.

    values[r, j] and range_ok[r, j] are example j's score and range flag at
    audited_iterations[r]. spectra maps each iteration an exact mode audited
    to the health of the Gram matrix it factored, its fallback counts
    included.
    """

    mode: GramMode
    cadence: AuditCadence
    audited_iterations: tuple[int, ...]
    values: np.ndarray
    range_ok: np.ndarray
    tol: float
    spectra: dict[int, SpectrumHealth] = field(default_factory=dict)

    @property
    def cumulative_gnq(self) -> np.ndarray:
        """Each example's score summed over the audited iterations (column sums of values)."""
        return self.values.sum(axis=0)

    @property
    def n_examples(self) -> int:
        return self.values.shape[1]

    @property
    def range_violations(self) -> tuple[tuple[int, int], ...]:
        """(iteration, example) pairs flagged out of range, in ascending order."""
        return tuple(
            (self.audited_iterations[row], example)
            for row, example in np.argwhere(~self.range_ok).tolist()
        )


def train(cfg: SamplingConfig, model: ModelSpec, data: Dataset) -> TrainingTrajectory:
    """Run SGD for cfg.n_iters iterations and record the full trajectory.

    The inputs are checked once, every class label of the pool included, so a
    bad label raises ConfigurationError before the first step. Each step
    writes its batch's gradients into one buffer with as many rows as the
    training set, through the kernel `gradient_all` uses. Raises
    DivergenceError (naming the iteration) as soon as a batch gradient sum or
    updated parameter vector stops being finite.
    """
    if len(data) != cfg.n_total:
        raise ConfigurationError(
            f"dataset has {len(data)} rows but config says n_total={cfg.n_total}"
        )
    if data.input_dim != model.input_dim:
        raise ShapeError(
            f"dataset dim {data.input_dim} != model input_dim {model.input_dim}"
        )
    # Dataset holds float64 features; every pool label is checked here, not
    # only those of the rows that batches reach.
    x, y = data.features, _targets(model, data.targets)
    trajectory = np.empty((cfg.n_iters + 1, model.n_params))
    trajectory[0] = init_params(model, cfg.seed)
    grads = np.empty((np.count_nonzero(train_indicator(cfg)), model.n_params))
    lr, b = cfg.learning_rate, cfg.batch_size
    # Overflow on the way to divergence is expected and raised, not warned.
    with np.errstate(over="ignore", invalid="ignore"):
        for i, members in enumerate(batch_indices(cfg)):
            params, row = trajectory[i], trajectory[i + 1]
            batch = _gradients(model, params, x[members], y[members], grads[: members.size])
            g_sum = batch.sum(axis=0)
            np.subtract(params, lr * (g_sum / b), out=row)
            # A non-finite entry of g_sum makes the new row non-finite (lr > 0),
            # so one check on the row catches both kinds of divergence.
            if not np.isfinite(row).all():
                if not np.isfinite(g_sum).all():
                    raise DivergenceError(f"non-finite gradient at iteration {i}", iteration=i)
                raise DivergenceError(f"non-finite parameters after iteration {i}", iteration=i)
    return TrainingTrajectory(
        cfg=cfg,
        model=model,
        params_per_iter=trajectory,
        dataset_sha256=data.sha256,
    )


def audited_iterations(cfg: SamplingConfig, cadence: AuditCadence) -> tuple[int, ...]:
    """Which parameter snapshots an audit visits.

    EVERY_ITERATION visits the pre-update state of each executed iteration
    (0 .. n_iters-1). EVERY_EPOCH visits multiples of the epoch length
    max(1, n_train // batch_size) plus the final state. FINAL_ONLY visits the
    final state alone.
    """
    if cadence is AuditCadence.EVERY_ITERATION:
        return tuple(range(cfg.n_iters))
    if cadence is AuditCadence.FINAL_ONLY:
        return (cfg.n_iters,)
    epoch = max(1, cfg.n_train // cfg.batch_size)
    marks = list(range(epoch, cfg.n_iters + 1, epoch))
    if not marks or marks[-1] != cfg.n_iters:
        marks.append(cfg.n_iters)
    return tuple(marks)


def audit(
    traj: TrainingTrajectory,
    data: Dataset,
    mode: GramMode = GramMode.FULL_EXACT,
    cadence: AuditCadence = AuditCadence.EVERY_EPOCH,
    tol: float = geometry.DEFAULT_TOL,
) -> AuditRecord:
    """Recompute gradients along the trajectory and score every example.

    FULL_EXACT scores with `loo_scores`, DIAGONAL with `diagonal_scores`;
    either way each example is scored against the gradients of the whole
    pool. Every audited iteration's gradients are written into one (N, N_p)
    buffer allocated per audit, and diagonal mode squares them into one
    scratch array of the same shape; neither is reallocated per iteration,
    and the scores are copied out before the next iteration overwrites them.
    """
    if len(data) != traj.cfg.n_total:
        raise ConfigurationError(
            f"dataset has {len(data)} rows but trajectory says n_total={traj.cfg.n_total}"
        )
    exact = mode is GramMode.FULL_EXACT
    if exact and traj.model.n_params > geometry.EXACT_MODE_DIM_CAP:
        raise CapacityError(
            f"exact mode caps n_params at {geometry.EXACT_MODE_DIM_CAP}, "
            f"got {traj.model.n_params}; use diagonal mode"
        )
    iters = audited_iterations(traj.cfg, cadence)
    n = traj.cfg.n_total
    values = np.zeros((len(iters), n))
    range_ok = np.zeros((len(iters), n), dtype=bool)
    spectra: dict[int, SpectrumHealth] = {}
    grads = np.empty((n, traj.model.n_params))
    work = None if exact else np.empty_like(grads)
    for row, i in enumerate(iters):
        gradient_all(
            traj.model, traj.params_per_iter[i], data.features, data.targets, out=grads
        )
        # GradientSet rejects non-finite gradients from a corrupt checkpoint.
        GradientSet(grads)
        if exact:
            values[row], range_ok[row], _, spectra[i] = loo_scores(grads, tol)
        else:
            values[row], range_ok[row] = diagonal_scores(grads, work)
    return AuditRecord(
        mode=mode,
        cadence=cadence,
        audited_iterations=iters,
        values=values,
        range_ok=range_ok,
        tol=tol,
        spectra=spectra,
    )


def save_trajectory(path: str | Path, traj: TrainingTrajectory) -> None:
    """Write a replayable JSON checkpoint (floats via repr, bit-exact).

    The parameters are streamed one row at a time; see canonical.write_json.
    """
    write_json(path, {
        "format_version": TRAJECTORY_FORMAT_VERSION,
        "sampling": traj.cfg.to_json_dict(),
        "model": traj.model.to_json_dict(),
        "params_per_iter": traj.params_per_iter,
        "dataset_sha256": traj.dataset_sha256,
    })


def _checkpoint_params(rows) -> np.ndarray:
    """params_per_iter as a float64 array; every entry must be a finite JSON number.

    np.array(..., dtype=np.float64) alone would also take "1.5", "nan" and
    booleans.
    """
    odd = set(map(type, itertools.chain.from_iterable(rows))) - {int, float}
    if odd:
        names = ", ".join(sorted(kind.__name__ for kind in odd))
        raise ValueError(f"params_per_iter holds non-numbers ({names})")
    params = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(params)):
        raise ValueError("params_per_iter holds a non-finite number")
    return params


def load_trajectory(path: str | Path) -> TrainingTrajectory:
    """Read a checkpoint written by save_trajectory; malformed files raise ConfigurationError."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"trajectory file not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{path}: checkpoint root must be a JSON object")
    version = payload.get("format_version")
    if version != TRAJECTORY_FORMAT_VERSION:
        raise ConfigurationError(
            f"{path}: unsupported trajectory format_version {version!r}"
        )
    try:
        return TrainingTrajectory(
            cfg=SamplingConfig.from_json_dict(payload["sampling"]),
            model=ModelSpec.from_json_dict(payload["model"]),
            params_per_iter=_checkpoint_params(payload["params_per_iter"]),
            dataset_sha256=payload["dataset_sha256"],
        )
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise ConfigurationError(f"{path}: malformed checkpoint: {exc!r}") from exc
