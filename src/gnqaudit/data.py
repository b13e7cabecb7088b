"""Datasets: in-memory container, synthetic generators, and CSV round-trip.

A `Dataset` is features, targets and an optional membership indicator, and
nothing else: a run names its data by the config section that built it, and a
checkpoint by the dataset's `sha256`.

The CSV schema is a header row of feature columns followed by one target
column (name configurable, default "target"). Floats are written with repr so
a write -> read -> write cycle is byte-identical; integral class targets stay
integers. Membership ground truth never travels in the CSV; it is produced by
the sampling draw and carried in trajectories and reports.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ShapeError
from .sampling import _DATA_TAG, stream


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus targets; targets are int64 exactly for classification.

    A non-finite feature or target is refused, naming its row and column.
    """

    features: np.ndarray
    targets: np.ndarray
    membership: np.ndarray | None = None

    def __post_init__(self) -> None:
        f = np.asarray(self.features, dtype=np.float64)
        if f.ndim != 2:
            raise ShapeError(f"features must be 2-d (N, dim), got shape {f.shape}")
        t = np.asarray(self.targets)
        if t.shape != (f.shape[0],):
            raise ShapeError(f"targets shape {t.shape} does not match {f.shape[0]} rows")
        for name, values in (("features", f), ("targets", t[:, None])):
            if values.dtype.kind == "f" and not np.isfinite(values).all():
                row, col = np.argwhere(~np.isfinite(values))[0].tolist()
                raise ConfigurationError(f"{name} hold a non-finite value at row {row}, column {col}")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "targets", t)
        if self.membership is not None:
            m = np.asarray(self.membership, dtype=np.uint8)
            if m.shape != (f.shape[0],):
                raise ShapeError("membership length must equal the number of examples")
            object.__setattr__(self, "membership", m)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    @property
    def sha256(self) -> str:
        """sha256 of the features' then the targets' bytes, both as little-endian float64."""
        h = hashlib.sha256(np.ascontiguousarray(self.features, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(self.targets, dtype="<f8").tobytes())
        return h.hexdigest()

    def with_membership(self, membership: np.ndarray) -> "Dataset":
        return replace(self, membership=membership)

    def subset(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            features=self.features[idx],
            targets=self.targets[idx],
            membership=None if self.membership is None else self.membership[idx],
        )


def make_outlier_regression_dataset() -> Dataset:
    """Seven-point regression set: six near-collinear points plus one outlier.

    The six bulk points sit on y = x with alternating residuals of a few
    hundredths, so at their least-squares fit every bulk gradient is tiny and
    they all share the rotational direction the fit leaves over. Point index 6
    sits far off the line at high leverage (x = 5, y = 1), so its gradient
    -r [x, 1] is orders of magnitude larger and points the other way: it has
    by far the largest uniqueness score at the six-point fit, and refitting
    with it included rotates the slope downward.
    """
    xs = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 5.0])
    ys = np.array([0.05, 0.46, 1.03, 1.45, 2.04, 2.47, 1.0])
    return Dataset(features=xs[:, None], targets=ys)


def make_blobs(
    class_sizes: list[int],
    input_dim: int,
    center_distance: float,
    spread: float,
    seed: int,
) -> Dataset:
    """Isotropic Gaussian class blobs with centers +-(d/2) along per-pair axes.

    Class c is centered at sign * (center_distance / 2) * e_{c // 2} with sign
    alternating by parity, so consecutive classes oppose each other on one
    axis. With spread comparable to center_distance the classes overlap
    heavily and a model can only fit the training points by memorizing them,
    which is the regime the audit is meant to expose.
    """
    if len(class_sizes) < 2 or any(s < 1 for s in class_sizes):
        raise ConfigurationError("need at least 2 classes with positive sizes")
    if input_dim < (len(class_sizes) + 1) // 2:
        raise ConfigurationError(
            f"input_dim {input_dim} too small for {len(class_sizes)} class centers"
        )
    if spread < 0 or center_distance < 0:
        raise ConfigurationError("spread and center_distance must be nonnegative")
    rng = stream(seed, _DATA_TAG)
    parts = []
    labels = []
    for c, size in enumerate(class_sizes):
        center = np.zeros(input_dim)
        center[c // 2] = (1.0 if c % 2 == 0 else -1.0) * center_distance / 2.0
        parts.append(center + spread * rng.standard_normal((size, input_dim)))
        labels.append(np.full(size, c, dtype=np.int64))
    return Dataset(features=np.concatenate(parts, axis=0), targets=np.concatenate(labels))


def make_linear_dataset(
    n_examples: int,
    slope: float,
    intercept: float,
    noise_scale: float,
    x_low: float,
    x_high: float,
    seed: int,
) -> Dataset:
    """Noisy scalar regression targets y = slope * x + intercept + noise."""
    if n_examples < 1:
        raise ConfigurationError("n_examples must be >= 1")
    rng = stream(seed, _DATA_TAG)
    x = rng.uniform(x_low, x_high, size=n_examples)
    y = slope * x + intercept + noise_scale * rng.standard_normal(n_examples)
    return Dataset(features=x[:, None], targets=y)


def save_csv_dataset(path: str | Path, ds: Dataset, target_column: str = "target") -> None:
    path = Path(path)
    classifier = np.issubdtype(ds.targets.dtype, np.integer)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{i}" for i in range(ds.input_dim)] + [target_column])
        for row, target in zip(ds.features, ds.targets):
            cells = [repr(float(v)) for v in row]
            cells.append(str(int(target)) if classifier else repr(float(target)))
            writer.writerow(cells)


def load_csv_dataset(path: str | Path, target_column: str = "target") -> Dataset:
    """Parse a dataset CSV; targets become int64 when every value is integral.

    Errors name the offending line (1-based, header included) and column.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"dataset file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigurationError(f"{path}: empty file") from None
        if target_column not in header:
            raise ConfigurationError(f"{path}: no column named {target_column!r} in header")
        target_idx = header.index(target_column)
        feature_idx = [i for i in range(len(header)) if i != target_idx]
        features: list[list[float]] = []
        raw_targets: list[str] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ConfigurationError(
                    f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            parsed = []
            for i in feature_idx:
                try:
                    parsed.append(float(row[i]))
                except ValueError:
                    raise ConfigurationError(
                        f"{path}: line {lineno}: non-numeric value {row[i]!r} "
                        f"in column {header[i]!r}"
                    ) from None
            features.append(parsed)
            raw_targets.append(row[target_idx])
    if not features:
        raise ConfigurationError(f"{path}: no data rows")
    try:
        int_targets = [int(v) for v in raw_targets]
        targets: np.ndarray = np.array(int_targets, dtype=np.int64)
    except ValueError:
        try:
            targets = np.array([float(v) for v in raw_targets], dtype=np.float64)
        except ValueError as exc:
            raise ConfigurationError(f"{path}: non-numeric target: {exc}") from None
    feature_array = np.array(features)
    table = np.column_stack([feature_array, targets])
    if not np.isfinite(table).all():
        row, col = np.argwhere(~np.isfinite(table))[0].tolist()
        column = ([header[i] for i in feature_idx] + [target_column])[col]
        value = float(table[row, col])
        raise ConfigurationError(f"{path}: line {row + 2}: non-finite value {value!r} in column {column!r}")
    return Dataset(features=feature_array, targets=targets)
