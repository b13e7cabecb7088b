"""Desk-scale differentiable models with exact per-example gradients.

Three model kinds, all with hand-derived analytic gradients (no autodiff):

* linear2d: scalar linear regression, params (w, b), loss 1/2 (w x + b - y)^2.
  The 1/2 makes the gradient exactly -r [x, 1] with residual r = y - (w x + b).
* logistic: multiclass softmax regression with natural-log cross-entropy.
* mlp: one tanh hidden layer into softmax cross-entropy. tanh keeps the loss
  smooth so finite-difference checks hold tightly everywhere.

Parameters travel as one flat float64 vector. Packing order for logistic is
[W.ravel(), b] with W of shape (n_classes, input_dim); for mlp it is
[W1.ravel(), b1, W2.ravel(), b2] with W1 (hidden, input), W2 (classes, hidden).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError
from .sampling import _INIT_TAG, ConfigSection, stream


class ModelKind(enum.Enum):
    LINEAR2D = "linear2d"
    LOGISTIC = "logistic"
    MLP = "mlp"


class InitKind(enum.Enum):
    ZEROS = "zeros"
    SEEDED_GAUSSIAN = "seeded_gaussian"


@dataclass(frozen=True)
class ModelSpec(ConfigSection):
    section = "model"

    kind: ModelKind
    input_dim: int = 1
    hidden_dim: int = 0
    n_classes: int = 0
    init: InitKind = InitKind.ZEROS
    init_scale: float = 0.1

    def __post_init__(self) -> None:
        # Accept the enum values as plain strings; identity dispatch below
        # would silently misroute a string kind.
        if not isinstance(self.kind, ModelKind):
            object.__setattr__(self, "kind", ModelKind(self.kind))
        if not isinstance(self.init, InitKind):
            object.__setattr__(self, "init", InitKind(self.init))
        if self.kind is ModelKind.LINEAR2D:
            if self.input_dim != 1:
                raise ConfigurationError("linear2d is scalar regression; input_dim must be 1")
        elif self.kind is ModelKind.LOGISTIC:
            if self.input_dim < 1 or self.n_classes < 2:
                raise ConfigurationError("logistic needs input_dim >= 1 and n_classes >= 2")
        else:
            if self.input_dim < 1 or self.hidden_dim < 1 or self.n_classes < 2:
                raise ConfigurationError(
                    "mlp needs input_dim >= 1, hidden_dim >= 1, n_classes >= 2"
                )
        if self.hidden_dim < 0 or self.n_classes < 0:
            raise ConfigurationError("model.hidden_dim and model.n_classes must be >= 0")
        if not self.init_scale > 0:
            raise ConfigurationError(f"model.init_scale must be positive, got {self.init_scale}")

    @property
    def n_params(self) -> int:
        if self.kind is ModelKind.LINEAR2D:
            return 2
        if self.kind is ModelKind.LOGISTIC:
            return self.n_classes * (self.input_dim + 1)
        return self.hidden_dim * (self.input_dim + 1) + self.n_classes * (self.hidden_dim + 1)

    @property
    def is_classifier(self) -> bool:
        return self.kind is not ModelKind.LINEAR2D


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    if spec.init is InitKind.ZEROS:
        return np.zeros(spec.n_params)
    with np.errstate(over="ignore"):
        params = spec.init_scale * stream(seed, _INIT_TAG).standard_normal(spec.n_params)
    if not np.all(np.isfinite(params)):
        raise ConfigurationError(f"model.init_scale {spec.init_scale} overflows the initial parameters")
    return params


def _check_shapes(spec: ModelSpec, params: np.ndarray, features: np.ndarray) -> None:
    if params.shape != (spec.n_params,):
        raise ShapeError(f"params shape {params.shape} != ({spec.n_params},)")
    if features.shape[-1] != spec.input_dim:
        raise ShapeError(f"feature dim {features.shape[-1]} != input_dim {spec.input_dim}")


def _unpack_logistic(spec: ModelSpec, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c, d = spec.n_classes, spec.input_dim
    return params[: c * d].reshape(c, d), params[c * d :]


def _unpack_mlp(spec: ModelSpec, params: np.ndarray):
    h, d, c = spec.hidden_dim, spec.input_dim, spec.n_classes
    o = 0
    w1 = params[o : o + h * d].reshape(h, d)
    o += h * d
    b1 = params[o : o + h]
    o += h
    w2 = params[o : o + c * h].reshape(c, h)
    o += c * h
    b2 = params[o : o + c]
    return w1, b1, w2, b2


def _logits(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Classifier logits of rows x, the mlp's hidden layer, and the logits' weights.

    The hidden layer is the tanh activations (None for logistic); the weights
    are W for logistic and W2 for mlp, which the mlp's backward pass reuses.
    """
    if spec.kind is ModelKind.LOGISTIC:
        wmat, bvec = _unpack_logistic(spec, params)
        return x @ wmat.T + bvec, None, wmat
    w1, b1, w2, b2 = _unpack_mlp(spec, params)
    hidden = np.tanh(x @ w1.T + b1)
    return hidden @ w2.T + b2, hidden, w2


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def _class_targets(spec: ModelSpec, targets: np.ndarray) -> np.ndarray:
    y = np.asarray(targets)
    if not np.issubdtype(y.dtype, np.integer):
        yi = y.astype(np.int64)
        if not np.all(yi == y):
            raise ConfigurationError("classifier targets must be integral class indices")
        y = yi
    if y.size and (y.min() < 0 or y.max() >= spec.n_classes):
        raise ConfigurationError(
            f"class labels must be in [0, {spec.n_classes}), got range [{y.min()}, {y.max()}]"
        )
    return y


def _targets(spec: ModelSpec, targets: np.ndarray) -> np.ndarray:
    """Targets as the kernels read them: float64 for linear2d, checked class indices otherwise."""
    if spec.is_classifier:
        return _class_targets(spec, targets)
    return np.asarray(targets, dtype=np.float64)


def loss_all(spec: ModelSpec, params: np.ndarray, features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-example losses for a whole feature matrix, vectorized."""
    params = np.asarray(params, dtype=np.float64)
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    _check_shapes(spec, params, x)
    y = _targets(spec, targets)
    if spec.kind is ModelKind.LINEAR2D:
        w, b = params
        r = y - (w * x[:, 0] + b)
        return 0.5 * r**2
    logp = _log_softmax(_logits(spec, params, x)[0])
    return -logp[np.arange(x.shape[0]), y]


def loss(spec: ModelSpec, params: np.ndarray, features: np.ndarray, target) -> float:
    """Point-wise loss of a single example."""
    return float(loss_all(spec, params, np.atleast_2d(features), np.atleast_1d(target))[0])


def gradient_all(
    spec: ModelSpec,
    params: np.ndarray,
    features: np.ndarray,
    targets: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Exact per-example loss gradients, one row per example, shape (N, n_params).

    out, if given, is a C-contiguous float64 (N, n_params) array that receives
    the gradients and is returned; every entry is the same float operation as
    without it, so a caller can reuse one buffer across parameter vectors.
    """
    params = np.asarray(params, dtype=np.float64)
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    _check_shapes(spec, params, x)
    n = x.shape[0]
    if out is None:
        out = np.empty((n, spec.n_params))
    elif (
        out.shape != (n, spec.n_params)
        or out.dtype != np.float64
        or not out.flags.c_contiguous
    ):
        raise ShapeError(
            f"out must be a C-contiguous float64 array of shape ({n}, {spec.n_params}), "
            f"got {out.dtype} {out.shape}"
        )
    return _gradients(spec, params, x, _targets(spec, targets), out)


def _gradients(
    spec: ModelSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """gradient_all's arithmetic with no checks: rows of x, y from `_targets`, into out.

    The caller guarantees what gradient_all checks: float64 params of shape
    (n_params,), float64 x of shape (n, input_dim), and out a C-contiguous
    float64 (n, n_params) array, which is filled and returned.
    """
    if spec.kind is ModelKind.LINEAR2D:
        w, b = params
        r = y - (w * x[:, 0] + b)
        out[:, 0] = -r * x[:, 0]
        out[:, 1] = -r
        return out
    logits, a, w2 = _logits(spec, params, x)
    p = np.exp(_log_softmax(logits), out=logits)
    c, d = spec.n_classes, spec.input_dim
    p -= y[:, None] == np.arange(c)  # dlogits = softmax - onehot
    if a is None:
        np.einsum("nc,nd->ncd", p, x, out=_block(out, 0, c, d))
        out[:, c * d :] = p
        return out
    h = spec.hidden_dim
    d1 = p @ w2
    d1 *= 1.0 - a**2
    o = h * d
    np.einsum("nh,nd->nhd", d1, x, out=_block(out, 0, h, d))
    out[:, o : o + h] = d1
    o += h
    np.einsum("nc,nh->nch", p, a, out=_block(out, o, c, h))
    out[:, o + c * h :] = p
    return out


def _block(out: np.ndarray, start: int, rows: int, cols: int) -> np.ndarray:
    """Columns start .. start + rows * cols of out, viewed as (N, rows, cols) without a copy."""
    view = out[:, start : start + rows * cols]
    view.shape = (out.shape[0], rows, cols)  # raises rather than copy
    return view


def per_example_gradient(spec: ModelSpec, params: np.ndarray, features: np.ndarray, target) -> np.ndarray:
    """Exact gradient of one example's loss; linear2d gives -r [x, 1]."""
    return gradient_all(spec, params, np.atleast_2d(features), np.atleast_1d(target))[0]


def predict(spec: ModelSpec, params: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Model predictions: argmax class for classifiers, w x + b for linear2d."""
    params = np.asarray(params, dtype=np.float64)
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    _check_shapes(spec, params, x)
    if spec.kind is ModelKind.LINEAR2D:
        return params[0] * x[:, 0] + params[1]
    return _logits(spec, params, x)[0].argmax(axis=1)


def accuracy(spec: ModelSpec, params: np.ndarray, features: np.ndarray, targets: np.ndarray) -> float:
    if not spec.is_classifier:
        raise ConfigurationError("accuracy is defined for classifier kinds only")
    y = _class_targets(spec, np.asarray(targets))
    return float(np.mean(predict(spec, params, features) == y))
