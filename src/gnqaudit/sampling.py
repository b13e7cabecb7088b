"""Two-level inclusion sampling for mini-batch SGD and its closed-form moments.

Membership is modeled by two layers of indicators over a public pool of N
examples: a training indicator T_n selecting the n_train-point training set,
and a per-iteration batch indicator M_in with P[M_in = 1 | T_n = 1] = B/n_train.
An example contributes to the iteration-i gradient iff T_n * M_in = 1, so the
realized batch size is random with mean B. `train_indicator` draws the
training set and `batch_indices`, the one route to the batches, each batch.

Two training-set schemes are supported:

* without_replacement: the training set is a uniformly random size-n_train
  subset of the pool, so popcount(t) = n_train exactly and the T_n are
  exchangeable but dependent.
* independent_bernoulli: each T_n ~ Bernoulli(n_train / n_total) i.i.d., the
  model under which the product indicators of distinct examples are exactly
  independent.

`indicator_moments` returns the closed-form variances of T_n M_in
(unconditional and conditional on another example's membership T_j) plus the
asymptotic variance ratio

    kappa = (N / n_train) * (1 - B/n_train) / (1 - B/N),

which is the large-N limit of V[M_ij | T_j = 1] / V[T_n M_in | T_j = 1] and is
exact at finite N under the independent_bernoulli scheme.
`enumerate_exact_moments` recomputes all of these (and the pairwise cross
covariances the closed forms neglect) by exhaustive enumeration over all 3^N
joint indicator states; it is the oracle the formulas are tested against.
This module owns the one exact sampling law and the one enumeration:
`count_law` is the only place either scheme's law is written, and both the
3^N enumeration and the oracle's discrete mutual information read it.
`state_laws` gives the states and their laws (unconditional and given T_j),
`weighted_moments` accumulates moments of Z or of the normalized gradient
sum Z G / B under one of them, and the oracle's update covariances come from
the same two.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import operator
import sys
import typing
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import CapacityError, ConfigurationError

# Enumeration over joint (t, m) states is 3^N; 14 keeps the state count under
# five million and the digit table under ~70 MB.
ENUMERATION_MAX_N = 14

# Substream tags keep the training draw, batch draws, model init, and data
# generation on disjoint streams of one base seed.
_TRAIN_TAG = 1
_STEP_TAG = 2
_INIT_TAG = 3
_DATA_TAG = 4
_SPLIT_TAG = 5


class SamplingScheme(enum.Enum):
    WITHOUT_REPLACEMENT = "without_replacement"
    INDEPENDENT_BERNOULLI = "independent_bernoulli"


def stream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, *path).

    Each (seed, path) pair owns an independent stream, so draws are
    reproducible regardless of the order in which callers ask for them.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *path])))


# The four bounds: the comparison a value must pass and its sign in messages.
_BOUNDS = {
    "minimum": (operator.ge, ">="),
    "exclusiveMinimum": (operator.gt, ">"),
    "maximum": (operator.le, "<="),
    "exclusiveMaximum": (operator.lt, "<"),
}
# JSON types by the program's rules, stricter than JSON Schema's: a bool is
# not an integer, 12.0 is not an integer, and NaN and +-Infinity, which
# Python's json reads though JSON has no such literals, are not numbers.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "integer": lambda v: type(v) is int,
    "number": lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
}
# Every keyword check_config reads; config.schema.json may use no other.
_CONFIG_KEYWORDS = frozenset({
    "$schema", "$id", "title", "type", "enum", "const", *_BOUNDS, "items", "minItems",
    "properties", "required", "additionalProperties", "minProperties", "maxProperties", "oneOf",
})


@lru_cache(maxsize=1)
def config_schema() -> dict:
    """The shipped config.schema.json: the one definition of what a config may hold."""
    return json.loads((Path(__file__).parent / "schemas" / "config.schema.json").read_text(encoding="utf-8"))


def check_config(name: str, value, schema: dict):
    """value checked against schema, a part of config.schema.json, with numbers as floats.

    Reads the keywords in _CONFIG_KEYWORDS, a "type" (one name) by the rules
    of _TYPES, and a oneOf as a choice of branch by the branch's "kind" const.
    A refusal raises ConfigurationError naming the key by its path from the
    root (name is "" there): section.key, with list items as key[i].
    """
    if "oneOf" in schema:
        kind = value.get("kind") if isinstance(value, dict) else None
        kinds = [branch["properties"]["kind"]["const"] for branch in schema["oneOf"]]
        if kind not in kinds:
            raise ConfigurationError(f"{name} kind must be one of {', '.join(kinds)}, got {kind!r}")
        schema = schema["oneOf"][kinds.index(kind)]
    if "type" in schema and not _TYPES[schema["type"]](value):
        raise ConfigurationError(f"{name} must be {schema['type']}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        values = ", ".join(map(json.dumps, schema["enum"]))
        raise ConfigurationError(f"{name} must be one of {values}, got {value!r}")
    if "const" in schema and value != schema["const"]:
        raise ConfigurationError(f"{name} must be {json.dumps(schema['const'])}, got {value!r}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        unknown = sorted(set(value) - set(props)) if schema.get("additionalProperties") is False else []
        if unknown:
            raise ConfigurationError(f"unknown key(s) in {name or 'config'}: {', '.join(unknown)}")
        for key in schema.get("required", []):
            if key not in value:
                raise ConfigurationError(f"{name} config missing key: {key}")
        low, high = schema.get("minProperties", 0), schema.get("maxProperties", math.inf)
        if not low <= len(value) <= high:
            count = "exactly one" if low == high == 1 else f"{low} to {high}"
            raise ConfigurationError(f"{name} section needs {count} of {', '.join(props)}")
        prefix = f"{name}." if name else ""
        return {k: check_config(prefix + k, v, props.get(k, {})) for k, v in value.items()}
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise ConfigurationError(f"{name} needs at least {schema['minItems']} items, got {value!r}")
        return [check_config(f"{name}[{i}]", v, schema.get("items", {})) for i, v in enumerate(value)]
    for keyword, (holds, sign) in _BOUNDS.items():
        if keyword in schema and not holds(value, schema[keyword]):
            raise ConfigurationError(f"{name} must be {sign} {schema[keyword]}, got {value!r}")
    return float(value) if schema.get("type") == "number" else value


class ConfigSection:
    """Reads and writes a frozen config dataclass as one section of the JSON config.

    The section's keys, types and limits are config.schema.json's (see
    check_config); the dataclass gives the defaults of absent keys and turns
    enum strings into its Enum fields. A subclass names its section in
    `section`.
    """

    section = ""

    @classmethod
    def from_json_dict(cls, obj: dict):
        values = check_config(cls.section, obj, config_schema()["properties"][cls.section])
        kinds = typing.get_type_hints(cls)
        return cls(**{k: kinds[k](v) if isinstance(kinds[k], enum.EnumMeta) else v for k, v in values.items()})

    def to_json_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {k: v.value if isinstance(v, enum.Enum) else v for k, v in values.items()}


@dataclass(frozen=True)
class SamplingConfig(ConfigSection):
    """Sampling and optimization parameters; governs everything stochastic.

    Attributes:
        n_total: pool size N.
        n_train: training-set size (or Bernoulli mean size) n_train.
        batch_size: expected mini-batch size B.
        n_iters: number of SGD iterations.
        learning_rate: step size, must be positive.
        scheme: training-set sampling scheme.
        seed: base seed for every stream derived from this config.
    """

    section = "sampling"

    n_total: int
    n_train: int
    batch_size: int
    n_iters: int
    learning_rate: float
    scheme: SamplingScheme = SamplingScheme.WITHOUT_REPLACEMENT
    seed: int = 0

    def __post_init__(self) -> None:
        if not (1 <= self.batch_size <= self.n_train <= self.n_total):
            raise ConfigurationError(
                "need 1 <= batch_size <= n_train <= n_total, got "
                f"B={self.batch_size}, n_train={self.n_train}, n_total={self.n_total}"
            )
        if self.n_iters < 1:
            raise ConfigurationError(f"n_iters must be >= 1, got {self.n_iters}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigurationError(f"seed must fit in u64, got {self.seed}")


@dataclass(frozen=True)
class IndicatorMoments:
    """Closed-form indicator variances and the asymptotic variance ratio kappa.

    All quantities refer to the product indicator Z_n = T_n M_in of a fixed
    other example n != j, except var_self_given_in which is V[M_ij | T_j = 1]
    for the conditioned example itself.
    """

    var_unconditional: float
    var_given_out: float
    var_given_in: float
    var_self_given_in: float
    kappa: float


@lru_cache(maxsize=32)
def train_indicator(cfg: SamplingConfig) -> np.ndarray:
    """Training membership t, keyed by cfg.seed alone (fixed across iterations).

    Drawn once per config and shared, so the array is read-only.
    """
    rng = stream(cfg.seed, _TRAIN_TAG)
    t = np.zeros(cfg.n_total, dtype=np.uint8)
    if cfg.scheme is SamplingScheme.WITHOUT_REPLACEMENT:
        chosen = rng.choice(cfg.n_total, size=cfg.n_train, replace=False)
        t[chosen] = 1
    else:
        t[rng.random(cfg.n_total) < cfg.n_train / cfg.n_total] = 1
    t.setflags(write=False)
    return t


def batch_indices(cfg: SamplingConfig) -> Iterator[np.ndarray]:
    """Each iteration's realized batch, ascending, for iterations 0 .. n_iters - 1.

    The one route to the batches. Batch i is the training members whose
    draw from the stream keyed by (seed, i) falls below B / n_train.
    """
    members = np.flatnonzero(train_indicator(cfg))
    rate = cfg.batch_size / cfg.n_train
    for i in range(cfg.n_iters):
        u = stream(cfg.seed, _STEP_TAG, i).random(cfg.n_total)
        yield members[u[members] < rate]


def indicator_moments(cfg: SamplingConfig) -> IndicatorMoments:
    """Closed-form variances of the product indicators, per scheme.

    Under without_replacement, for n != j:

        V[Z_n]            = (B/N)(1 - B/N)
        V[Z_n | T_j = 0]  = p0 (1 - p0),  p0 = B/(N-1)
        V[Z_n | T_j = 1]  = p1 (1 - p1),  p1 = (B/(N-1)) * ((n_train-1)/n_train)
        V[M_ij | T_j = 1] = (B/n_train)(1 - B/n_train)

    each a Bernoulli variance at the corresponding conditional inclusion
    probability. Under independent_bernoulli, conditioning on T_j changes
    nothing for n != j, so both conditional variances equal the unconditional
    one. The conditional-on-T_j values are meaningful only when both T_j
    outcomes have positive probability, i.e. n_train < n_total.
    """
    n = cfg.n_total
    nt = cfg.n_train
    b = cfg.batch_size
    p = b / n
    var_unconditional = p * (1.0 - p)
    var_self = (b / nt) * (1.0 - b / nt)
    if cfg.scheme is SamplingScheme.WITHOUT_REPLACEMENT:
        if n > 1:
            # T_j = 0 is a null event when n_train = n_total; report the
            # unconditional law instead of evaluating an undefined formula.
            p0 = b / (n - 1) if nt < n else p
            p1 = (b / (n - 1)) * ((nt - 1) / nt)
        else:
            p0 = p1 = 0.0
        var_given_out = p0 * (1.0 - p0)
        var_given_in = p1 * (1.0 - p1)
    else:
        var_given_out = var_unconditional
        var_given_in = var_unconditional
    kappa = (n / nt) * (1.0 - b / nt) / (1.0 - b / n) if b < n else 0.0
    return IndicatorMoments(
        var_unconditional=var_unconditional,
        var_given_out=var_given_out,
        var_given_in=var_given_in,
        var_self_given_in=var_self,
        kappa=kappa,
    )


@dataclass(frozen=True)
class ExactMomentTable:
    """Exhaustive-enumeration moments of Z_n = T_n M_in, conditioned on example j.

    Arrays are indexed by example. The conditional arrays hold, at position j
    itself, the self terms: var_given_in[j] = V[M_ij | T_j = 1] and
    var_given_out[j] = 0 (an excluded example is never batched).
    cov_unconditional is the full N x N covariance matrix of Z with the
    variances on its diagonal.
    """

    j: int
    var_unconditional: np.ndarray
    var_given_out: np.ndarray
    var_given_in: np.ndarray
    cov_unconditional: np.ndarray

    @property
    def var_self_given_in(self) -> float:
        return float(self.var_given_in[self.j])


@lru_cache(maxsize=4)
def _digit_table(n: int) -> np.ndarray:
    """All 3^n joint states as base-3 digit rows: 0 out, 1 in-train, 2 batched."""
    codes = np.arange(3**n, dtype=np.int64)
    digits = np.empty((3**n, n), dtype=np.int8)
    for pos in range(n):
        digits[:, pos] = codes % 3
        codes //= 3
    return digits


def count_law(cfg: SamplingConfig) -> list[list[Fraction]]:
    """The exact law of one joint (t, m) state, by its two counts.

    law[n_in][k], for 0 <= k <= n_in <= N, is the probability of any one joint
    state in which n_in examples are in the training set and k of them are
    batched, pb = B / n_train:

        without_replacement:    [n_in = n_train] / C(N, n_train) pb^k (1 - pb)^(n_in - k)
        independent_bernoulli:  pt^n_in (1 - pt)^(N - n_in) pb^k (1 - pb)^(n_in - k),
                                pt = n_train / N
    """
    n, nt = cfg.n_total, cfg.n_train
    pb = Fraction(cfg.batch_size, nt)
    if cfg.scheme is SamplingScheme.WITHOUT_REPLACEMENT:
        train = [Fraction(int(n_in == nt), math.comb(n, nt)) for n_in in range(n + 1)]
    else:
        pt = Fraction(nt, n)
        train = [pt**n_in * (1 - pt) ** (n - n_in) for n_in in range(n + 1)]
    # Fraction(0) ** 0 == 1 covers the pb = 1 edge (batch always equals training set).
    return [
        [train[n_in] * pb**k * (1 - pb) ** (n_in - k) for k in range(n_in + 1)]
        for n_in in range(n + 1)
    ]


def state_laws(cfg: SamplingConfig, j: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """All 3^N joint indicator states and three laws over them.

    Returns (digits, (unconditional, given T_j = 0, given T_j = 1)): digits
    holds one state per row, each example's digit 0 out, 1 in-train, 2
    batched. A state's unconditional probability is its `count_law` entry,
    correctly rounded. P[T_j = 1] = n_train / n_total > 0 always; the T_j = 0 event is
    null only when n_train == n_total, where membership carries no
    information and that law falls back to the unconditional one.

    Raises:
        CapacityError: n_total above ENUMERATION_MAX_N.
        ConfigurationError: j out of range.
    """
    if cfg.n_total > ENUMERATION_MAX_N:
        raise CapacityError(
            f"exact enumeration needs n_total <= {ENUMERATION_MAX_N}, got {cfg.n_total}"
        )
    if not 0 <= j < cfg.n_total:
        raise ConfigurationError(f"conditioning index {j} out of range for N={cfg.n_total}")
    digits = _digit_table(cfg.n_total)
    table = np.zeros((cfg.n_total + 1, cfg.n_total + 1))
    for n_in, row in enumerate(count_law(cfg)):
        table[n_in, : n_in + 1] = [float(p) for p in row]
    probs = table[(digits >= 1).sum(axis=1), (digits == 2).sum(axis=1)]
    out = np.where(digits[:, j] == 0, probs, 0.0)
    inn = np.where(digits[:, j] >= 1, probs, 0.0)
    p_out, p_in = out.sum(), inn.sum()
    return digits, (probs, out / p_out if p_out > 0.0 else probs, inn / p_in)


def weighted_moments(
    digits: np.ndarray, weights: np.ndarray, vectors: np.ndarray | None = None, batch_size: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """First and raw second moments under weights of Z, or of Z G / B given vectors.

    Z is each state's 0/1 batched indicator; with vectors = G (one row per
    example) the moments are of the normalized batch gradient sum Z G / B.
    Returns (mean, second moment matrix E[x x^T]). Chunked so the float64
    expansion of the digit table never exceeds ~30 MB.
    """
    dim = digits.shape[1] if vectors is None else vectors.shape[1]
    mean = np.zeros(dim)
    second = np.zeros((dim, dim))
    chunk = 1 << 18
    for start in range(0, digits.shape[0], chunk):
        x = (digits[start : start + chunk] == 2).astype(np.float64)
        if vectors is not None:
            x = (x @ vectors) / batch_size
        w = weights[start : start + chunk]
        mean += w @ x
        second += x.T @ (x * w[:, None])
    return mean, second


def enumerate_exact_moments(cfg: SamplingConfig, j: int) -> ExactMomentTable:
    """Exact indicator moments by exhaustive enumeration; oracle for the formulas.

    Sums over all 3^N joint (t, m) assignments with their `count_law`
    probabilities (`state_laws`, `weighted_moments`; the oracle's update
    covariances come from the same two). Accumulation is float64 over
    probability-weighted 0/1 indicators with pairwise reduction, which keeps
    the result within ~1e-14 of exact; the closed-form agreement tests run at
    1e-12.

    Args:
        cfg: sampling configuration with n_total <= ENUMERATION_MAX_N.
        j: example whose membership is conditioned on.

    Raises:
        CapacityError: n_total too large to enumerate.
        ConfigurationError: j out of range, or conditioning degenerate
            (n_train = n_total leaves T_j = 0 with probability zero).
    """
    digits, (probs, out, inn) = state_laws(cfg, j)
    if cfg.n_train == cfg.n_total:
        raise ConfigurationError(
            "conditional moments need n_train < n_total; T_j = 0 is impossible otherwise"
        )
    mean, second = weighted_moments(digits, probs)
    cov = second - np.outer(mean, mean)
    cond = []
    for weights in (out, inn):
        cmean, csecond = weighted_moments(digits, weights)
        cond.append(csecond.diagonal() - cmean**2)
    return ExactMomentTable(
        j=j,
        var_unconditional=cov.diagonal().copy(),
        var_given_out=cond[0],
        var_given_in=cond[1],
        cov_unconditional=cov,
    )
