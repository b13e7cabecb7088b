"""Span tracing around the program's layer boundaries, from outside the program.

A `Tracer` replaces module attributes with timing wrappers and restores them
on `uninstall`. A wrapped function is found by identity: every module of the
`gnqaudit` package that holds the same function object under the same name
gets the wrapper, so both `module.f()` and `from .module import f` call
sites are timed, and a function renamed, removed or merged by a later change
is reported as absent instead of crashing the run. Dense factorizations are
wrapped in numpy.linalg and scipy.linalg and counted wherever they are
called from.

Spans live in flat in-memory lists (name, start, end, parent) for one
operation at a time; `summarize` turns them into per-layer self and
inclusive times and call counts.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

# Layer name -> (module, functions the per-layer metrics name, whether every
# other public function defined in the module is traced too, so that
# functions a later change adds land in their layer).
PROGRAM_LAYERS = {
    "cli": ("gnqaudit.cli", ("main",), False),
    "data": ("gnqaudit.data", (), True),
    "training": ("gnqaudit.training", ("train", "audit", "load_trajectory"), True),
    "models": ("gnqaudit.models", ("gradient_all",), True),
    "geometry": ("gnqaudit.geometry", (), True),
    "bounds": ("gnqaudit.bounds", (), True),
    "sampling": ("gnqaudit.sampling", ("indicator_moments",), False),
    "attack": ("gnqaudit.attack", ("loss_attack",), True),
    "defense": ("gnqaudit.defense", (), True),
    "reports": ("gnqaudit.reports", (), True),
}
FACTOR_LAYER = "factor"
FACTORIZATIONS = (
    ("numpy.linalg", ("eigh", "svd", "pinv")),
    ("scipy.linalg", ("eigh", "svd")),
)


def _public_functions(module) -> list[str]:
    return sorted(
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and obj.__module__ == module.__name__
    )


def _matrix_n3(args) -> int:
    """m * n * min(m, n) of the factorized matrix: n^3 for a square one."""
    shape = getattr(args[0], "shape", ()) if args else ()
    if len(shape) < 2:
        return 0
    m, n = int(shape[-2]), int(shape[-1])
    return m * n * min(m, n)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.n3: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.active = False

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, measure_n3: bool = False, post=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.layers.append(layer)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.n3.append(_matrix_n3(args) if measure_n3 else 0)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = clock()
                tracer._stack.pop()
            if post is not None:
                post(tracer, result)
            return result

        return wrapper

    def _replace_everywhere(self, fn, wrapper, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        program_modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "gnqaudit" or n.startswith("gnqaudit."))
        ]
        for layer, (module_name, named, all_public) in PROGRAM_LAYERS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(module_name)
                continue
            extra = _public_functions(module) if all_public else []
            for fname in sorted(set(named) | set(extra)):
                fn = getattr(module, fname, None)
                if not inspect.isfunction(fn):
                    self.absent.append(f"{layer}.{fname}")
                    continue
                post = _count_scores if (layer, fname) == ("training", "audit") else None
                wrapper = self._wrap(fn, f"{layer}.{fname}", layer, post=post)
                self._replace_everywhere(fn, wrapper, program_modules)
        for module_name, names in FACTORIZATIONS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(module_name)
                continue
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:
                    self.absent.append(f"{module_name}.{fname}")
                    continue
                wrapper = self._wrap(
                    fn, f"{FACTOR_LAYER}.{module_name}.{fname}", FACTOR_LAYER, measure_n3=True
                )
                self._replace_everywhere(fn, wrapper, [module, *program_modules])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        for seq in (self.names, self.layers, self.starts, self.ends, self.parents, self.n3):
            seq.clear()
        self.counters.clear()
        self._stack.clear()

    def summarize(self) -> dict:
        """Per-layer and per-span-name aggregates of the recorded spans.

        A layer's self time is its spans' durations minus the time their
        child spans cover. A span counts as a call of its layer (and of its
        name) when its parent belongs to another layer (name), so nested
        calls inside one layer are not double counted.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        agg = {
            "layer_self": defaultdict(float),
            "layer_incl": defaultdict(float),
            "layer_calls": defaultdict(int),
            "layer_n3": defaultdict(int),
            "name_self": defaultdict(float),
            "name_incl": defaultdict(float),
            "name_calls": defaultdict(int),
            "counters": dict(self.counters),
            "spans": n,
        }
        for i in range(n):
            name, layer, p = self.names[i], self.layers[i], self.parents[i]
            own = dur[i] - child[i]
            agg["layer_self"][layer] += own
            agg["name_self"][name] += own
            if p < 0 or self.layers[p] != layer:
                agg["layer_incl"][layer] += dur[i]
                agg["layer_calls"][layer] += 1
                agg["layer_n3"][layer] += self.n3[i]
            if p < 0 or self.names[p] != name:
                agg["name_incl"][name] += dur[i]
                agg["name_calls"][name] += 1
        return agg

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as gzipped CSV, times relative to the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i},{name},{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f},"
                    f"{self.parents[i]}\n"
                )


def _count_scores(tracer: Tracer, record) -> None:
    """Scores an audit computed: audited iterations times examples."""
    iters = getattr(record, "audited_iterations", None)
    cumulative = getattr(record, "cumulative_gnq", None)
    if iters is not None and cumulative is not None:
        tracer.counters["scores"] += len(iters) * len(cumulative)
