"""Span tracer over pmtop's public functions, installed from outside the package.

pmtop's modules import each other's functions by name (``from .balls import
sample_members`` in topology, ``from .pmspace import check_axioms`` in the
falsifier and the CLI), so one function has a binding in its defining module
and one more in every module that imports it.  Wrapping only the defining
module would miss every call made through those other bindings.  ``Tracer``
therefore finds each binding by identity, in every layer module and in the
package namespace, replaces it with one shared wrapper, and puts every
original back on ``restore``.

Each wrapped call records a span (id, parent span, op id, name, start, end).
Self time is the span's duration minus the time its child spans cover.  Calls
of ``PMSpace.kernel`` are counted, with the points they evaluate, but get no
span: the kernel is a method, not a module function, and is called too often
for a span per call to stay cheap.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

LAYERS = ("distfn", "pmspace", "balls", "topology", "convergence", "falsifier", "cli")

Observer = Callable[["Tracer", str, tuple, dict, Any], None]


@dataclass
class SpanStat:
    calls: int = 0
    self_s: float = 0.0
    kernel_calls: int = 0          # inclusive: kernel calls made inside the span
    raised: Counter = field(default_factory=Counter)
    peak_alloc_bytes: int = 0      # only for names in Tracer.alloc_names


class Tracer:
    """Wraps every binding of every public function of the pmtop layers.

    ``observe`` is called after each successful wrapped call with the
    tracer, the span name, the arguments and the result; the caller uses it
    to derive counts (violation records, outcomes, report bytes) where the
    work happens.  ``alloc_names`` lists span names whose peak traced
    allocation is measured with tracemalloc, which slows those calls, so a
    pass that reports times should leave it empty.
    """

    def __init__(self, package: Any, observe: Observer | None = None,
                 alloc_names: frozenset[str] = frozenset()):
        self.package = package
        self.observe = observe
        self.alloc_names = alloc_names
        self.stats: dict[str, SpanStat] = {}
        self.counts: Counter = Counter()
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.op_id = 0
        self._stack: list[list] = []   # [name, child_s, kernel_at_entry, span_id]
        self._next_id = 0
        self._saved: list[tuple[Any, str, Any]] = []
        self._kernel_orig: Any = None
        self._t0 = 0.0

    # -- installing and restoring ------------------------------------------

    def targets(self) -> dict[int, tuple[Callable, str]]:
        """Public functions defined in each layer, keyed by object identity."""
        found: dict[int, tuple[Callable, str]] = {}
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    found[id(obj)] = (obj, f"{layer}.{name}")
        return found

    def binding_modules(self) -> list[Any]:
        return [self.package] + [getattr(self.package, layer) for layer in LAYERS]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = self.targets()
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        for mod in self.binding_modules():
            for key, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    setattr(mod, key, wrappers[id(obj)])
                    self._saved.append((mod, key, obj))
        space_cls = self.package.pmspace.PMSpace
        self._kernel_orig = space_cls.kernel
        space_cls.kernel = self._counting_kernel(self._kernel_orig)
        self._t0 = time.perf_counter()

    def restore(self) -> None:
        for mod, key, obj in reversed(self._saved):
            setattr(mod, key, obj)
        self._saved.clear()
        if self._kernel_orig is not None:
            self.package.pmspace.PMSpace.kernel = self._kernel_orig
            self._kernel_orig = None

    def leftover_wrappers(self) -> list[str]:
        """Bindings that still hold a tracer wrapper (empty after restore)."""
        left = [f"{mod.__name__}.{key}" for mod in self.binding_modules()
                for key, obj in vars(mod).items()
                if getattr(obj, "_bench_traced", False)]
        if getattr(self.package.pmspace.PMSpace.kernel, "_bench_traced", False):
            left.append("PMSpace.kernel")
        return left

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    # -- recording -----------------------------------------------------------

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def _counting_kernel(self, kernel: Callable) -> Callable:
        tracer = self

        @functools.wraps(kernel)
        def counted(space, T, S):
            out = kernel(space, T, S)
            tracer.counts["kernel.calls"] += 1
            tracer.counts["kernel.points"] += int(np.size(out))
            return out

        counted._bench_traced = True
        return counted

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(fn, name, args, kwargs)

        traced._bench_traced = True
        return traced

    def _call(self, fn: Callable, name: str, args: tuple, kwargs: dict) -> Any:
        parent = self._stack[-1][3] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [name, 0.0, self.counts["kernel.calls"], span_id]
        self._stack.append(frame)
        started_alloc = False
        if name in self.alloc_names:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                started_alloc = True
            tracemalloc.reset_peak()
            alloc_base = tracemalloc.get_traced_memory()[0]
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.stats.setdefault(name, SpanStat()).raised[type(exc).__name__] += 1
            raise
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            if self._stack:
                self._stack[-1][1] += dur
            stat = self.stats.setdefault(name, SpanStat())
            stat.calls += 1
            stat.self_s += dur - frame[1]
            stat.kernel_calls += self.counts["kernel.calls"] - frame[2]
            if name in self.alloc_names:
                peak = tracemalloc.get_traced_memory()[1] - alloc_base
                stat.peak_alloc_bytes = max(stat.peak_alloc_bytes, peak)
                if started_alloc:
                    tracemalloc.stop()
            self.spans.append((span_id, parent, self.op_id, name,
                               t0 - self._t0, t1 - self._t0))
        if self.observe is not None:
            self.observe(self, name, args, kwargs, result)
        return result

    # -- reporting -------------------------------------------------------------

    def stat(self, name: str) -> SpanStat:
        return self.stats.get(name, SpanStat())

    def exact_counts(self) -> dict[str, int]:
        """Every count the trace holds; two runs on one seed must agree."""
        out = {f"count.{k}": int(v) for k, v in self.counts.items()}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.kernel_calls"] = st.kernel_calls
            for exc, n in st.raised.items():
                out[f"{name}.raised.{exc}"] = n
        return dict(sorted(out.items()))

    def rollup(self) -> dict[str, dict[str, float]]:
        """Self time and calls per layer, summed over its functions."""
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for name, st in self.stats.items():
            entry = layers[name.split(".", 1)[0]]
            entry["self_s"] += st.self_s
            entry["calls"] += st.calls
        return layers

    def write_spans(self, path: Any) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start_s": start,
                                     "end_s": end}, separators=(",", ":")))
                fh.write("\n")
