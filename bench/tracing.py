"""Span tracing of the posgame layers, installed from the benchmark's process.

Every public function and public method of each package module is replaced
by a wrapper that records a span (name, start, end, parent).  The wrapper is
bound wherever the package holds the original: in the defining module, in
every module that imported it by name (``cli`` and ``verification`` import
``solve``, ``run_verification`` and ``nash_fixed_point``), and in
module-level dicts (``cli`` dispatches commands through one).  Properties
and dataclass-generated methods are not wrapped.  No file of the package
changes.

``oracle.banded_solves`` counts the calls ``oracle`` makes to scipy's
``solveh_banded``; it is a count, not a span, so the solve time stays in the
oracle's self time.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("core", "equilibrium", "costs", "centralization", "oracle", "verification", "cli")


class Tracer:
    """Spans of one pass, kept in memory: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name, fn):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def take(self) -> tuple[list[list], Counter]:
        """Return this pass's spans and counts and start a new pass."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def install(tracer: Tracer):
    """Route every public function and method of the package through ``tracer``.

    Returns a function that puts every original back.
    """
    import posgame

    undo = []

    def put(owner, key, value):
        if isinstance(owner, dict):
            old = owner[key]
            owner[key] = value
            undo.append(lambda: owner.__setitem__(key, old))
        else:
            old = vars(owner)[key]
            setattr(owner, key, value)
            undo.append(lambda: setattr(owner, key, old))

    modules = {layer: importlib.import_module(f"posgame.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj)
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(member):
                        put(obj, attr, tracer.wrap(f"{layer}.{name}.{attr}", member))
                    elif isinstance(member, (classmethod, staticmethod)):
                        fn = tracer.wrap(f"{layer}.{name}.{attr}", member.__func__)
                        put(obj, attr, type(member)(fn))
    for module in (posgame, *modules.values()):
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                put(vars(module), name, wrapped[obj])
            elif isinstance(obj, dict) and not name.startswith("__"):
                for key, value in obj.items():
                    if inspect.isfunction(value) and value in wrapped:
                        put(obj, key, wrapped[value])
    oracle = vars(modules["oracle"])
    put(oracle, "solveh_banded", tracer.counter("oracle.banded_solves", oracle["solveh_banded"]))

    def restore():
        while undo:
            undo.pop()()

    return restore


def summarize(spans: list[list], counts: Counter) -> dict[str, float]:
    """Calls and self time per layer and per span name, plus the counters.

    A span's self time is its duration minus the durations of its direct
    children, which cover disjoint parts of it.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _), covered in zip(spans, child_time):
        self_s = (end - start) - covered
        layer = name.split(".", 1)[0]
        for key in (layer, name):
            out[f"{key}.calls"] += 1
            out[f"{key}.self_s"] += self_s
    out.update(counts)
    return dict(out)


def write_spans(path, spans: list[list]) -> None:
    """Write spans as CSV: index, name, start and end in seconds, parent index."""
    lines = ["index,name,start_s,end_s,parent"]
    lines += [f"{k},{name},{start:.9f},{end:.9f},{parent}"
              for k, (name, start, end, parent) in enumerate(spans)]
    path.write_text("\n".join(lines) + "\n")
