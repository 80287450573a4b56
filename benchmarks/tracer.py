"""In-memory span tracer for the dqc1 modules, installed from outside them.

The modules bind each other's functions with ``from .x import y``, so a
wrapper placed only on the defining module would miss most calls.  While a
:class:`Tracer` is active, every attribute of the ``dqc1`` package and of its
six modules that refers to a traced function is replaced by the wrapper, and
every replacement is undone on exit.  Traced functions are the public
functions each module defines, the point evaluator ``_eval_point`` (as
``experiments.point``) and ``Dqc1Instance`` construction.

A span records its name, the span that called it, and its start and end.
A name's self time is the time its spans cover minus the time their direct
child spans cover.  Spans from pool workers are not recorded, so traced
sweeps run serially.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("linalg", "circuit", "measurement", "entpower", "experiments", "cli")

# Private functions that get a span of their own, under the name given.
PRIVATE_SPANS = {("experiments", "_eval_point"): "experiments.point"}

# Work counters recorded at a span boundary: span name -> (counter, function
# of the call's arguments and result).
COUNTERS = {
    "linalg.kron": ("bytes", lambda args, kwargs, out: out.nbytes),
    "entpower.ensemble_average": (
        "members",
        lambda args, kwargs, out: (args[1] if len(args) > 1 else kwargs["ens"]).size,
    ),
}


class Tracer:
    """Context manager that traces dqc1 calls made while it is active."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counters[f"{name}.{counter[0]}"] += counter[1](args, kwargs, out)
            return out

        return traced

    def __enter__(self) -> "Tracer":
        package = importlib.import_module("dqc1")
        modules = {m: importlib.import_module(f"dqc1.{m}") for m in MODULES}
        wrappers = {}  # id(original) -> wrapper
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = PRIVATE_SPANS.get((short, attr))
                if name is None and not attr.startswith("_"):
                    name = f"{short}.{attr}"
                if name is not None:
                    wrappers[id(obj)] = self._wrap(name, obj)
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers:
                    self._undo.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[id(obj)])
        cls = modules["circuit"].Dqc1Instance
        self._undo.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap("circuit.Dqc1Instance", cls.__init__)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for name, parent, start, end in self.spans:
            took = end - start
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += took
            entry["self_s"] += took
            if parent >= 0:
                out[self.spans[parent][0]]["self_s"] -= took
        return dict(out)
