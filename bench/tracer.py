"""Per-layer tracing of score-lab from outside the package.

The layers are the package modules.  `Tracer` wraps every public
function they define and rebinds every module-level name in the package
that refers to one, so calls made through ``from .x import y`` bindings
are traced as well as calls through the defining module.

Two kinds of wrapper:

* a span (function, start, end, parent span, op id, items returned) for
  the functions that make up a layer's work;
* a call counter only, for the small leaf helpers in COUNTED_ONLY, which
  run up to a million times a pass.  Their time stays in the self time
  of the span that called them (``boundary_row`` in ``place_beads``,
  ``md_is_core`` in ``md_is_simultaneous_core``, ``satisfies`` in
  ``enumerate_paths``, ...), which keeps the span list small.

Every call is counted under the function of the innermost open span, so
"calls of f made under g" is exact.  Spans stay in memory until `write`.
A span's self time is its duration minus the durations of its direct
child spans; the wrapper bookkeeping of a child lands in its parent's
self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

PACKAGE = "score_lab"
LAYERS = ("cli", "oracle", "motzkin", "bijection", "abacus", "mdcore", "formulas")

COUNTED_ONLY = frozenset({
    "abacus.abacus_spec", "abacus.boundary_row", "abacus.label",
    "bijection.phi_context",
    "formulas.binom", "formulas.multinom",
    "mdcore.corners", "mdcore.md_is_core", "mdcore.validate_md", "mdcore.validate_partition",
    "motzkin.constraints_for", "motzkin.flat_count", "motzkin.last_step",
    "motzkin.path_type", "motzkin.satisfies",
    "oracle.default_md_bound", "oracle.pair_core_size_bound",
})

_COLUMNS = (("function", "i"), ("parent", "i"), ("op", "i"),
            ("start", "d"), ("end", "d"), ("items", "q"))


def public_functions() -> dict:
    """``layer.name`` -> function, for each public function a layer defines."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, value in vars(module).items():
            target = getattr(value, "__wrapped__", value)  # see through lru_cache
            if (not name.startswith("_") and inspect.isfunction(target)
                    and target.__module__ == module.__name__):
                found[f"{layer}.{name}"] = value
    return found


class Tracer:
    """Spans and call counts for one traced pass at a time."""

    def __init__(self, functions: dict):
        self.names = list(functions)
        self._originals = list(functions.values())  # keeps the ids in _wrappers unique
        self._width = len(self.names) + 1  # the last parent slot means "no span"
        self._columns = {name: array(code) for name, code in _COLUMNS}
        self._counts = [0] * (len(self.names) * self._width)
        self._stack = [-1]
        self._fstack = [len(self.names)]
        self.op_id = -1
        self._wrappers = {
            id(fn): self._counter(fn, i) if name in COUNTED_ONLY else self._span(fn, i)
            for i, (name, fn) in enumerate(functions.items())
        }

    def _counter(self, fn, f):
        counts, fstack, width = self._counts, self._fstack, self._width

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[f * width + fstack[-1]] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, fn, f):
        counts, stack, fstack, width = self._counts, self._stack, self._fstack, self._width
        c = self._columns
        fids, parents, ops, starts, ends, items = (
            c["function"], c["parent"], c["op"], c["start"], c["end"], c["items"])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[f * width + fstack[-1]] += 1
            idx = len(fids)
            fids.append(f)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            items.append(-1)
            stack.append(idx)
            fstack.append(f)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                fstack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if type(result) is list:
                items[idx] = len(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every package-level name of a traced function while active."""
        rebound = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        try:
            for module in modules:
                for name, value in list(vars(module).items()):
                    wrapper = self._wrappers.get(id(value))
                    if wrapper is not None:
                        setattr(module, name, wrapper)
                        rebound.append((module, name, value))
            yield self
        finally:
            for module, name, value in rebound:
                setattr(module, name, value)

    def reset(self) -> None:
        for column in self._columns.values():
            del column[:]
        self._counts[:] = [0] * len(self._counts)
        self.op_id = -1

    def calls(self, name: str, under: str | None = None) -> int:
        """Calls of ``name``, or only those made inside a span of ``under``."""
        row = self.names.index(name) * self._width
        if under is not None:
            return self._counts[row + self.names.index(under)]
        return sum(self._counts[row:row + self._width])

    def stats(self) -> dict:
        """Per function: calls, and for spans self_s, incl_s and items."""
        c = self._columns
        durations = [end - start for start, end in zip(c["start"], c["end"])]
        child = [0.0] * len(durations)
        for i, parent in enumerate(c["parent"]):
            if parent >= 0:
                child[parent] += durations[i]
        self_s = [0.0] * len(self.names)
        incl_s = [0.0] * len(self.names)
        items = [0] * len(self.names)
        for f, duration, inner, n in zip(c["function"], durations, child, c["items"]):
            self_s[f] += duration - inner
            incl_s[f] += duration
            items[f] += max(n, 0)
        out = {}
        for f, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls(name)
            if name not in COUNTED_ONLY:
                out[f"{name}.self_s"] = self_s[f]
                out[f"{name}.incl_s"] = incl_s[f]
                out[f"{name}.items"] = items[f]
        return out

    def write(self, path, meta: dict) -> None:
        """Spans to ``path``: one JSON header line, then each column raw."""
        header = {
            **meta,
            "functions": self.names,
            "spans": len(self._columns["function"]),
            "columns": [list(col) for col in _COLUMNS],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in self._columns.values():
                column.tofile(handle)
