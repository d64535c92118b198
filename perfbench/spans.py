"""Span tracing of the package from outside, by wrapping its functions.

``install`` replaces every public function of each layer module with a
wrapper, at every place a ``colorlie`` module binds it (a module that did
``from .linalg import kernel_basis`` holds its own reference), and wraps
the public methods of ``Matrix`` and ``ColorAlgebra`` on their classes.
A span records its name, parent, start and end; spans stay in memory in
flat arrays and are written out once, by ``Tracer.write``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("grading", "linalg", "graded", "algebra", "structure", "fileformat", "cli")

# ``linalg.frac`` coerces one matrix entry per call and is called only from
# inside its own layer; a span per entry would multiply the trace size
# while moving no time between layers, so it is left unwrapped.
UNWRAPPED = {"linalg.frac"}

# Spans kept in memory at most; aggregates count every call regardless.
MAX_SPANS = 2_000_000

# Class methods wrapped, by layer; dunder operators get readable names.
CLASS_METHODS = {
    "linalg": ("Matrix", {
        "__init__": "init", "__mul__": "mul", "__rmul__": "rmul", "__add__": "add",
        "__sub__": "sub", "__neg__": "neg", "scale": "scale", "apply": "apply",
        "transpose": "transpose", "trace": "trace", "is_zero": "is_zero",
        "power": "power", "entry": "entry", "zero": "zero", "identity": "identity",
        "from_columns": "from_columns", "stack": "stack",
    }),
    "algebra": ("ColorAlgebra", {
        "__init__": "init", "degrees": "degrees",
        "basis_indices_of_degree": "basis_indices_of_degree",
        "basis_of_degree": "basis_of_degree", "coordinates": "coordinates",
        "contains": "contains", "from_coordinates": "from_coordinates",
        "profile_space": "profile_space",
    }),
}


class Tracer:
    """Span store and per-function aggregates.  ``clock`` gives span
    times; the benchmark passes one that leaves out its own pace
    sampler's ticks, so they count in no span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.nonzero_brackets = 0
        self._stack: list[list] = []

    def _id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        nid = self._id(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            if idx < MAX_SPANS:
                names.append(nid)
                parents.append(stack[-1][0] if stack else -1)
                starts.append(0.0)
                ends.append(0.0)
            else:
                idx = -1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if idx >= 0:
                    starts[idx] = t0
                    ends[idx] = t1
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def write(self, path: str):
        """Names as JSON on the first line, then the four span arrays."""
        with open(path, "wb") as fh:
            fh.write(json.dumps({"names": self.names, "spans": len(self.span_name),
                                 "dropped": sum(self.calls) - len(self.span_name)}).encode())
            fh.write(b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)

    def layer_metrics(self) -> dict:
        """Per-layer and per-function call counts and self times; a span's
        self time is its duration less the time its child spans cover."""
        out = {}
        for name, calls, self_s in zip(self.names, self.calls, self.self_s):
            layer = name.split(".", 1)[0]
            for key in (layer, name):
                out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + calls
                out[f"{key}.self_s"] = out.get(f"{key}.self_s", 0.0) + self_s
        return out


def _rebind(old, new):
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "colorlie" or mod_name.startswith("colorlie."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


def install(tracer: Tracer, package) -> None:
    """Wrap the layers of an imported ``colorlie`` package in place."""
    for layer in LAYERS:
        mod = getattr(package, layer)
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__ or f"{layer}.{attr}" in UNWRAPPED:
                continue
            wrapped = tracer.wrap(f"{layer}.{attr}", fn)
            if layer == "algebra" and attr == "color_bracket":
                wrapped = _count_nonzero(tracer, wrapped)
            _rebind(fn, wrapped)
    for layer, (cls_name, methods) in CLASS_METHODS.items():
        cls = getattr(getattr(package, layer), cls_name)
        for attr, short in methods.items():
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(tracer.wrap(f"{layer}.{cls_name}.{short}", raw.__func__))
            else:
                new = tracer.wrap(f"{layer}.{cls_name}.{short}", raw)
            setattr(cls, attr, new)


def _count_nonzero(tracer, bracket):
    @functools.wraps(bracket)
    def counted(*args, **kwargs):
        out = bracket(*args, **kwargs)
        if not out.is_zero():
            tracer.nonzero_brackets += 1
        return out
    return counted
