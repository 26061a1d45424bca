"""Per-layer tracing of jetflow, installed from outside the program.

`Tracer.install()` replaces, at run time, every public function of each
layer module with a wrapper that times it, and rebinds the wrapper under
every name that held the original in any loaded `jetflow` module (so a
name imported with `from .jets import dx_total` is traced at its call
sites too, and so is `jetflow.dx_total`).  A few named methods are wrapped
on their classes, together with their aliases such as `__radd__ =
__add__`.  `uninstall()` puts the originals back.

Calls into every layer except `ring` are recorded as spans (name, span id,
parent span id, op id, start, end, time covered by children) and kept in
memory until the run ends.  The `ring` layer is called hundreds of
thousands of times per op, so its calls are only counted and their self
time summed.  A span's self time is its duration minus the time its child
spans (and the tracer's own size inspection) cover.

Sizes are read from the DiffPoly values that cross the `jets` and
`operators` layer boundaries, that is, values returned to a caller in
another layer.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
from time import perf_counter

# Layer name -> module, in dependency order.
LAYERS = {
    "ring": "jetflow.ring",
    "jets": "jetflow.jets",
    "operators": "jetflow.operators",
    "hamiltonian": "jetflow.hamiltonian",
    "engine": "jetflow.engine",
    "dsl": "jetflow.dsl",
    "report": "jetflow.report",
    "printing": "jetflow.printing",
    "cli": "jetflow.cli",
    "numeric": "jetflow.numeric",
}

# Methods traced on classes: layer -> class -> {attribute: metric name}.
# Aliases of a listed attribute (same function object) share its wrapper.
METHODS = {
    "ring": {"EpsPoly": {
        "__init__": "new", "__add__": "add", "__sub__": "sub",
        "__rsub__": "rsub", "__neg__": "neg", "__mul__": "mul",
        "__truediv__": "div", "scale": "scale", "is_zero": "is_zero",
        "__eq__": "eq", "truncate": "truncate",
        "lowest_coefficient": "lowest_coefficient"}},
    "jets": {"DiffPoly": {"__mul__": "mul"}},
    "hamiltonian": {"MultiVector": {"dx": "dx"}},
}

# Layers whose calls are counted in aggregate instead of stored as spans.
AGGREGATED = {"ring"}

# Layers whose returned values are inspected for sizes at their boundary.
SIZED = {"jets", "operators"}


class Tracer:
    def __init__(self):
        self.names = []          # function index -> metric name prefix
        self.layers = []         # function index -> layer
        self.agg_calls = []      # aggregated layers: index -> calls
        self.agg_self = []       # aggregated layers: index -> summed self time
        self.spans = []          # (index, span id, parent id, op id, t0, t1, covered)
        self.op_id = 0
        self.max_jet_order = -1
        self.peak_terms = 0
        self.max_denominator_bits = 0
        self.rk4_steps = 0
        self._undo = []
        # A frame is [covered time, span id, layer]; the root frame has id 0.
        self._stack = [[0.0, 0, None]]
        self._next_span = 1

    # -- installation ------------------------------------------------------

    def install(self):
        from jetflow import DiffPoly, Functional, PseudoDiffOp

        self._sized_types = (DiffPoly, Functional, PseudoDiffOp)
        modules = [importlib.import_module(m) for m in LAYERS.values()]
        namespaces = [sys.modules[name] for name in sorted(sys.modules)
                      if name == "jetflow" or name.startswith("jetflow.")]
        for (layer, modname), module in zip(LAYERS.items(), modules):
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != modname):
                    continue
                self._replace(fn, self._wrap(fn, f"{layer}.{attr}", layer),
                              namespaces)
            for clsname, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, clsname)
                for attr, label in methods.items():
                    fn = cls.__dict__[attr]
                    self._replace(fn, self._wrap(fn, f"{layer}.{clsname}.{label}",
                                                 layer), [cls])

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _replace(self, fn, wrapper, owners):
        """Bind `wrapper` under every name that holds `fn` in `owners`."""
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is fn:
                    self._undo.append((owner, name, fn))
                    setattr(owner, name, wrapper)

    def _wrap(self, fn, name, layer):
        index = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.agg_calls.append(0)
        self.agg_self.append(0.0)
        stack = self._stack
        if layer in AGGREGATED:
            calls, selfs = self.agg_calls, self.agg_self

            def counted(*args, **kwargs):
                frame = [0.0, 0, layer]
                parent = stack[-1]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - t0
                    stack.pop()
                    parent[0] += duration
                    calls[index] += 1
                    selfs[index] += duration - frame[0]

            return counted

        spans = self.spans
        sized = layer in SIZED
        steps = name == "numeric.integrate_pde"

        def spanned(*args, **kwargs):
            span_id = self._next_span
            self._next_span = span_id + 1
            parent = stack[-1]
            frame = [0.0, span_id, layer]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((index, span_id, parent[1], self.op_id,
                              t0, t1, frame[0]))
                parent[0] += t1 - t0
            if sized and parent[2] != layer:
                self._measure(result)
                parent[0] += perf_counter() - t1
            if steps:
                grid = args[1] if len(args) > 1 else kwargs["grid"]
                self.rk4_steps += int(round(grid.t_end / grid.dt))
            return result

        return spanned

    # -- sizes -------------------------------------------------------------

    def _measure(self, value):
        for poly in _polys(value, *self._sized_types):
            terms = poly.terms
            if len(terms) > self.peak_terms:
                self.peak_terms = len(terms)
            order = poly.max_jet_order()
            if order > self.max_jet_order:
                self.max_jet_order = order
            bits = self.max_denominator_bits
            for coeff in terms.values():
                for c in coeff.coeffs:
                    b = c.denominator.bit_length()
                    if b > bits:
                        bits = b
            self.max_denominator_bits = bits

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-function calls and self time, plus the size metrics."""
        calls = list(self.agg_calls)
        self_s = list(self.agg_self)
        incl_s = [0.0] * len(self.names)
        for index, _, _, _, t0, t1, covered in self.spans:
            calls[index] += 1
            self_s[index] += t1 - t0 - covered
            incl_s[index] += t1 - t0
        out = {}
        for index, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[index]
            out[f"{name}.self_s"] = self_s[index]
            out[f"{name}.incl_s"] = incl_s[index]
        out["ring.self_s"] = sum(s for s, layer in zip(self_s, self.layers)
                                 if layer == "ring")
        out["jets.max_jet_order"] = self.max_jet_order
        out["jets.peak_terms"] = self.peak_terms
        out["ring.max_denominator_bits"] = self.max_denominator_bits
        out["numeric.rk4_steps"] = self.rk4_steps
        out["numeric.rhs_evals"] = 4 * self.rk4_steps
        return out

    def write_spans(self, path):
        """Write the stored spans as gzipped JSON: names plus span rows."""
        payload = {"fields": ["fn", "span", "parent", "op", "start_s",
                              "end_s", "covered_s"],
                   "names": self.names, "spans": self.spans}
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump(payload, handle)


def _polys(value, DiffPoly, Functional, PseudoDiffOp):
    if isinstance(value, DiffPoly):
        return (value,)
    if isinstance(value, Functional):
        return (value.density,)
    if isinstance(value, PseudoDiffOp):
        return list(value.local_terms.values()) + [
            p for pair in value.nonlocal_terms for p in pair]
    if isinstance(value, (tuple, list)):
        return [v for v in value if isinstance(v, DiffPoly)]
    return ()
