"""Outside-in tracing of the conefaces layers.

Each layer is one ``conefaces`` module.  While a ``Tracer`` is installed,
every public function a layer module defines is replaced, in every
``conefaces`` module that holds a reference to it, by a wrapper that
records a span ``(op, name, start, end, parent, note)`` in memory.  The
defining module is rebound too: modules import names with
``from .x import f``, and some functions (``face_report``,
``_product_vectors``) import their callees at call time.

Nothing under ``src/`` is changed.  Work that runs outside any wrapped
function, such as ``Matrix.from_rows`` or the ``rational`` scalar layer,
is counted in the self time of the nearest wrapped caller.

This module imports no ``conefaces`` code at import time, so that a
process can time its own ``import conefaces``.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = (
    "exact_linalg",
    "polynomials",
    "ideal_components",
    "independence",
    "constructions",
    "certificates",
    "gap_analysis",
    "sampling",
    "cli",
)

# O(1) index helpers that every Form constructor calls; a wrapper would
# cost more than the call and flood the span list.
NOT_WRAPPED = {
    "polynomials.space_dim",
    "polynomials.monomial_basis",
    "polynomials.monomial_index",
}

# Caller whose exact_linalg self time is reported on its own.
LINALG_CALLERS = {
    "independence.hilbert_function": "hilbert_function",
    "ideal_components.symbolic_square_component": "symbolic_square",
    "ideal_components.ordinary_square_component": "ordinary_square",
    "independence.condition2_holds": "condition2",
}

NUMERIC = "certificates.numeric_min_on_sphere"
HILBERT = "independence.hilbert_function"

# name, unit: the per-layer metrics, every one reported per traced op
# unless its unit says otherwise.
PER_LAYER = (
    ("exact_linalg.self_s", "s/op"),
    ("exact_linalg.calls", "count/op"),
    ("exact_linalg.cells", "cells/op"),
    ("exact_linalg.self_s.hilbert_function", "s/op"),
    ("exact_linalg.self_s.symbolic_square", "s/op"),
    ("exact_linalg.self_s.ordinary_square", "s/op"),
    ("exact_linalg.self_s.condition2", "s/op"),
    ("exact_linalg.bound_met_ratio", "ratio"),
    ("polynomials.self_s", "s/op"),
    ("polynomials.calls", "count/op"),
    ("ideal_components.self_s", "s/op"),
    ("ideal_components.cache_hit_ratio", "ratio"),
    ("independence.self_s", "s/op"),
    ("independence.hilbert_calls", "count/op"),
    ("independence.cache_hit_ratio", "ratio"),
    ("constructions.self_s", "s/op"),
    ("certificates.self_s", "s/op"),
    ("certificates.numeric_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("cli.import_s", "s"),
    ("cli.numpy_loaded_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def _cells(short, args, kwargs):
    """rows x cols handed to an exact_linalg entry point."""
    if short == "span":
        vectors = args[0] if args else kwargs["vectors"]
        ambient = args[1] if len(args) > 1 else kwargs["ambient_dim"]
        return len(vectors) * ambient
    if short == "contains":
        s = args[0] if args else kwargs["s"]
        return (s.dim + 1) * s.ambient_dim
    m = args[0] if args else kwargs["m"]
    return m.rows * m.cols


class Tracer:
    """Span recorder for one process; install() around the traced work."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.op = -1
        # layer -> [hits, misses] from lru_cache counters
        self.cache = {layer: [0, 0] for layer in LAYERS}
        self.import_s = []
        self.numpy_loaded = []
        self._stack = []
        self._pairs = None

    # -- wrapping -------------------------------------------------------
    @staticmethod
    def _collect():
        """(qualified name, function) for each function to wrap."""
        import importlib

        targets = []
        for layer in LAYERS:
            module = importlib.import_module(f"conefaces.{layer}")
            for attr, obj in sorted(vars(module).items()):
                qual = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                    or qual in NOT_WRAPPED
                ):
                    continue
                targets.append((qual, obj))
        return targets

    def _wrap(self, qual, fn):
        fid = len(self.names)
        self.names.append(qual)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        layer, short = qual.split(".", 1)

        if layer != "exact_linalg":

            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                stack.append(idx)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (tracer.op, fid, start, end,
                                  stack[-1] if stack else -1, None)

            return wrapper

        def linalg_wrapper(*args, **kwargs):
            if short == "span" and args and not hasattr(args[0], "__len__"):
                args = (list(args[0]),) + args[1:]
            cells = _cells(short, args, kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (tracer.op, fid, start, end,
                              stack[-1] if stack else -1, cells)
            if short == "span":
                bound = args[2] if len(args) > 2 else kwargs.get("max_dim")
                if bound is not None:
                    spans[idx] = spans[idx][:5] + ((cells, bound, result.dim),)
            return result

        return linalg_wrapper

    def _targets(self):
        """(function, wrapper) pairs, built on first use."""
        if self._pairs is None:
            self._pairs = [(fn, self._wrap(qual, fn)) for qual, fn in self._collect()]
        return self._pairs

    def _cached(self):
        """(layer, lru_cache function) for every wrapped cached function."""
        return [
            (fn.__module__.rsplit(".", 1)[1], fn)
            for fn, _ in self._targets()
            if hasattr(fn, "cache_info")
        ]

    def install(self):
        self._rebind({id(fn): (fn, wrapper) for fn, wrapper in self._targets()})

    def uninstall(self):
        self._rebind({id(wrapper): (wrapper, fn) for fn, wrapper in self._targets()})

    @staticmethod
    def _rebind(mapping):
        """Replace each old object by its new one in every conefaces module."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "conefaces" or name.startswith("conefaces.")):
                continue
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                pair = mapping.get(id(obj))
                if pair is not None and pair[0] is obj:
                    namespace[attr] = pair[1]

    def clear_caches(self):
        """Empty the config-keyed caches, so a repeated input is recomputed."""
        for _, fn in self._cached():
            fn.cache_clear()

    def run(self, op_id, call):
        """Run call() traced as op op_id; returns its result."""
        cached = self._cached()
        before = [fn.cache_info() for _, fn in cached]
        self.op = op_id
        self.install()
        try:
            result = call()
        finally:
            self.uninstall()
            self.op = -1
        for (layer, fn), info in zip(cached, before):
            after = fn.cache_info()
            self.cache[layer][0] += after.hits - info.hits
            self.cache[layer][1] += after.misses - info.misses
        return result

    # -- transfer between processes -------------------------------------
    def payload(self):
        return {
            "names": self.names,
            "spans": self.spans,
            "cache": self.cache,
            "import_s": self.import_s,
            "numpy_loaded": self.numpy_loaded,
        }

    def absorb(self, payload, op_id):
        """Append a child process's spans to this tracer as op op_id."""
        ids = []
        for name in payload["names"]:
            if name not in self.names:
                self.names.append(name)
            ids.append(self.names.index(name))
        base = len(self.spans)
        for _, f, start, end, parent, note in payload["spans"]:
            if isinstance(note, list):
                note = tuple(note)
            self.spans.append((op_id, ids[f], start, end,
                               parent + base if parent >= 0 else -1, note))
        for layer, (hits, misses) in payload["cache"].items():
            self.cache[layer][0] += hits
            self.cache[layer][1] += misses
        self.import_s.extend(payload["import_s"])
        self.numpy_loaded.extend(payload["numpy_loaded"])

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for op, f, start, end, parent, note in self.spans:
                fh.write(json.dumps({
                    "op": op, "name": self.names[f], "start": start,
                    "end": end, "parent": parent, "note": note,
                }) + "\n")

    # -- aggregation ----------------------------------------------------
    def summary(self, ops, overhead_ratio):
        """Per-layer metrics over `ops` traced ops."""
        spans = self.spans
        layer_of = [name.split(".", 1)[0] for name in self.names]
        child = [0.0] * len(spans)
        for op, f, start, end, parent, note in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        split = {short: 0.0 for short in LINALG_CALLERS.values()}
        numeric_s = 0.0
        linalg_calls = linalg_cells = bounded = met = 0
        poly_calls = hilbert_calls = 0
        for i, (op, f, start, end, parent, note) in enumerate(spans):
            layer = layer_of[f]
            own = end - start - child[i]
            name = self.names[f]
            if name == NUMERIC:
                numeric_s += own
                continue
            self_s[layer] += own
            if name == HILBERT:
                hilbert_calls += 1
            if layer == "polynomials":
                poly_calls += 1
            if layer != "exact_linalg":
                continue
            caller = parent
            while caller >= 0 and layer_of[spans[caller][1]] == "exact_linalg":
                caller = spans[caller][4]
            if caller >= 0:
                short = LINALG_CALLERS.get(self.names[spans[caller][1]])
                if short is not None:
                    split[short] += own
            if parent < 0 or layer_of[spans[parent][1]] != "exact_linalg":
                linalg_calls += 1
                linalg_cells += note[0] if isinstance(note, tuple) else note
                if isinstance(note, tuple):
                    bounded += 1
                    met += note[2] == note[1]

        def ratio(num, den):
            return num / den if den else 0.0

        per_op = max(ops, 1)
        values = {
            "exact_linalg.self_s": self_s["exact_linalg"] / per_op,
            "exact_linalg.calls": linalg_calls / per_op,
            "exact_linalg.cells": linalg_cells / per_op,
            "exact_linalg.bound_met_ratio": ratio(met, bounded),
            "polynomials.self_s": self_s["polynomials"] / per_op,
            "polynomials.calls": poly_calls / per_op,
            "ideal_components.self_s": self_s["ideal_components"] / per_op,
            "ideal_components.cache_hit_ratio": ratio(
                self.cache["ideal_components"][0], sum(self.cache["ideal_components"])),
            "independence.self_s": self_s["independence"] / per_op,
            "independence.hilbert_calls": hilbert_calls / per_op,
            "independence.cache_hit_ratio": ratio(
                self.cache["independence"][0], sum(self.cache["independence"])),
            "constructions.self_s": self_s["constructions"] / per_op,
            "certificates.self_s": self_s["certificates"] / per_op,
            "certificates.numeric_s": numeric_s / per_op,
            "cli.self_s": self_s["cli"] / per_op,
            "cli.import_s": ratio(sum(self.import_s), len(self.import_s)),
            "cli.numpy_loaded_ratio": ratio(sum(self.numpy_loaded), len(self.numpy_loaded)),
            "trace.overhead_ratio": overhead_ratio,
        }
        for short, seconds in split.items():
            values[f"exact_linalg.self_s.{short}"] = seconds / per_op
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
