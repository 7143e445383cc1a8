"""Span tracer for the factorix layers.

``Tracer.install`` wraps the public functions of every layer module, and the
public methods of its classes, and rebinds each wrapped function at every
import site: factorix modules bind names with ``from .x import f``, so the
function object is looked up in every loaded factorix module namespace.
Per-element hot paths (permutation arithmetic, table rows, bitset helpers)
are left alone, and so are generator functions, whose call returns before
the work is done.  A layer module or function that does not exist is
recorded as absent instead of failing, so the benchmark keeps running when a
layer is deleted or merged.

Spans are kept in memory as (name, start, end, parent, op) tuples and written
out when the benchmark ends.  A span's self time is its duration minus the
durations of its direct children.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("perm", "group", "structure", "patterns", "certify", "indset",
          "search", "catalog", "driver", "cli")

# Per-element or per-bit helpers: wrapping them would cost more than the
# work they do and swamp every other span.
HOT = {
    "perm": {"compose", "inverse", "identity", "format_cycles", "perm_order", "Perm"},
    "group": {"bits_of", "iter_bits", "element_order", "GroupTable", "FactorSet"},
    "structure": {"right_coset_bits"},
    "certify": {"Certificate", "Verdict"},
}

# The functions the per-layer metrics are computed from.  Missing ones are
# reported as absent.
NEEDED = (
    "perm.parse_cycles", "group.generate_group",
    "structure.right_transversal", "structure.left_transversal",
    "structure.coset_index_map", "structure.double_cosets",
    "structure.conjugate_intersection_trivial",
    "certify.verify_certificate", "certify.product_distinct", "certify.load_json",
    "indset.independent_sets_of_size",
    "search.case2_search", "search.case3_search", "search.case3_build_graph",
    "search.CompatibilityGraph.adjacency", "search.generic_search", "search.refute",
    "catalog.open_catalog", "driver.build_recipe", "driver.run_search",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.results: dict[str, list] = defaultdict(list)
        self.wrapped: list[str] = []
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # --------------------------------------------------------------- install

    def _wrap(self, name: str, fn, extract):
        spans, stack, results = self.spans, self.stack, self.results

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            op = self.op
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, op)
            if extract is not None:
                results[name].append(extract(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, extract=None) -> None:
        """Wrap every layer.  ``extract`` maps span names to functions of
        (args, kwargs, result) whose values are kept in ``results``."""
        extract = extract or {}
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"factorix.{layer}")
            except ImportError:
                self.absent.append(layer)
        namespaces = [m for k, m in sys.modules.items()
                      if m is not None and (k == "factorix" or k.startswith("factorix."))]
        for layer, mod in modules.items():
            skip = HOT.get(layer, set())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in skip or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if inspect.isgeneratorfunction(obj):
                        continue
                    name = f"{layer}.{attr}"
                    wrapper = self._wrap(name, obj, extract.get(name))
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._undo.append((ns, key, val))
                                setattr(ns, key, wrapper)
                    self.wrapped.append(name)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        if inspect.isgeneratorfunction(fn):
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        self._undo.append((obj, meth, fn))
                        setattr(obj, meth, self._wrap(name, fn, extract.get(name)))
                        self.wrapped.append(name)
        have = set(self.wrapped)
        self.absent += [n for n in NEEDED if n not in have and n.split(".")[0] not in self.absent]

    def uninstall(self) -> None:
        for target, key, val in reversed(self._undo):
            setattr(target, key, val)
        self._undo.clear()

    # --------------------------------------------------------------- analysis

    def closed_spans(self) -> list[tuple]:
        return [s for s in self.spans if s is not None]

    def self_times(self) -> list[float]:
        spans = self.spans
        own = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s is None:
                continue
            own[i] += s[2] - s[1]
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for s, own in zip(self.spans, self.self_times()):
            if s is None:
                continue
            rec = out[s[0]]
            rec["calls"] += 1
            rec["total_s"] += s[2] - s[1]
            rec["self_s"] += own
        return dict(out)

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for s, own in zip(self.spans, self.self_times()):
            if s is not None:
                out[s[0].split(".")[0]] += own
        return out

    def outermost(self, names) -> float:
        """Seconds in spans named in ``names`` that have no ancestor named
        in ``names`` (so nested and recursive calls are not counted twice)."""
        names = set(names)
        spans = self.spans
        secs = 0.0
        for s in spans:
            if s is None or s[0] not in names:
                continue
            p = s[3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                secs += s[2] - s[1]
        return secs

    def count_under(self, name: str, ancestor: str) -> int:
        spans = self.spans
        n = 0
        for s in spans:
            if s is None or s[0] != name:
                continue
            p = s[3]
            while p >= 0 and spans[p][0] != ancestor:
                p = spans[p][3]
            n += p >= 0
        return n

    def per_op(self) -> dict[str, dict]:
        """Per op id: seconds of its top-level spans, and self seconds by
        layer over all of its spans."""
        out: dict[str, dict] = {}
        spans = self.spans
        for s, own in zip(spans, self.self_times()):
            if s is None or s[4] is None:
                continue
            rec = out.setdefault(s[4], {"span_s": 0.0, "self_s_by_layer": defaultdict(float)})
            rec["self_s_by_layer"][s[0].split(".")[0]] += own
            if s[3] < 0 or spans[s[3]][4] != s[4]:
                rec["span_s"] += s[2] - s[1]
        for rec in out.values():
            rec["self_s_by_layer"] = {k: round(v, 6) for k, v in rec["self_s_by_layer"].items()}
            rec["span_s"] = round(rec["span_s"], 6)
        return out
