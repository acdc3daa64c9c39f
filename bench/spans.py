"""Span recording for the traced benchmark run.

A traced run replaces each listed doxatest function, in every package module
namespace that binds it, by a wrapper that records a span: name, start, end,
parent span and item id.  Spans stay in memory and are written out when the
run ends.  The hottest functions (``LEAVES``) are not stored per call; they
are aggregated per item into call count, total time and self time, so that
tracing does not swamp the item it measures.

A span's self time is its duration minus the part of it covered by child
spans and minus the time of leaf calls made directly inside it.  Because
spans nest, the self times of everything recorded inside items add up to the
summed item durations; `check_balance` holds the trace to that.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); ModelContext.of is patched on its class
TRACED = (
    ("correspondence", "build_census", "correspondence.build_census"),
    ("correspondence", "correspondence_verdict", "correspondence.correspondence_verdict"),
    ("correspondence", "build_witness_model", "correspondence.build_witness_model"),
    ("properties", "check_class", "properties.check_class"),
    ("properties", "check_property", "properties.check_property"),
    ("axioms", "axiom_status_via_formulas", "axioms.axiom_status_via_formulas"),
    ("axioms", "axiom_holds", "axioms.axiom_holds"),
    ("axioms", "ModelContext.of", "axioms.ModelContext.of"),
    ("axioms", "replay_witness", "axioms.replay_witness"),
    ("formulas", "truth_vector", "formulas.truth_vector"),
    ("formulas", "semantic_pool", "formulas.semantic_pool"),
    ("frames", "truth_set", "frames.truth_set"),
    ("frames", "cells", "frames.cells"),
    ("frames", "definable_events", "frames.definable_events"),
    ("frames", "support_of", "frames.support_of"),
    ("frames", "validate_frame", "frames.validate_frame"),
    ("frames", "load_structure", "frames.load_structure"),
    ("frames", "complete_selection", "frames.complete_selection"),
    ("changegen", "roundtrip_verify", "changegen.roundtrip_verify"),
    ("changegen", "build_canonical_model", "changegen.build_canonical_model"),
    ("changegen", "audit_function", "changegen.audit_function"),
)

# called thousands of times per item: aggregated, never stored per call
LEAVES = frozenset(
    {
        "frames.truth_set",
        "formulas.truth_vector",
        "axioms.axiom_holds",
        "axioms.ModelContext.of",
        "frames.cells",
        "frames.definable_events",
        "frames.support_of",
    }
)

# spans opened by the benchmark itself around its calls into the package
BENCH_SPANS = ("item", "changegen.gen", "cli")

PACKAGE_MODULES = (
    "frames",
    "formulas",
    "properties",
    "axioms",
    "correspondence",
    "changegen",
    "cli",
)


class NullTracer:
    """Stand-in used by untraced runs: spans cost one context-manager call."""

    item = None

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, amount: float = 1) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent span index or -1, item id, leaf seconds)
        self.spans: list = []
        # (item id, leaf name) -> [calls, total seconds, self seconds]
        self.leaves: dict = {}
        self.counters: dict = defaultdict(float)
        self.item = None
        # open calls: [function key, child seconds, leaf-child seconds, span index]
        self._stack: list = []

    def _open(self, key, name: str, leaf: bool):
        stack = self._stack
        parent = stack[-1] if stack else None
        if not leaf and parent is not None and parent[3] < 0:
            raise RuntimeError(f"span {name} opened inside a leaf call")
        sid = -1
        if not leaf:
            sid = len(self.spans)
            self.spans.append(None)
        frame = [key, 0.0, 0.0, sid]
        stack.append(frame)
        return parent, frame

    def _close(self, name, leaf, parent, frame, t0, t1) -> None:
        self._stack.pop()
        dur = t1 - t0
        if parent is not None:
            parent[1] += dur
            if leaf:
                parent[2] += dur
        if leaf:
            agg = self.leaves.get((self.item, name))
            if agg is None:
                agg = self.leaves[(self.item, name)] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame[1]
        else:
            pid = parent[3] if parent is not None else -1
            self.spans[frame[3]] = (name, t0, t1, pid, self.item, frame[2])

    @contextlib.contextmanager
    def span(self, name: str):
        parent, frame = self._open(name, name, False)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(name, False, parent, frame, t0, perf_counter())

    def count(self, name: str, amount: float = 1) -> None:
        if self.item is not None:
            self.counters[name] += amount

    def wrap(self, fn, name: str, on_result=None, label=None):
        """Wrapper recording one span (or leaf aggregate) per outermost call;
        a direct recursive call belongs to the call that made it."""
        leaf = name in LEAVES
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][0] is traced:
                return fn(*args, **kwargs)
            span_name = label(args, kwargs) if label else name
            parent, frame = tracer._open(traced, span_name, leaf)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span_name, leaf, parent, frame, t0, perf_counter())
            if on_result is not None:
                on_result(tracer, span_name, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _property_label(args, kwargs) -> str:
    pid = kwargs["property_id"] if "property_id" in kwargs else args[1]
    return f"properties.check_property.{pid.value}"


def _on_property(tracer, name, verdict) -> None:
    if verdict.holds:
        tracer.count(name + ".holds")


def _on_correspondence(tracer, name, report) -> None:
    tracer.count("correspondence.models_checked", report.models_checked)


def _on_roundtrip(tracer, name, report) -> None:
    tracer.count("changegen.events_checked", report.events_checked)


_HOOKS = {
    "properties.check_property": dict(label=_property_label, on_result=_on_property),
    "correspondence.correspondence_verdict": dict(on_result=_on_correspondence),
    "changegen.roundtrip_verify": dict(on_result=_on_roundtrip),
}


@contextlib.contextmanager
def installed(tracer: Tracer, callers=()):
    """Patch every traced function into every package namespace binding it,
    and into the calling modules ``callers``; restore the originals on exit."""
    import importlib

    modules = {m: importlib.import_module(f"doxatest.{m}") for m in PACKAGE_MODULES}
    namespaces = [*modules.values(), *callers]
    undo = []
    try:
        for module, attr, name in TRACED:
            hooks = _HOOKS.get(name, {})
            if attr == "ModelContext.of":
                cls = modules[module].ModelContext
                original = cls.__dict__["of"]
                wrapped = tracer.wrap(original.__func__, name, **hooks)
                cls.of = classmethod(wrapped)
                undo.append((cls, "of", original))
                continue
            original = getattr(modules[module], attr)
            wrapped = tracer.wrap(original, name, **hooks)
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        undo.append((mod, key, original))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


# --- self-time arithmetic ---------------------------------------------------


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list[float]:
    """Self seconds per span: duration minus child-span coverage (clipped
    to the span) minus directly nested leaf time."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (name, start, end, parent, item, leaf_s) in enumerate(spans):
        clipped = [
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children.get(idx, ())
        ]
        clipped = [(a, b) for a, b in clipped if b > a]
        out.append(end - start - _covered(clipped) - leaf_s)
    return out


def layer_totals(tracer: Tracer) -> tuple[dict, dict]:
    """Per span name, calls and self seconds over the spans and leaf
    aggregates recorded inside items."""
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if span[4] is not None:
            calls[span[0]] += 1
            self_s[span[0]] += own
    for (item, name), (n, _total, own) in tracer.leaves.items():
        if item is not None:
            calls[name] += n
            self_s[name] += own
    return dict(calls), dict(self_s)


def check_balance(tracer: Tracer, wall_s: float, tolerance: float = 1e-6) -> float:
    """Layer self times plus the untraced remainder must add up to the traced
    wall time; returns the absolute error and raises if it is too large."""
    _calls, self_s = layer_totals(tracer)
    item_s = sum(s[2] - s[1] for s in tracer.spans if s[0] == "item" and s[4] is not None)
    remainder = wall_s - item_s
    error = abs(sum(self_s.values()) + remainder - wall_s)
    bound = tolerance * max(1, len(tracer.spans) + len(tracer.leaves))
    if error > bound:
        raise RuntimeError(f"trace does not balance: error {error:.3e}s > {bound:.3e}s")
    return error


def write_trace(tracer: Tracer, path: str, meta: dict) -> None:
    names = sorted({s[0] for s in tracer.spans} | {k[1] for k in tracer.leaves})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "meta": meta,
        "names": names,
        "spanFields": ["name", "start", "end", "parent", "item", "leafSeconds"],
        "spans": [
            [index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in tracer.spans
        ],
        "leafFields": ["item", "name", "calls", "seconds", "selfSeconds"],
        "leaves": [
            [item, index[name], n, total, own]
            for (item, name), (n, total, own) in sorted(
                tracer.leaves.items(), key=lambda kv: (kv[0][0] is None, kv[0][0] or 0, kv[0][1])
            )
        ],
        "counters": dict(tracer.counters),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
