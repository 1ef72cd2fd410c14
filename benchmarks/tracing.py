"""Span tracer for the traced run.

It wraps public attributes of the ``longmap`` modules from the outside, for
the length of one ``with`` block, and records one span per call: name, start,
end and the span that was open when the call began. Spans stay in memory
until they are written out. A layer is a module of the package; a span's
self time is its length minus the time its child spans cover.

Seek probe lengths are counted from outside, with the public ``to_index``
and ``next_probe``, before each map op starts. The clock is paused while
they are counted, so that work shows in no span.
"""

from __future__ import annotations

import functools
import gzip
from array import array
from collections import Counter
from time import perf_counter_ns

import longmap.cli as cli
import longmap.conformance as conformance
import longmap.core as core
import longmap.growable as growable
import longmap.invariants as invariants
from longmap.listmap import ListMap

LONG_MIN = -(1 << 63)
LAYERS = ("core", "growable", "listmap", "conformance", "invariants", "cli")
MAP_OPS = ("get", "contains", "update", "remove")
OP_SPANS = frozenset(f"{layer}.{op}" for layer in ("core", "growable") for op in MAP_OPS)
GROW_SNAPSHOT = "conformance.snapshot_model(grow)"

_to_index = core.to_index
_next_probe = core.next_probe


def probe_length(keys, mask: int, key: int) -> int:
    """Slots a seek for ``key`` inspects: until the key or an empty slot,
    at most MAX_PROBES."""
    e = _to_index(key, mask)
    x = 0
    while x < core.MAX_PROBES:
        q = keys[e]
        if q == key or q == 0:
            return x + 1
        x += 1
        e = _next_probe(e, x, mask)
    return x


class Tracer:
    """Records spans around calls into the package while it is entered."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self._paused = 0
        self._patched: list = []
        self.seek_calls = 0
        self.probes_total = 0
        self.probes_max = 0
        self.rejected = Counter()
        self.grow_spans: list = []
        self.grow_count = 0

    # -- recording ---------------------------------------------------------

    def span(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns() - self._paused)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns() - self._paused
                stack.pop()

        return traced

    def _map_op(self, fn, name: str, op: str):
        traced = self.span(fn, name)

        @functools.wraps(fn)
        def call(m, key, *rest):
            if key != 0 and key != LONG_MIN:
                t = perf_counter_ns()
                probes = probe_length(m.keys, m.mask, key)
                self.seek_calls += 1
                self.probes_total += probes
                if probes > self.probes_max:
                    self.probes_max = probes
                self._paused += perf_counter_ns() - t
            result = traced(m, key, *rest)
            if result is False and op in ("update", "remove"):
                self.rejected[op] += 1
            return result

        return call

    def _growable_update(self, fn):
        traced = self.span(fn, "growable.update")

        @functools.wraps(fn)
        def call(m, key, value):
            before = m.capacity
            i = len(self.start)
            result = traced(m, key, value)
            after = m.capacity
            if after != before:
                self.grow_spans.append(i)
                self.grow_count += (after // before).bit_length() - 1
            return result

        return call

    # -- installing the wrappers ------------------------------------------

    def _patch(self, owner, attr: str, make):
        # An attribute a later version of the program no longer has is
        # skipped; its metrics then read 0.
        original = vars(owner).get(attr)
        if original is None:
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self):
        named = lambda name: (lambda fn: self.span(fn, name))  # noqa: E731
        self._patch(core, "to_index", named("core.to_index"))
        for op in MAP_OPS:
            self._patch(core.FixedLongMap, op, lambda fn, op=op: self._map_op(fn, f"core.{op}", op))
        self._patch(growable.GrowableLongMap, "update", self._growable_update)
        for op in ("get", "contains", "remove"):
            self._patch(growable.GrowableLongMap, op, named(f"growable.{op}"))
        self._patch(growable, "snapshot_model", named(GROW_SNAPSHOT))
        self._patch(conformance, "snapshot_model", named("conformance.snapshot_model"))
        self._patch(conformance, "equivalence_violation", named("conformance.equivalence_violation"))
        self._patch(conformance, "check_invariant", named("invariants.check"))
        self._patch(conformance, "run_trace", named("conformance.run_trace"))
        self._patch(conformance, "parse_trace", named("conformance.parse_trace"))
        self._patch(invariants, "check", named("invariants.check"))
        self._patch(cli, "dump_state", named("cli.dump_state"))
        self._patch(cli, "parse_state", named("cli.parse_state"))
        self._patch(ListMap, "insert", named("listmap.insert"))
        self._patch(ListMap, "remove", named("listmap.remove"))
        self._patch(ListMap, "__eq__", named("listmap.eq"))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    # -- reading the spans -------------------------------------------------

    def root_ops(self) -> int:
        """Map ops called directly by the benchmark, not from inside another span."""
        op_ids = {i for i, n in enumerate(self.names) if n in OP_SPANS}
        return sum(1 for nid, p in zip(self.name, self.parent) if p == -1 and nid in op_ids)

    def layer_metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls, incl, own = Counter(), Counter(), Counter()
        for i in range(n):
            d = self.end[i] - self.start[i]
            name = self.names[self.name[i]]
            calls[name] += 1
            incl[name] += d
            own[name] += d - child[i]

        def mean_ns(*names):
            c = sum(calls[x] for x in names)
            return sum(incl[x] for x in names) / c if c else 0.0

        grow_ns = sum(self.end[i] - self.start[i] for i in self.grow_spans)
        no_grow_calls = calls["growable.update"] - len(self.grow_spans)
        snap = ("conformance.snapshot_model", GROW_SNAPSHOT)
        m = {
            "core.to_index.calls": (calls["core.to_index"], "count"),
            "core.to_index.ns": (mean_ns("core.to_index"), "ns"),
            "core.seek.calls": (self.seek_calls, "count"),
            "core.seek.probes_mean": (self.probes_total / self.seek_calls if self.seek_calls else 0.0, "probes"),
            "core.seek.probes_max": (self.probes_max, "probes"),
        }
        for op in MAP_OPS:
            m[f"core.{op}.ns"] = (mean_ns(f"core.{op}"), "ns")
        m["core.update.rejected"] = (self.rejected["update"], "count")
        m["core.remove.rejected"] = (self.rejected["remove"], "count")
        m["growable.update.ns"] = (
            (incl["growable.update"] - grow_ns) / no_grow_calls if no_grow_calls else 0.0,
            "ns",
        )
        m["growable.grow.count"] = (self.grow_count, "count")
        m["growable.grow.s"] = (grow_ns / 1e9, "s")
        m["growable.grow.snapshot_s"] = (incl[GROW_SNAPSHOT] / 1e9, "s")
        m["conformance.snapshot_model.calls"] = (sum(calls[x] for x in snap), "count")
        m["conformance.snapshot_model.ns"] = (mean_ns(*snap), "ns")
        m["conformance.equivalence_violation.calls"] = (calls["conformance.equivalence_violation"], "count")
        m["conformance.equivalence_violation.ns"] = (mean_ns("conformance.equivalence_violation"), "ns")
        m["conformance.run_trace.self_s"] = (own["conformance.run_trace"] / 1e9, "s")
        for op in ("insert", "remove", "eq"):
            m[f"listmap.{op}.ns"] = (mean_ns(f"listmap.{op}"), "ns")
        m["invariants.check.calls"] = (calls["invariants.check"], "count")
        m["invariants.check.ns"] = (mean_ns("invariants.check"), "ns")
        for name in ("conformance.parse_trace", "cli.dump_state", "cli.parse_state"):
            m[f"{name}.s"] = (incl[name] / 1e9, "s")
        for layer in LAYERS:
            busy = sum(v for k, v in own.items() if k.split(".", 1)[0] == layer)
            m[f"{layer}.self_s"] = (busy / 1e9, "s")
        return m

    def write(self, path) -> None:
        """Write the spans as tab-separated text: index, name, start and end
        in ns from the first span, parent index (-1 for none)."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as f:
            f.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0}\t"
                    f"{self.end[i] - t0}\t{self.parent[i]}\n"
                )


def empty_span_ns(calls: int = 20_000) -> float:
    """Mean length of a span around a call that does nothing: the part of
    every span that is the tracer's own cost."""
    tracer = Tracer()
    f = tracer.span(lambda: None, "empty")
    for _ in range(calls):
        f()
    return sum(e - s for s, e in zip(tracer.start, tracer.end)) / calls
