"""The benchmark's four workloads: inputs made from a seed, the program calls
that run them, and the checks of what the program returned.

Each workload is one closed loop: a single caller in a single process issues
each operation after the previous one returns. A run repeats whole rounds of
the same operations until its time is up, so the share of failed operations
is the same in every run, whatever its length.
"""

from __future__ import annotations

import random
import time
from array import array
from dataclasses import dataclass
from typing import Optional

import longmap.cli as cli
import longmap.conformance as conformance
import longmap.invariants as invariants
from longmap.core import FixedLongMap
from longmap.growable import GrowableLongMap

from reference import CONTAINS, GET, KIND_NAMES, REMOVE, UPDATE, contents_mismatch, replay

LONG_MIN = -(1 << 63)
TRACE_KINDS = {UPDATE: "U", REMOVE: "R", GET: "G", CONTAINS: "C"}


def default_entry(key: int) -> int:
    """Value read for an absent key. It is not the 0 of the program's own
    default, so a map that ignores ``default_entry`` is caught."""
    return ~key


def random_value(rng: random.Random) -> int:
    return rng.getrandbits(64) - (1 << 63)


def random_keys(rng: random.Random, n: int) -> list:
    """``n`` distinct keys, none of them 0 or LONG_MIN."""
    seen = {0, LONG_MIN}
    keys = []
    while len(keys) < n:
        k = rng.getrandbits(64) - (1 << 63)
        if k not in seen:
            seen.add(k)
            keys.append(k)
    return keys


def record(m, ops) -> list:
    """Run ``ops`` on ``m`` and keep what each call returned."""
    calls = (m.get, m.contains, m.update, m.remove)
    return [calls[kind](key, value) if kind == UPDATE else calls[kind](key) for kind, key, value in ops]


def first_difference(ops, got: list, want: list) -> Optional[str]:
    for i, (op, g, w) in enumerate(zip(ops, got, want)):
        if g != w:
            return f"op {i} {KIND_NAMES[op[0]]}({op[1]}) returned {g!r}, reference {w!r}"
    return None


def table_bytes(m) -> int:
    """Bytes held by the key and value arrays of ``m``."""
    inner = getattr(m, "inner", m)
    return memoryview(inner.keys).nbytes + memoryview(inner.values).nbytes


@dataclass
class Round:
    """One round of a workload's operations."""

    ops: int
    failed: int
    seconds: float  # time spent in the operations
    batch_us: list  # per-op time of each batch of consecutive ops, in µs
    final_map: object
    seen: Optional[int] = None  # ops the clocked map observed (replay-checked)


class Direct:
    """A workload whose ops the benchmark issues on the map itself."""

    name = ""
    batch = 64
    fresh_map_per_round = False
    setup_in_trace = False

    def __init__(self):
        self.ops: list = []  # (kind, key, value)
        self.batches: list = []

    def _split(self):
        b = self.batch
        self.batches = [self.ops[i : i + b] for i in range(0, len(self.ops), b)]

    def run_round(self, m) -> Round:
        get, contains, update, remove = m.get, m.contains, m.update, m.remove
        clock = time.perf_counter_ns
        failed = 0
        spans = array("q")
        for batch in self.batches:
            t0 = clock()
            for kind, key, value in batch:
                if kind == 0:  # GET
                    get(key)
                elif kind == 1:  # CONTAINS
                    contains(key)
                elif kind == 2:  # UPDATE
                    if not update(key, value):
                        failed += 1
                elif not remove(key):
                    failed += 1
            spans.append(clock() - t0)
        per_op = [ns / len(b) / 1000 for ns, b in zip(spans, self.batches)]
        return Round(len(self.ops), failed, sum(spans) / 1e9, per_op, m)

    def finish(self, m) -> Optional[str]:
        return None


class FixedMixed(Direct):
    """Read-heavy traffic on a FixedLongMap at high load: no growth, no checker."""

    name = "fixed-mixed"
    MASK = (1 << 16) - 1
    LOAD = 0.85
    ROUND_OPS = 64_000
    MISS_POOL = 4096
    batch = 64

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(f"{self.name}/{seed}")
        n_live = round(self.LOAD * (self.MASK + 1))
        keys = random_keys(rng, n_live + self.MISS_POOL)
        live, self.miss = keys[:n_live], keys[n_live:]
        self.prefill = [(k, random_value(rng)) for k in live]
        for _ in range(self.ROUND_OPS):
            r = rng.random()
            if r < 0.4:
                self.ops.append((GET, rng.choice(live), 0))
            elif r < 0.6:
                self.ops.append((GET, rng.choice(self.miss), 0))
            elif r < 0.7:
                self.ops.append((CONTAINS, rng.choice(live), 0))
            elif r < 0.8:
                self.ops.append((CONTAINS, rng.choice(self.miss), 0))
            else:
                self.ops.append((UPDATE, rng.choice(live), random_value(rng)))
        self._split()

    def build(self):
        m = FixedLongMap(self.MASK, default_entry)
        for k, v in self.prefill:
            m.update(k, v)
        return m

    def verify(self, m, last: Round, rounds: int) -> list:
        # Every round ran on the same map: replay them all in the reference,
        # then one more round whose returned values are compared.
        state = dict(self.prefill)
        for _ in range(rounds):
            replay(state, self.ops, default_entry)
        want = replay(state, self.ops, default_entry)
        problems = [first_difference(self.ops, record(m, self.ops), want)]
        problems.append(contents_mismatch(m, state, absent=self.miss))
        return [p for p in problems if p]


class GrowableFill(Direct):
    """Write-only: fresh keys into a GrowableLongMap that starts at mask 1."""

    name = "growable-fill"
    KEYS = 1 << 17
    batch = 32
    fresh_map_per_round = True

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(f"{self.name}/{seed}")
        self.pairs = [(k, random_value(rng)) for k in random_keys(rng, self.KEYS)]
        self.ops = [(UPDATE, k, v) for k, v in self.pairs]
        self._split()

    def build(self):
        return GrowableLongMap(1, default_entry)

    def verify(self, m, last: Round, rounds: int) -> list:
        problems = [contents_mismatch(m, dict(self.pairs))]
        want = 2
        while len(self.pairs) > want // 2:
            want *= 2
        if m.capacity != want:
            problems.append(
                f"capacity {m.capacity} after {len(self.pairs)} inserts, "
                f"smallest power of two with size <= half of it is {want}"
            )
        return [p for p in problems if p]


class GrowableChurn(Direct):
    """Fresh-key insert/remove churn around ~1000 live keys on a GrowableLongMap.

    Its keys do not depend on the seed (only its values do). Growth counts
    only live keys, so the churn's tombstones use up the probe budget: some
    removes of absent keys return False on this fixed key stream, and the
    share of such failed ops must be the same in every run.
    """

    name = "growable-churn"
    LIVE = 1000
    STEPS = 12_000
    KEY_SEED = "growable-churn/keys"
    batch = 30  # ten steps of three ops
    fresh_map_per_round = True

    def __init__(self, seed: int):
        super().__init__()
        keys = random_keys(random.Random(self.KEY_SEED), self.LIVE + 2 * self.STEPS)
        rng = random.Random(f"{self.name}/{seed}")
        self.prefill = [(k, random_value(rng)) for k in keys[: self.LIVE]]
        self.fresh = keys[self.LIVE : self.LIVE + self.STEPS]
        self.absent = keys[self.LIVE + self.STEPS :]
        for k, a in zip(self.fresh, self.absent):
            self.ops += [(UPDATE, k, random_value(rng)), (REMOVE, k, 0), (REMOVE, a, 0)]
        self._split()

    def build(self):
        m = GrowableLongMap(1, default_entry)
        for k, v in self.prefill:
            m.update(k, v)
        return m

    def verify(self, m, last: Round, rounds: int) -> list:
        # Removes that returned False are the counted failures; every other op
        # returned True. The net effect of a round is nothing, so the map must
        # hold exactly the pre-filled pairs.
        sample = self.fresh[::50] + self.absent[::50]
        problem = contents_mismatch(m, dict(self.prefill), absent=sample)
        return [problem] if problem else []


class _BatchClock:
    """Stamps the clock at the start of every ``batch`` trace ops and counts
    rejected updates and removes. An op starts when the map receives a call
    that matches the next op of the trace, so calls the checker adds of its
    own do not move the op count."""

    def __init__(self, ops, batch: int):
        self.ops = ops
        self.batch = batch
        self.pos = 0
        self.failed = 0
        self.stamps = array("q")

    def enter(self, kind: int, key: int):
        pos = self.pos
        if pos < len(self.ops) and self.ops[pos][0] == kind and self.ops[pos][1] == key:
            if pos % self.batch == 0:
                self.stamps.append(time.perf_counter_ns())
            self.pos = pos + 1

    def factory(self, mask: int, entry):
        m = _ClockedMap(mask, entry)
        m.clock = self
        return m


class _ClockedMap(FixedLongMap):
    def get(self, key):
        self.clock.enter(GET, key)
        return FixedLongMap.get(self, key)

    def contains(self, key):
        self.clock.enter(CONTAINS, key)
        return FixedLongMap.contains(self, key)

    def update(self, key, value):
        self.clock.enter(UPDATE, key)
        ok = FixedLongMap.update(self, key, value)
        if not ok:
            self.clock.failed += 1
        return ok

    def remove(self, key):
        self.clock.enter(REMOVE, key)
        ok = FixedLongMap.remove(self, key)
        if not ok:
            self.clock.failed += 1
        return ok


def _make_ignoring_remove(victim: int):
    class IgnoresOneRemove(FixedLongMap):
        """Deliberately broken map: removing ``victim`` does nothing."""

        def remove(self, key):
            if key == victim:
                return True
            return FixedLongMap.remove(self, key)

    return IgnoresOneRemove


class ReplayChecked:
    """A fuzz-shaped trace replayed through the differential checker.

    The trace is rendered to text and parsed (set-up), run through
    ``conformance.run_trace`` at its default strides (the timed rounds), and
    its final state goes down the ``longmap check`` path: ``dump_state``,
    ``parse_state``, invariant ``check``. The key pool is half the capacity,
    so empty slots never run out and no update is rejected.
    """

    name = "replay-checked"
    MASK = (1 << 10) - 1
    POOL = 512
    TRACE_OPS = 2048
    SENTINEL_WEIGHT = 0.05
    batch = 8
    fresh_map_per_round = False
    setup_in_trace = True

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        pool = random_keys(rng, self.POOL)
        w = self.SENTINEL_WEIGHT
        self.ops = []
        for _ in range(self.TRACE_OPS):
            kind = rng.choices((UPDATE, REMOVE, GET, CONTAINS), weights=(45, 25, 15, 15))[0]
            r = rng.random()
            key = 0 if r < w else LONG_MIN if r < 2 * w else rng.choice(pool)
            self.ops.append((kind, key, random_value(rng) if kind == UPDATE else 0))
        lines = [f"mask {self.MASK}"]
        for kind, key, value in self.ops:
            lines.append(f"U {key} {value}" if kind == UPDATE else f"{TRACE_KINDS[kind]} {key}")
        self.text = "\n".join(lines) + "\n"

    def build(self):
        _, trace = conformance.parse_trace(self.text)
        return trace

    def run_round(self, trace) -> Round:
        clock = _BatchClock(self.ops, self.batch)
        t0 = time.perf_counter_ns()
        result = conformance.run_trace(
            trace, self.MASK, default_entry=default_entry, map_factory=clock.factory, shrink=False
        )
        t1 = time.perf_counter_ns()
        stamps = list(clock.stamps) + [t1]
        per_op = []
        for i in range(len(stamps) - 1):
            n = min(self.batch, clock.pos - i * self.batch)
            per_op.append((stamps[i + 1] - stamps[i]) / n / 1000)
        failed = clock.failed + (result.divergence is not None)
        # A divergence stops the trace: the ops after it are not attempted.
        return Round(result.ops_run, failed, (t1 - t0) / 1e9, per_op, result.final_map, clock.pos)

    def finish(self, m) -> Optional[str]:
        """The ``longmap check`` path on the final state."""
        parsed = cli.parse_state(cli.dump_state(m))
        report = invariants.check(parsed)
        if not report.valid:
            return f"check of the final state failed: {report.first_violation}"
        return None

    def verify(self, trace, last: Round, rounds: int) -> list:
        state: dict = {}
        want = replay(state, self.ops, default_entry)
        problems = [first_difference(self.ops, record(FixedLongMap(self.MASK, default_entry), self.ops), want)]
        problems.append(contents_mismatch(last.final_map, state))
        problems.append(self.finish(last.final_map))
        problems.append(self._checker_catches_broken_map(trace))
        return [p for p in problems if p]

    def _checker_catches_broken_map(self, trace) -> Optional[str]:
        # The first remove of a key the reference holds (not a sentinel): a
        # map that ignores it keeps a key the model dropped, so the checker
        # must stop right at that op.
        state: dict = {}
        victim = predicted = None
        for i, op in enumerate(self.ops):
            kind, key, _ = op
            if kind == REMOVE and key in state and key not in (0, LONG_MIN):
                victim, predicted = key, i
                break
            replay(state, [op], default_entry)
        if victim is None:
            return "trace has no remove of a present key for the checker probe"
        result = conformance.run_trace(
            trace,
            self.MASK,
            default_entry=default_entry,
            map_factory=_make_ignoring_remove(victim),
            shrink=False,
        )
        got = result.divergence.op_index if result.divergence else None
        if got != predicted:
            return f"broken map (remove of {victim} ignored) caught at op {got}, reference predicts {predicted}"
        return None


WORKLOADS = {w.name: w for w in (FixedMixed, GrowableFill, GrowableChurn, ReplayChecked)}
