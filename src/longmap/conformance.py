"""Differential checking of FixedLongMap against the ListMap model.

Provides the abstraction function to the model (``snapshot_model``), the
equivalence check comparing its snapshot with a model, and a deterministic
randomized trace runner that executes every operation on both the array
map and its twin, a dict updated in place. After each op the map must
match the ListMap of the dict's sorted entries and keep the class
invariant: the full check decides that on the whole array, the delta step
on the slots the op wrote, each of which must stay unchanged, go from free
to the op's key or from that key to a tombstone. A divergence is reported
with its op index and a minimized reproducing trace. Also the trace
format, the number grammar all input shares, and ``ParseError``.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional

from .core import (
    LONG_MAX,
    LONG_MIN,
    MAX_MASK_EXPONENT,
    MAX_PROBES,
    FixedLongMap,
    is_valid_key,
    to_index,
    valid_mask,
    zero_entry,
)
from .invariants import _probe_offsets, _stop_slot, check as check_invariant, count_valid_keys, first_slots
from .listmap import ListMap

OP_KINDS = ("U", "R", "G", "C")
_OP_NAMES = dict(zip(OP_KINDS, ("update", "remove", "get", "contains")))
# The mask and both counters of a map.
_fields = attrgetter("mask", "array_size", "tombstones")


@dataclass(frozen=True)
class TraceOp:
    """One replayable map operation: Update / Remove / Get / Contains."""

    kind: str
    key: int
    value: int = 0


@dataclass
class FuzzConfig:
    seed: int
    op_count: int
    mask_exponent: int
    key_pool_size: Optional[int] = None  # default: 2 * capacity
    sentinel_weight: float = 0.05  # probability of drawing each of 0 and LONG_MIN

    def __post_init__(self):
        if not 0 <= self.mask_exponent <= MAX_MASK_EXPONENT:
            raise ValueError(f"mask_exponent outside 0..{MAX_MASK_EXPONENT}: {self.mask_exponent}")
        if self.op_count <= 0:
            raise ValueError("op_count must be positive")
        if not 0.0 <= self.sentinel_weight <= 0.5:
            raise ValueError("sentinel_weight must be in [0, 0.5]")
        if self.key_pool_size is not None and self.key_pool_size <= 0:
            raise ValueError("key_pool_size must be positive")

    @property
    def mask(self) -> int:
        return (1 << self.mask_exponent) - 1


@dataclass
class Divergence:
    op_index: int
    op: TraceOp
    message: str


@dataclass
class TraceResult:
    ops_run: int
    final_size: int
    counts: dict = field(default_factory=dict)
    equivalence_checks: int = 0
    divergence: Optional[Divergence] = None
    minimized: Optional[list] = None
    final_map: object = None

    @property
    def ok(self) -> bool:
        return self.divergence is None


def snapshot_model(m) -> ListMap:
    """The abstraction function: the ListMap that the state of ``m`` stands for.

    Each valid key maps to the value in the first slot that holds it
    (``first_slots``, which matches folding recursively from the array end),
    and the sentinel pairs recorded in extra_keys are added.
    """
    pairs = [(k, m.values[i]) for k, i in first_slots(m.keys).items()]
    if m.extra_keys & 1:
        pairs.append((0, m.zero_value))
    if m.extra_keys & 2:
        pairs.append((LONG_MIN, m.min_value))
    return ListMap._from_sorted(tuple(sorted(pairs)))


def equivalence_violation(m, model: ListMap) -> Optional[str]:
    """First violated array/model equivalence condition, or None.

    Refinement through the abstraction function: ``snapshot_model(m)`` must
    equal ``model`` and fold no slot away, so the valid-key slots are as
    many as its non-sentinel entries. That rules out a duplicated key and
    implies every equivalence condition; only on a mismatch is the failed
    condition worked out and named.
    """
    snapshot = snapshot_model(m)
    live = len(snapshot) - snapshot.contains(0) - snapshot.contains(LONG_MIN)
    if snapshot == model and count_valid_keys(m.keys) == live:
        return None

    first = first_slots(m.keys)
    for k, _ in model.items():
        if is_valid_key(k) and k not in first:
            return f"model key {k} does not occur in the key array"
    for i, k in enumerate(m.keys):
        if not is_valid_key(k):
            continue
        if not model.contains(k):
            return f"key {k} at index {i} is missing from the model"
        if model.apply(k) != m.values[i]:
            return (
                f"value mismatch for key {k} at index {i}: "
                f"model {model.apply(k)} != array {m.values[i]}"
            )
        if first[k] != i:
            return f"key {k} duplicated at indexes {first[k]} and {i}"
    return (
        f"sentinel fields extra_keys {m.extra_keys}, zero_value {m.zero_value}, "
        f"min_value {m.min_value} disagree with the model"
    )


def generate_trace(cfg: FuzzConfig) -> tuple[int, list]:
    """Deterministically generate (mask, ops) from a fuzz config.

    Keys are drawn from a small fixed pool (default twice the capacity) so
    collisions, tombstone reuse and capacity exhaustion actually happen;
    sentinels 0 and LONG_MIN are drawn with elevated probability.
    """
    rng = random.Random(cfg.seed)
    mask = cfg.mask
    pool_size = cfg.key_pool_size or 2 * (mask + 1)
    pool: list[int] = []
    seen = {0, LONG_MIN}
    while len(pool) < pool_size:
        k = rng.getrandbits(64) - (1 << 63)
        if k not in seen:
            seen.add(k)
            pool.append(k)

    w = cfg.sentinel_weight

    def draw_key() -> int:
        r = rng.random()
        if r < w:
            return 0
        if r < 2 * w:
            return LONG_MIN
        return pool[rng.randrange(pool_size)]

    ops = []
    for _ in range(cfg.op_count):
        kind = rng.choices(OP_KINDS, weights=(45, 25, 15, 15))[0]
        key = draw_key()
        value = rng.getrandbits(64) - (1 << 63) if kind == "U" else 0
        ops.append(TraceOp(kind, key, value))
    return mask, ops


def _rejection_violation(m, name: str, k: int) -> Optional[str]:
    """Why ``name(k)`` returning False breaks the contract, or None.

    False is allowed only when the probe budget runs out: no slot among the
    first MAX_PROBES on k's probe sequence holds k or 0. Sentinel keys never
    probe, so for them False is never allowed.
    """
    if not is_valid_key(k):
        return f"{name}({k}) returned False for a sentinel key"
    keys, mask = m.keys, m.mask
    # Below MAX_PROBES slots the budget covers every slot, so two scans at C
    # speed decide; only a violation needs the walk that names its slot.
    if mask < MAX_PROBES and k not in keys and 0 not in keys:
        return None
    i = _stop_slot(keys, k, to_index(k, mask), _probe_offsets(mask))
    if i is None:
        return None
    return f"{name}({k}) returned False but slot {i} in its probe budget holds {keys[i]}"


def _sentinels_agree(m, model: dict) -> bool:
    """The sentinel fields of ``m`` hold exactly the model's entries for 0 and
    LONG_MIN; the model's values are ints, so ``None`` means absent."""
    zero = m.zero_value if m.extra_keys & 1 else None
    low = m.min_value if m.extra_keys & 2 else None
    return model.get(0) == zero and model.get(LONG_MIN) == low


class _Journaled(array):
    """An ``array('q')`` that appends to ``written``, a list it shares with
    its twin, each index or slice written through it once the write
    succeeds; a deletion appends None."""

    def __setitem__(self, i, v):
        array.__setitem__(self, i, v)
        self.written.append(i)

    def __delitem__(self, i):
        array.__delitem__(self, i)
        self.written.append(None)


def _unjournaled(a):
    """``a`` as a plain ``array('q')``: a journaled array is copied."""
    return array("q", a) if isinstance(a, _Journaled) else a


class _VerifiedState:
    """Copy of the last map state that the full check accepted, and the
    delta step that checks an op against it.

    Holds the key and value arrays, the journaled arrays it put on the map
    in their place and the journal they share, the slot of each live key,
    the mask and counters, and the mask's probe offsets.
    An op on ``k`` may move each slot it wrote in one of three ways:
    unchanged, free (0 or LONG_MIN) to ``k``, or ``k`` to a tombstone. None
    of them turns a slot into 0 or puts a key over another, so every other
    key's probe path still ends at its slot, and only a ``k`` in a new slot
    needs a walk. The copy matched the model, which changed at ``k`` alone,
    so it is enough that ``k`` is held exactly when the model holds it,
    with its value. The journal sees every write through ``__setitem__`` and
    ``__delitem__``; the delta step reads index writes only and declines
    the rest. It is blind to the in-place array methods (``byteswap``,
    ``reverse``, ``frombytes``, writes through a ``memoryview`` and the
    like), so the map must reach its arrays through ``keys`` and ``values``
    and write them by index or slice only; ``tests/test_layering.py`` holds
    ``core`` and ``growable`` to that.
    """

    __slots__ = ("source", "keys", "values", "written", "fields", "slot_of", "offsets")

    def __init__(self, m):
        self.written = []
        m.keys, m.values = _Journaled("q", m.keys), _Journaled("q", m.values)
        m.keys.written = m.values.written = self.written
        self.source = (m.keys, m.values)
        self.keys = array("q", m.keys)
        self.values = array("q", m.values)
        self.fields = _fields(m)
        self.slot_of = first_slots(m.keys)
        self.offsets = _probe_offsets(m.mask)

    def accepts(self, m, model: dict, k: int) -> bool:
        """The paper's per-op lemma on one state: True iff ``m`` after an op
        on ``k`` follows from the copy, so it matches ``model``, the twin
        dict after the same op, and passes ``check_invariant``.

        The arrays must be the journaled ones, the mask as copied and, as in
        the full check, ``extra_keys`` in 0..3 marking the model's sentinel
        entries. Each slot the journal names by index is unchanged (only a
        live ``k``'s value may change), goes from free to ``k`` or from ``k``
        to a tombstone. The counters must then match, ``k`` be held exactly
        when the model holds it, and a moved ``k`` sit where its probe path
        stops. On True the copy takes the change and the journal is cleared.
        """
        keys, values = m.keys, m.values
        old_keys, old_values, slot_of = self.keys, self.values, self.slot_of
        fields = _fields(m)
        n = len(old_keys)
        if keys is not self.source[0] or values is not self.source[1] or len(keys) != n or len(values) != n:
            return False
        mask, size, tombstones = self.fields
        if fields[0] != mask or not 0 <= m.extra_keys <= 3 or not _sentinels_agree(m, model):
            return False
        live = k != 0 and k != LONG_MIN
        was = slot_of.get(k)
        for i in self.written:
            if type(i) is not int:  # a slice, or a deletion's None
                return False
            old, now = old_keys[i], keys[i]
            if now != old:
                if live and now == k and (old == 0 or old == LONG_MIN) and k not in slot_of:  # free -> k
                    slot_of[k] = i
                    size += 1
                    tombstones -= old == LONG_MIN
                elif live and old == k and now == LONG_MIN:  # k -> tombstone
                    del slot_of[k]
                    size -= 1
                    tombstones += 1
                else:
                    return False
                old_keys[i] = now
            elif values[i] != old_values[i] and (old != k or not live):
                return False  # the key is unchanged: only a live k's value may move
            old_values[i] = values[i]
        at = slot_of.get(k)
        held = None if at is None else values[at]
        if fields[1] != size or fields[2] != tombstones or live and model.get(k) != held:
            return False
        if at is not None and at != was and _stop_slot(keys, k, to_index(k, mask), self.offsets) != at:
            return False
        self.written.clear()
        self.fields = fields
        return True


def _apply_checked(m, model: dict, op: TraceOp, default_entry) -> Optional[str]:
    """Run one op on the map and on ``model``, a dict updated in place;
    return the divergence message, or None."""
    k = op.key
    # On a justified False the model is unchanged; the equivalence check
    # that follows verifies the map was left untouched too.
    if op.kind == "U":
        if not m.update(k, op.value):
            return _rejection_violation(m, "update", k)
        model[k] = op.value
        return None if m.contains(k) else f"update({k}) returned True but contains is False"
    if op.kind == "R":
        if not m.remove(k):
            return _rejection_violation(m, "remove", k)
        model.pop(k, None)
        return None
    if op.kind == "G":
        expected = model[k] if k in model else default_entry(k)
        got = m.get(k)
    elif op.kind == "C":
        expected = k in model
        got = m.contains(k)
    else:
        return f"unknown op kind {op.kind!r}"
    return None if got == expected else f"{_OP_NAMES[op.kind]}({k}) = {got}, model expects {expected}"


def run_trace(
    ops,
    mask: int,
    *,
    default_entry: Callable[[int], int] = zero_entry,
    map_factory: Optional[Callable] = None,
    shrink: bool = True,
) -> TraceResult:
    """Execute ``ops`` differentially against the model, checking contracts.

    After every op the twins must agree observably, the whole array must
    match the model and the map must satisfy the class invariant. The model
    twin is a dict, updated in place. An op is verified by the slots a
    write journal on the map's arrays names, against the last state the
    full check (``equivalence_violation`` on the ListMap of the dict's
    sorted entries, then ``check_invariant``) accepted; the full check runs
    on the first op, after growth and whenever that does not settle it, and
    it alone words a divergence. A map op that raises is a divergence as
    well. The first divergence stops the run; with ``shrink`` a minimized
    reproducing trace is attached to the result. The final map holds plain
    arrays again.
    """
    ops = list(ops)
    if map_factory is None:
        map_factory = FixedLongMap

    m = map_factory(mask, default_entry)
    model = {}
    counts = {kind: 0 for kind in OP_KINDS}
    eq_checks = 0
    divergence = None
    verified = None

    for idx, op in enumerate(ops):
        counts[op.kind] = counts.get(op.kind, 0) + 1
        try:
            msg = _apply_checked(m, model, op, default_entry)
        except Exception as exc:  # a map defect that raises is a divergence too
            msg = f"{_OP_NAMES[op.kind]}({op.key}) raised {type(exc).__name__}: {exc}"
        if msg is None:
            eq_checks += 1
            if verified is None or not verified.accepts(m, model, op.key):
                eq = equivalence_violation(m, ListMap._from_sorted(tuple(sorted(model.items()))))
                if eq is not None:
                    msg = f"snapshot != model: {eq}"
                elif not (report := check_invariant(m)).valid:
                    msg = f"invariant violated: {report.first_violation}"
                else:
                    verified = _VerifiedState(m)
        if msg is not None:
            divergence = Divergence(idx, op, msg)
            break
    m.keys, m.values = _unjournaled(m.keys), _unjournaled(m.values)  # no journal outlives the run

    minimized = None
    if divergence is not None and shrink:
        minimized = _shrink_trace(
            ops[: divergence.op_index + 1], mask, default_entry=default_entry, map_factory=map_factory
        )

    return TraceResult(
        ops_run=(divergence.op_index + 1) if divergence else len(ops),
        final_size=m.size,
        counts=counts,
        equivalence_checks=eq_checks,
        divergence=divergence,
        minimized=minimized,
        final_map=m,
    )


def _shrink_trace(ops, mask, **kw) -> list:
    """Greedy chunk removal keeping any candidate that still diverges."""
    current = ops
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        i = 0
        while i < len(current):
            candidate = current[:i] + current[i + chunk :]
            if candidate and run_trace(candidate, mask, shrink=False, **kw).divergence is not None:
                current = candidate
            else:
                i += chunk
        chunk //= 2
    return current


def run_fuzz(cfg: FuzzConfig, **kwargs) -> TraceResult:
    """Generate a trace from ``cfg`` and run it."""
    mask, ops = generate_trace(cfg)
    return run_trace(ops, mask, **kwargs)


class ParseError(ValueError):
    """Malformed trace, state or flag text: ``message`` at ``line_number``."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
        self.message = message


def format_trace(mask: int, ops) -> str:
    """Render a trace in the line format consumed by parse_trace."""
    lines = [f"mask {mask}"]
    for op in ops:
        if op.kind == "U":
            lines.append(f"U {op.key} {op.value}")
        else:
            lines.append(f"{op.kind} {op.key}")
    return "\n".join(lines) + "\n"


def read_ascii(path) -> str:
    """The text of the ASCII file at ``path``; a non-ASCII byte raises ParseError."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"non-ASCII byte 0x{data[exc.start]:02x}") from None


def parse_int(text: str, line_number: int, what: str, lo: int = LONG_MIN, hi: int = LONG_MAX) -> int:
    """The whitespace-free token ``text`` as a signed decimal in [lo, hi].

    Anything else raises ParseError, including the ``_`` separators and
    non-ASCII digits that ``int`` would accept.
    """
    if "_" in text or not text.isascii():
        raise ParseError(line_number, f"{what} is not a signed decimal: {text!r}")
    try:
        v = int(text)
    except ValueError:
        raise ParseError(line_number, f"{what} is not an integer: {text!r}") from None
    if not lo <= v <= hi:
        raise ParseError(line_number, f"{what} {v} outside [{lo}, {hi}]")
    return v


def split_lines(text: str) -> list:
    """The lines of ``text``, ended by ``\\n`` alone, as ``read_ascii`` counts them."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def parse_trace(text: str) -> tuple[int, list]:
    """Parse trace text into (mask, ops); raises ParseError."""
    lines = split_lines(text)
    if not lines:
        raise ParseError(1, "empty trace")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "mask":
        raise ParseError(1, f"expected 'mask <decimal>', got {lines[0]!r}")
    mask = parse_int(header[1], 1, "mask")
    if not valid_mask(mask):
        raise ParseError(1, f"mask {mask} is not 2**n - 1 with n <= {MAX_MASK_EXPONENT}")

    ops = []
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "U":
            if len(parts) != 3:
                raise ParseError(ln, f"U takes key and value, got {line!r}")
            ops.append(
                TraceOp("U", parse_int(parts[1], ln, "key"), parse_int(parts[2], ln, "value"))
            )
        elif kind in ("R", "G", "C"):
            if len(parts) != 2:
                raise ParseError(ln, f"{kind} takes a key, got {line!r}")
            ops.append(TraceOp(kind, parse_int(parts[1], ln, "key")))
        else:
            raise ParseError(ln, f"unknown op {kind!r}")
    return mask, ops
