"""Differential checking of FixedLongMap against the ListMap model.

Provides model extraction from concrete map state, the array/model
equivalence check, and a deterministic randomized trace runner that
executes every operation on both the array map and the model twin, asserting
the public-contract relations and the equivalence after each step. A
divergence is reported with its op index and a minimized reproducing
trace. Also the trace format, the number grammar all input shares, and
``ParseError``.
"""

from __future__ import annotations

import random
from array import array
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import (
    LONG_MAX,
    LONG_MIN,
    MAX_MASK_EXPONENT,
    MAX_PROBES,
    FixedLongMap,
    is_valid_key,
    live_pairs,
    to_index,
    valid_mask,
    zero_entry,
)
from .invariants import _probe_offsets, _stop_slot, check as check_invariant
from .listmap import ListMap

OP_KINDS = ("U", "R", "G", "C")


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
    invariant_checks: int = 0
    equivalence_checks: int = 0
    divergence: Optional[Divergence] = None
    minimized: Optional[list] = None
    final_map: object = None

    @property
    def ok(self) -> bool:
        return self.divergence is None


def snapshot_model(m) -> ListMap:
    """Extract the ListMap mirroring the concrete state of ``m``.

    Folds every valid-key slot into the model (first occurrence wins, which
    matches folding recursively from the array end), then adds the sentinel
    pairs recorded in extra_keys.
    """
    pairs: dict[int, int] = {}
    values = m.values
    for i, k in enumerate(m.keys):
        if k != 0 and k != LONG_MIN and k not in pairs:
            pairs[k] = values[i]
    if m.extra_keys & 1:
        pairs[0] = m.zero_value
    if m.extra_keys & 2:
        pairs[LONG_MIN] = m.min_value
    return ListMap._from_sorted(tuple(sorted(pairs.items())))


def equivalence_violation(m, model: Optional[ListMap] = None) -> Optional[str]:
    """First violated array/model equivalence condition, or None.

    The map's live pairs and sentinel pairs must equal the entries of
    ``model`` (by default the snapshot). That one comparison implies every
    equivalence condition and rules out a duplicated key; only on a
    mismatch is the failed condition worked out and named.
    """
    if model is None:
        model = snapshot_model(m)
    pairs = live_pairs(m)
    if m.extra_keys & 1:
        insort(pairs, (0, m.zero_value))
    if m.extra_keys & 2:
        pairs.insert(0, (LONG_MIN, m.min_value))
    if tuple(pairs) == model.items():
        return None

    stored = set(m.keys)
    for k, _ in model.items():
        if is_valid_key(k) and k not in stored:
            return f"model key {k} does not occur in the key array"
    first: dict[int, int] = {}
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
        if first.setdefault(k, i) != i:
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


def _sentinels_agree(m, model: ListMap) -> bool:
    """The sentinel fields of ``m`` hold exactly the model's entries for 0 and
    LONG_MIN; the model's values are ints, so ``None`` means absent."""
    zero = m.zero_value if m.extra_keys & 1 else None
    low = m.min_value if m.extra_keys & 2 else None
    return model.get(0) == zero and model.get(LONG_MIN) == low


class _VerifiedState:
    """Copy of the last map state that ``equivalence_violation`` accepted.

    Holds the key and value arrays, the sentinel fields, the slot of each
    live key and the key array they were copied from. ``accepts`` verifies
    an op by the slots it touched, walking a probe path only for a fresh
    insert, instead of comparing the whole array with the model.
    """

    __slots__ = ("source", "keys", "values", "sentinels", "slot_of")

    def __init__(self, m):
        self.source = m.keys
        self.keys = array("q", m.keys)
        self.values = array("q", m.values)
        self.sentinels = (m.extra_keys, m.zero_value, m.min_value)
        self.slot_of = {k: i for i, k in enumerate(m.keys) if k != 0 and k != LONG_MIN}

    def accepts(self, m, model: ListMap, k: int) -> bool:
        """True iff equivalence of ``m`` with ``model`` after an op on ``k``
        follows from the copy's plus the change the op made.

        An op on 0 or LONG_MIN may change only the sentinel fields, which
        must agree with the model. Any other op must leave them as copied
        and may touch only the slot holding ``k`` in the copy and, on a
        fresh insert, the slot where ``k``'s probe path now reaches ``k``,
        each only ever holding 0, LONG_MIN or ``k``; every other slot must
        equal the copy. The copy had no duplicate and matched the model,
        which changed at ``k`` alone, so it suffices that ``k`` is held
        exactly when the model holds it, with the model's value. A
        reallocated table never passes. On True the copy takes the change;
        on False it is stale and the full check decides.
        """
        keys, values = m.keys, m.values
        old_keys, old_values = self.keys, self.values
        sentinels = (m.extra_keys, m.zero_value, m.min_value)
        if keys is not self.source or len(keys) != len(old_keys):
            return False
        if k == 0 or k == LONG_MIN:
            self.sentinels = sentinels
            return keys == old_keys and values == old_values and _sentinels_agree(m, model)
        if sentinels != self.sentinels:
            return False
        want = model.get(k)
        was = self.slot_of.get(k)
        slots = () if was is None else (was,)
        if want is not None and (was is None or keys[was] != k):
            mask = len(keys) - 1
            new = _stop_slot(keys, k, to_index(k, mask), _probe_offsets(mask))
            if new is not None and keys[new] == k:
                slots += (new,)
        holder = None
        for i in slots:
            if keys[i] not in (0, LONG_MIN, k) or old_keys[i] not in (0, LONG_MIN, k):
                return False
            old_keys[i] = keys[i]
            old_values[i] = values[i]
            if keys[i] == k:
                holder = i
        if keys != old_keys or values != old_values:
            return False
        if holder is None:
            self.slot_of.pop(k, None)
            return want is None
        self.slot_of[k] = holder
        return values[holder] == want


def _apply_checked(m, model: ListMap, op: TraceOp, default_entry) -> tuple[ListMap, Optional[str]]:
    """Run one op on both twins; return the new model and a divergence message."""
    k = op.key
    # On a justified False the model is unchanged; the equivalence check
    # that follows verifies the map was left untouched too.
    if op.kind == "U":
        if not m.update(k, op.value):
            return model, _rejection_violation(m, "update", k)
        model = model.insert(k, op.value)
        if not m.contains(k):
            return model, f"update({k}) returned True but contains is False"
    elif op.kind == "R":
        if not m.remove(k):
            return model, _rejection_violation(m, "remove", k)
        model = model.remove(k)
    elif op.kind == "G":
        want = model.get(k)
        if want is None:
            want = default_entry(k)
        got = m.get(k)
        if got != want:
            return model, f"get({k}) = {got}, model expects {want}"
    elif op.kind == "C":
        got = m.contains(k)
        want = model.contains(k)
        if got != want:
            return model, f"contains({k}) = {got}, model expects {want}"
    else:
        return model, f"unknown op kind {op.kind!r}"
    return model, None


def run_trace(
    ops,
    mask: int,
    *,
    default_entry: Callable[[int], int] = zero_entry,
    map_factory: Optional[Callable] = None,
    invariant_stride: Optional[int] = None,
    shrink: bool = True,
) -> TraceResult:
    """Execute ``ops`` differentially against the model, checking contracts.

    After every op the twins must agree observably and the whole array must
    match the model. An op is verified by the slots it touched against the
    last state the full check (``equivalence_violation``) accepted; the full
    check runs on the first op, after growth and whenever that does not
    settle it, and it alone words a divergence. The invariant is checked
    every ``invariant_stride`` ops (default 1 for capacity <= 64, else 64).
    The first divergence stops the run; with ``shrink`` a minimized
    reproducing trace is attached to the result.
    """
    ops = list(ops)
    if map_factory is None:
        map_factory = FixedLongMap
    if invariant_stride is None:
        invariant_stride = 1 if mask < 64 else 64

    m = map_factory(mask, default_entry)
    model = ListMap.empty()
    counts = {kind: 0 for kind in OP_KINDS}
    inv_checks = 0
    eq_checks = 0
    divergence = None
    verified = None

    for idx, op in enumerate(ops):
        counts[op.kind] = counts.get(op.kind, 0) + 1
        model, msg = _apply_checked(m, model, op, default_entry)
        if msg is None:
            eq_checks += 1
            if verified is None or not verified.accepts(m, model, op.key):
                eq = equivalence_violation(m, model)
                if eq is not None:
                    msg = f"snapshot != model: {eq}"
                else:
                    verified = _VerifiedState(m)
        if msg is None and (idx + 1) % invariant_stride == 0:
            inv_checks += 1
            report = check_invariant(m)
            if not report.valid:
                msg = f"invariant violated: {report.first_violation}"
        if msg is not None:
            divergence = Divergence(idx, op, msg)
            break

    minimized = None
    if divergence is not None and shrink:
        minimized = _shrink_trace(
            list(ops[: divergence.op_index + 1]),
            mask,
            default_entry=default_entry,
            map_factory=map_factory,
            invariant_stride=invariant_stride,
        )

    return TraceResult(
        ops_run=(divergence.op_index + 1) if divergence else len(ops),
        final_size=m.size,
        counts=counts,
        invariant_checks=inv_checks,
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


def parse_trace(text: str) -> tuple[int, list]:
    """Parse trace text into (mask, ops); raises ParseError."""
    lines = text.splitlines()
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
