"""Independent reference for the benchmark: a plain ``dict`` replay.

It shares no code with ``longmap``. It follows the documented contract:
an absent key reads as ``default_entry(key)``, ``update`` and ``remove``
succeed, and removing an absent key is a no-op. A rejected update leaves the
map unchanged, so the reference is only consulted for operations that did
not fail.
"""

from __future__ import annotations

GET, CONTAINS, UPDATE, REMOVE = range(4)
KIND_NAMES = ("get", "contains", "update", "remove")


def replay(state: dict, ops, default_entry) -> list:
    """Apply ``ops`` to ``state`` in place; return what each op must return."""
    out = []
    for kind, key, value in ops:
        if kind == GET:
            out.append(state[key] if key in state else default_entry(key))
        elif kind == CONTAINS:
            out.append(key in state)
        elif kind == UPDATE:
            state[key] = value
            out.append(True)
        else:
            state.pop(key, None)
            out.append(True)
    return out


def contents_mismatch(m, expected: dict, absent=()) -> str | None:
    """First difference between map ``m`` and ``expected``, read through the
    public interface only (size, get, contains), or None."""
    if m.size != len(expected):
        return f"size {m.size} != reference {len(expected)}"
    for key, value in expected.items():
        if not m.contains(key):
            return f"key {key} missing"
        got = m.get(key)
        if got != value:
            return f"get({key}) = {got}, reference {value}"
    for key in absent:
        if key not in expected and m.contains(key):
            return f"absent key {key} reported present"
    return None
