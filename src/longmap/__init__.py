"""Fixed-capacity open-addressing map for 64-bit integer keys, with its
reference model, invariant checker, a FixedLongMap that reallocates its own
arrays, and the fuzzing harness."""

from .core import (
    LONG_MIN,
    LONG_MAX,
    MAX_MASK,
    MAX_MASK_EXPONENT,
    MAX_PROBES,
    FixedLongMap,
    is_valid_key,
    next_probe,
    to_index,
    valid_mask,
    zero_entry,
)
from .growable import GrowableLongMap
from .invariants import InvariantReport, check
from .listmap import ListMap
from .conformance import (
    FuzzConfig,
    TraceOp,
    TraceResult,
    generate_trace,
    run_fuzz,
    run_trace,
    snapshot_model,
)

__all__ = [
    "LONG_MIN",
    "LONG_MAX",
    "MAX_MASK",
    "MAX_MASK_EXPONENT",
    "MAX_PROBES",
    "FixedLongMap",
    "GrowableLongMap",
    "ListMap",
    "InvariantReport",
    "FuzzConfig",
    "TraceOp",
    "TraceResult",
    "check",
    "generate_trace",
    "is_valid_key",
    "next_probe",
    "run_fuzz",
    "run_trace",
    "snapshot_model",
    "to_index",
    "valid_mask",
    "zero_entry",
]
