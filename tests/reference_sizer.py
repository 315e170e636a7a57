"""The recursive size model, kept as the oracle for ``measure_size``.

This is the isinstance ladder that :func:`repro.net.message.measure_size`
used until it was replaced by per-class sizers and the per-entry memo.
It re-walks everything reachable from its argument and caches nothing,
which is what makes it a trustworthy reference: the property tests
require the production sizer to agree with it byte for byte, cold and
warm.  Not a ``test_*`` module, so pytest never collects it (see
``broken_algorithms.py`` for why helpers live beside the tests).
"""

import dataclasses
from typing import Any

from repro.core.register import KeyDelta, RegisterArray, TimestampedValue
from repro.net.message import INT_BYTES


def reference_measure_size(obj: Any) -> int:
    """Recursively estimate the encoded size of ``obj`` in bytes."""
    if obj is None:
        return 1
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return INT_BYTES
    if isinstance(obj, float):
        return 8
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, TimestampedValue):
        return INT_BYTES + reference_measure_size(obj.value)
    if isinstance(obj, KeyDelta):
        # ts, the 8-byte base digest, the changed items.
        return 2 * INT_BYTES + reference_measure_size(obj.changes)
    if isinstance(obj, RegisterArray):
        return sum(reference_measure_size(entry) for entry in obj)
    if isinstance(obj, (tuple, list, set, frozenset)):
        return sum(reference_measure_size(item) for item in obj)
    if isinstance(obj, dict):
        return sum(
            reference_measure_size(key) + reference_measure_size(value)
            for key, value in obj.items()
        )
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(
            reference_measure_size(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        )
    # Opaque application values: charge a conservative flat size.
    return 8
