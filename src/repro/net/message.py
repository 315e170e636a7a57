"""Message base class and wire-size accounting.

Algorithms define one frozen dataclass per message type (WRITE, WRITEack,
SNAPSHOT, GOSSIP, …), each carrying a class-level ``KIND`` tag used for
metrics and handler dispatch.  :func:`measure_size` estimates the
serialized size of a message in bytes so that the paper's bit-complexity
claims (O(n·ν) operation messages vs O(ν) gossip) can be measured rather
than asserted.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterable

from repro.core.register import RegisterArray, TimestampedValue

__all__ = [
    "Message",
    "measure_size",
    "invalidate_wire_cache",
    "HEADER_BYTES",
    "INT_BYTES",
]

#: Fixed per-message framing overhead we charge (kind tag + addressing).
HEADER_BYTES = 16
#: Bytes charged per integer field (64-bit operation indices, per Section 5).
INT_BYTES = 8


@dataclass(frozen=True)
class Message:
    """Base class for all wire messages.

    Subclasses set ``KIND`` to a short unique tag; the network uses it for
    metrics, and processes use it for handler dispatch.
    """

    KIND: ClassVar[str] = "?"

    @property
    def kind(self) -> str:
        """The message's wire tag (dispatch and metrics key)."""
        return self.KIND

    def wire_size(self) -> int:
        """Estimated serialized size in bytes, including framing.

        The size is measured once per instance and cached: a broadcast
        hands the *same* message object to all ``n-1`` destination
        channels, so without the cache every fan-out re-measures the
        payload per destination.  Messages are frozen dataclasses, so
        the cache is sound as long as mutation goes through
        ``dataclasses.replace`` (a fresh instance, as the fault injectors
        do) — anything that mutates a packet in place must call
        :func:`invalidate_wire_cache` on it.
        """
        cache = self.__dict__
        size = cache.get("_wire_size")
        if size is None:
            size = HEADER_BYTES + measure_size(self)
            object.__setattr__(self, "_wire_size", size)
        return size


def invalidate_wire_cache(message: Message) -> None:
    """Drop any cached size/encoding from ``message``.

    Fault injectors that hand back a mutated packet (rather than a fresh
    ``dataclasses.replace`` copy) must call this so the cached wire size
    (:meth:`Message.wire_size`) and cached codec bytes
    (:func:`repro.net.codec.encode_message`) are re-derived from the
    corrupted contents.

    This reaches the message's own caches only.  The size a
    :class:`~repro.core.register.TimestampedValue` remembers is never
    invalidated, because its ``value`` is never mutated in place (see
    the class docstring): a corrupted register entry is a fresh pair.
    """
    cache = getattr(message, "__dict__", None)
    if cache is not None:
        cache.pop("_wire_size", None)
        cache.pop("_wire_bytes", None)


def measure_size(obj: Any) -> int:
    """Estimate the encoded size of ``obj`` in bytes.

    The estimate charges 8 bytes per integer, actual length for
    ``bytes``/``str`` values, and recurses through containers,
    dataclasses, and register types.  It is deliberately a *codec model*,
    not ``sys.getsizeof``: the paper's ν is the number of bits needed to
    represent the object value, so benchmarks encode values as ``bytes``
    of length ν/8 and this function reports faithful totals.

    Dispatch is by exact type through a table of per-class sizers that
    :func:`_compile_sizer` fills on first sight of a class; a
    :class:`TimestampedValue` is measured once and remembers its size, so
    a message carrying a register array costs one slot read per entry.
    """
    cls = type(obj)
    return (_SIZERS.get(cls) or _compile_sizer(cls))(obj)


def _size_items(items: Iterable[Any]) -> int:
    total = 0
    sizers = _SIZERS
    for item in items:
        cls = type(item)
        total += (sizers.get(cls) or _compile_sizer(cls))(item)
    return total


def _size_mapping(mapping: dict) -> int:
    return _size_items(mapping.keys()) + _size_items(mapping.values())


def _size_entry(entry: TimestampedValue) -> int:
    size = entry._size
    if size is None:
        size = INT_BYTES + measure_size(entry.value)
        object.__setattr__(entry, "_size", size)
    return size


def _size_register_array(reg: RegisterArray) -> int:
    total = 0
    for entry in reg:
        # Same as _size_entry, with the memo hit inlined: this loop is the
        # whole cost of pricing a WRITE/SNAPSHOT message.
        total += entry._size or _size_entry(entry)
    return total


def _size_opaque(obj: Any) -> int:
    return 8


def _compile_dataclass_sizer(cls: type) -> Callable[[Any], int]:
    names = tuple(field.name for field in dataclasses.fields(cls))

    def size_fields(obj: Any) -> int:
        # _size_items over the field values, without building the list:
        # this runs once per message sent.
        total = 0
        sizers = _SIZERS
        for name in names:
            value = getattr(obj, name)
            value_cls = type(value)
            total += (sizers.get(value_cls) or _compile_sizer(value_cls))(value)
        return total

    return size_fields


#: The order in which a class not in the table yet is classified: first
#: base that matches wins.  :class:`TimestampedValue` (itself a dataclass)
#: and named tuples must match before the generic dataclass plan; ``bool``
#: cannot be subclassed, so its table entry alone keeps it from being
#: charged as an ``int``.
_LADDER: tuple[tuple[type, Callable[[Any], int]], ...] = (
    (int, lambda obj: INT_BYTES),
    (float, lambda obj: 8),
    (bytes, len),
    (str, lambda obj: len(obj.encode("utf-8"))),
    (TimestampedValue, _size_entry),
    (RegisterArray, _size_register_array),
    (tuple, _size_items),
    (list, _size_items),
    (set, _size_items),
    (frozenset, _size_items),
    (dict, _size_mapping),
)

#: Exact type → sizer.  Seeded with the leaf and container types; every
#: other class (``IntEnum``, ``OrderedDict``, named tuples, the message
#: dataclasses) is compiled on first use.
_SIZERS: dict[type, Callable[[Any], int]] = {
    type(None): lambda obj: 1,
    bool: lambda obj: 1,
    **dict(_LADDER),
}


def _compile_sizer(cls: type) -> Callable[[Any], int]:
    """Pick the sizer for a class not in the table yet, and remember it."""
    for base, sizer in _LADDER:
        if issubclass(cls, base):
            break
    else:
        if dataclasses.is_dataclass(cls):
            sizer = _compile_dataclass_sizer(cls)
        else:
            # Opaque application values: charge a conservative flat size.
            sizer = _size_opaque
    _SIZERS[cls] = sizer
    return sizer
