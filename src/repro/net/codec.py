"""Binary wire codec for protocol messages.

A small, self-describing, recursive tag-length-value format for the
message dataclasses, replacing pickle on the UDP transport: no arbitrary
code execution on decode, stable sizes close to
:func:`repro.net.message.measure_size`'s model, and graceful rejection
of malformed datagrams (:class:`CodecError`), which the fault model
treats as message loss.

Supported values: ``None``, ``bool``, ``int`` (signed, arbitrary
precision), ``float``, ``bytes``, ``str``, ``tuple``/``list``,
``frozenset``, ``dict`` (ordered key/value pairs — the fabric's slot
maps), :class:`~repro.core.register.TimestampedValue`,
:class:`~repro.core.register.RegisterArray`,
:class:`~repro.core.ss_always.TaskDescriptor`, and any registered
:class:`~repro.net.message.Message` subclass (messages nest, e.g. the
epoch envelope).  Message classes are auto-registered from the known
algorithm modules; custom messages register via :func:`register_message`.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any

from repro.core.register import RegisterArray, TimestampedValue
from repro.errors import ConfigurationError, ReproError
from repro.net.message import Message

__all__ = ["encode_message", "decode_message", "register_message", "CodecError"]


class CodecError(ReproError):
    """A datagram could not be decoded (treated as message loss)."""


# -- type tags ----------------------------------------------------------------

_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"i"
_T_FLOAT = b"f"
_T_BYTES = b"b"
_T_STR = b"s"
_T_TUPLE = b"t"
_T_FROZENSET = b"z"
_T_DICT = b"d"
_T_TSVALUE = b"V"
_T_REGARRAY = b"R"
_T_TASKDESC = b"D"
_T_MESSAGE = b"M"

#: Deepest container/message nesting accepted, on both sides: a value
#: nested deeper is not encodable, and a datagram claiming such a value
#: is malformed.  Real messages nest under ten levels; the bound keeps a
#: hostile datagram of nested one-element tuples from exhausting the
#: interpreter's recursion limit.
MAX_NESTING = 64

#: Message type registry: class name → class (populated lazily).
_MESSAGE_TYPES: dict[str, type[Message]] = {}


def register_message(message_cls: type[Message]) -> type[Message]:
    """Register a message class for decoding (idempotent)."""
    _MESSAGE_TYPES[message_cls.__name__] = message_cls
    return message_cls


def _ensure_registry() -> None:
    if _MESSAGE_TYPES:
        return
    from repro.broadcast import reliable
    from repro.consensus import messages as consensus_messages
    from repro.core import amortized, base, dgfr_always, dgfr_nonblocking
    from repro.core import ss_always, ss_nonblocking
    from repro.net import batch
    from repro.stabilization import reset
    from repro.stacked import abd

    for module in (
        base,
        dgfr_nonblocking,
        ss_nonblocking,
        dgfr_always,
        ss_always,
        amortized,
        reliable,
        reset,
        abd,
        consensus_messages,
        batch,
    ):
        for name in dir(module):
            obj = getattr(module, name)
            if (
                isinstance(obj, type)
                and issubclass(obj, Message)
                and obj is not Message
            ):
                register_message(obj)


# -- encoding --------------------------------------------------------------------


def _pack_length(buffer: bytearray, length: int) -> None:
    buffer += struct.pack(">I", length)


def _encode_value(buffer: bytearray, value: Any, depth: int = 0) -> None:
    from repro.core.ss_always import TaskDescriptor

    if depth > MAX_NESTING:
        raise CodecError(f"cannot encode a value nested deeper than {MAX_NESTING}")
    depth += 1

    if value is None:
        buffer += _T_NONE
    elif value is True:
        buffer += _T_TRUE
    elif value is False:
        buffer += _T_FALSE
    elif isinstance(value, int):
        payload = str(value).encode("ascii")
        buffer += _T_INT
        _pack_length(buffer, len(payload))
        buffer += payload
    elif isinstance(value, float):
        buffer += _T_FLOAT
        buffer += struct.pack(">d", value)
    elif isinstance(value, bytes):
        buffer += _T_BYTES
        _pack_length(buffer, len(value))
        buffer += value
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        buffer += _T_STR
        _pack_length(buffer, len(encoded))
        buffer += encoded
    elif isinstance(value, (tuple, list)):
        buffer += _T_TUPLE
        _pack_length(buffer, len(value))
        for item in value:
            _encode_value(buffer, item, depth)
    elif isinstance(value, frozenset):
        buffer += _T_FROZENSET
        _pack_length(buffer, len(value))
        # Deterministic order so equal sets encode identically.
        for item in sorted(value, key=repr):
            _encode_value(buffer, item, depth)
    elif isinstance(value, TimestampedValue):
        buffer += _T_TSVALUE
        _encode_value(buffer, value.ts, depth)
        _encode_value(buffer, value.value, depth)
    elif isinstance(value, RegisterArray):
        buffer += _T_REGARRAY
        _pack_length(buffer, len(value))
        for entry in value:
            _encode_value(buffer, entry.ts, depth)
            _encode_value(buffer, entry.value, depth)
    elif isinstance(value, TaskDescriptor):
        buffer += _T_TASKDESC
        _encode_value(buffer, value.node, depth)
        _encode_value(buffer, value.sns, depth)
        _encode_value(buffer, value.vc, depth)
    elif isinstance(value, Message):
        name = type(value).__name__.encode("ascii")
        buffer += _T_MESSAGE
        _pack_length(buffer, len(name))
        buffer += name
        fields = dataclasses.fields(value)
        _pack_length(buffer, len(fields))
        for field in fields:
            _encode_value(buffer, getattr(value, field.name), depth)
    elif isinstance(value, dict):
        # Insertion order is kept on both sides: equal maps built in a
        # different order are equal after the round trip all the same.
        buffer += _T_DICT
        _pack_length(buffer, len(value))
        for key, item in value.items():
            _encode_value(buffer, key, depth)
            _encode_value(buffer, item, depth)
    else:
        raise CodecError(f"cannot encode value of type {type(value).__name__}")


def encode_message(message: Message) -> bytes:
    """Encode a message (and everything it nests) to bytes.

    The encoding is cached on the message instance: a broadcast encodes
    its payload once and reuses the bytes for every destination (the UDP
    transport otherwise re-encodes per datagram).  The cache follows the
    same contract as :meth:`repro.net.message.Message.wire_size` — frozen
    dataclasses plus ``dataclasses.replace``-style mutation keep it sound;
    in-place mutators must call
    :func:`repro.net.message.invalidate_wire_cache`.
    """
    cached = message.__dict__.get("_wire_bytes")
    if cached is not None:
        return cached
    buffer = bytearray()
    _encode_value(buffer, message)
    encoded = bytes(buffer)
    object.__setattr__(message, "_wire_bytes", encoded)
    return encoded


# -- decoding ---------------------------------------------------------------------


class _Reader:
    __slots__ = ("data", "offset")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise CodecError("truncated datagram")
        chunk = self.data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def take_length(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def take_text(self, encoding: str) -> str:
        payload = self.take(self.take_length())
        try:
            return payload.decode(encoding)
        except UnicodeDecodeError as exc:
            raise CodecError(f"bad {encoding} payload {payload!r}") from exc


def _rebuild(cls: type, *args: Any, **fields: Any) -> Any:
    """Construct a decoded object from its decoded fields.

    The constructors validate (a timestamp must be a non-negative number,
    a register array non-empty, a set member or map key hashable); on a
    datagram that is malformed input, not a configuration mistake.
    """
    try:
        return cls(*args, **fields)
    except (TypeError, ValueError, ConfigurationError) as exc:
        raise CodecError(f"cannot rebuild {cls.__name__}: {exc}") from exc


def _decode_value(reader: _Reader, depth: int = 0) -> Any:
    from repro.core.ss_always import TaskDescriptor

    if depth > MAX_NESTING:
        raise CodecError(f"datagram nests values deeper than {MAX_NESTING}")
    depth += 1

    tag = reader.take(1)
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        payload = reader.take(reader.take_length())
        try:
            return int(payload.decode("ascii"))
        except ValueError as exc:
            raise CodecError(f"bad integer payload {payload!r}") from exc
    if tag == _T_FLOAT:
        return struct.unpack(">d", reader.take(8))[0]
    if tag == _T_BYTES:
        return reader.take(reader.take_length())
    if tag == _T_STR:
        return reader.take_text("utf-8")
    if tag == _T_TUPLE:
        count = reader.take_length()
        return tuple(_decode_value(reader, depth) for _ in range(count))
    if tag == _T_FROZENSET:
        count = reader.take_length()
        # A map is decodable but not hashable, so membership can fail.
        return _rebuild(
            frozenset, [_decode_value(reader, depth) for _ in range(count)]
        )
    if tag == _T_TSVALUE:
        ts = _decode_value(reader, depth)
        value = _decode_value(reader, depth)
        return _rebuild(TimestampedValue, ts=ts, value=value)
    if tag == _T_REGARRAY:
        count = reader.take_length()
        entries = []
        for _ in range(count):
            ts = _decode_value(reader, depth)
            value = _decode_value(reader, depth)
            entries.append(_rebuild(TimestampedValue, ts=ts, value=value))
        return _rebuild(RegisterArray, entries)
    if tag == _T_TASKDESC:
        node = _decode_value(reader, depth)
        sns = _decode_value(reader, depth)
        vc = _decode_value(reader, depth)
        return TaskDescriptor(node=node, sns=sns, vc=vc)
    if tag == _T_MESSAGE:
        _ensure_registry()
        name = reader.take_text("ascii")
        message_cls = _MESSAGE_TYPES.get(name)
        if message_cls is None:
            raise CodecError(f"unknown message type {name!r}")
        field_count = reader.take_length()
        fields = dataclasses.fields(message_cls)
        if field_count != len(fields):
            raise CodecError(
                f"{name}: expected {len(fields)} fields, got {field_count}"
            )
        return _rebuild(
            message_cls,
            **{field.name: _decode_value(reader, depth) for field in fields},
        )
    if tag == _T_DICT:
        count = reader.take_length()
        return _rebuild(
            dict,
            [
                (_decode_value(reader, depth), _decode_value(reader, depth))
                for _ in range(count)
            ],
        )
    raise CodecError(f"unknown tag {tag!r}")


def decode_message(data: bytes) -> Message:
    """Decode bytes produced by :func:`encode_message`.

    Raises :class:`CodecError` on any malformed input (the UDP transport
    treats that as a lost datagram).
    """
    reader = _Reader(data)
    value = _decode_value(reader)
    if not isinstance(value, Message):
        raise CodecError(f"top-level value is not a message: {value!r}")
    if reader.offset != len(data):
        raise CodecError("trailing bytes after message")
    return value
