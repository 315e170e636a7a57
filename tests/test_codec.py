"""Tests for the binary wire codec (round-trips, malformed input)."""

import dataclasses
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import (
    ReadAckMessage,
    ReadMessage,
    WriteAckMessage,
    WriteMessage,
)
from repro.core.dgfr_nonblocking import SnapshotAckMessage, SnapshotMessage
from repro.core.register import KeyDelta, KeyMap, RegisterArray, TimestampedValue
from repro.core.ss_always import (
    GossipMessage3,
    SaveAckMessage,
    SaveMessage,
    SnapshotMessage3,
    TaskDescriptor,
    WriteMessage3,
)
from repro.core.ss_nonblocking import GossipMessage, GossipPullMessage
from repro.net.codec import (
    MAX_NESTING,
    CodecError,
    decode_message,
    encode_message,
)
from repro.net.message import Message
from repro.stabilization.reset import EpochEnvelope, ResetCommitMessage


def reg(*entries):
    return RegisterArray(
        [TimestampedValue(ts, value) for ts, value in entries]
    )


ROUND_TRIP_CASES = [
    WriteMessage(reg=reg((1, b"a"), (0, None))),
    # Algorithm 3's WRITE also names the sender's own sns.
    WriteMessage3(reg=(TimestampedValue(2, "w"), 1), sns=3),
    # Acks ship an entry where it is news and name the timestamp otherwise.
    WriteAckMessage(reg=(TimestampedValue(3, "text"), 2)),
    SnapshotMessage(reg=reg((0, None), (0, None)), ssn=7),
    SnapshotAckMessage(reg=(5, TimestampedValue(1, b"\x00\xff")), ssn=123456789),
    GossipMessage(ts=9, entry=TimestampedValue(9, b"payload")),
    # A fabric slot map: key -> (seq, value), insertion-ordered.
    ReadMessage(
        j=1, entry=TimestampedValue(4, {"k1": (2, b"a"), 7: (3, None)}), tag=8
    ),
    GossipMessage3(ts=2, entry=None, task_sns=4),
    GossipPullMessage(),
    SnapshotMessage3(
        tasks=(
            TaskDescriptor(0, 1, (1, 2, 3)),
            TaskDescriptor(2, 5, None),
        ),
        reg=reg((1, "v"), (0, None), (2, "w")),
        ssn=3,
        sns=2,
    ),
    SaveMessage(entries=((1, 2, reg((1, "r"), (0, None))),)),
    SaveAckMessage(ids=frozenset({(1, 2), (3, 4)})),
    EpochEnvelope(epoch=5, inner=WriteMessage(reg=reg((1, "inner")))),
    ResetCommitMessage(new_epoch=2, values=reg((0, "kept"), (0, None))),
]


class TestRoundTrips:
    def test_algorithm3_write_names_its_sns_in_one_int(self):
        """The subclass decodes as itself and costs one int more, in the
        size model and in the reference model alike."""
        from reference_sizer import reference_measure_size

        from repro.net.message import INT_BYTES, measure_size

        items = (TimestampedValue(2, b"w" * 16), 1, 0)
        plain, named = WriteMessage(reg=items), WriteMessage3(reg=items, sns=5)
        decoded = decode_message(encode_message(named))
        assert decoded == named and type(decoded) is WriteMessage3
        assert named.wire_size() == plain.wire_size() + INT_BYTES
        assert measure_size(named) == reference_measure_size(named)

    @pytest.mark.parametrize(
        "message", ROUND_TRIP_CASES, ids=lambda m: type(m).__name__
    )
    def test_known_messages_round_trip(self, message):
        assert decode_message(encode_message(message)) == message

    @pytest.mark.parametrize(
        "entry",
        [None, TimestampedValue(6, {"k": (3, "w")})],
        ids=["elided", "full"],
    )
    def test_read_ack_round_trips_with_and_without_its_entry(self, entry):
        ack = ReadAckMessage(j=1, ts=6, entry=entry, tag=8)
        assert decode_message(encode_message(ack)) == ack

    def test_delta_read_round_trips(self):
        """A keyed write's READ: ts, base digest and the changed items;
        a slot map comes back a KeyMap, digest and all."""
        base = KeyMap({"k1": (2, b"a"), 7: (3, None)})
        delta = KeyDelta(ts=5, base=base.digest, changes=(("k2", (1, "b")),))
        read = ReadMessage(j=1, entry=delta, tag=8)
        assert decode_message(encode_message(read)) == read
        gossip = GossipMessage(ts=4, entry=TimestampedValue(4, base))
        decoded = decode_message(encode_message(gossip)).entry.value
        assert type(decoded) is KeyMap and decoded.digest == base.digest

    @pytest.mark.parametrize("changes", [(("k",),), (({"k": 1}, (1, "v")),), 3])
    def test_malformed_delta_is_a_codec_error(self, changes):
        """Not a tuple of (hashable key, item) pairs: the sender's
        constructor would refuse it, so the receiver's decode does."""
        delta = object.__new__(KeyDelta)
        for name, value in (("ts", 5), ("base", 1), ("changes", changes)):
            object.__setattr__(delta, name, value)
        datagram = encode_message(ReadMessage(j=1, entry=delta, tag=8))
        with pytest.raises(CodecError):
            decode_message(datagram)

    def test_map_order_survives(self):
        value = {"b": 1, "a": 2}
        message = GossipMessage(ts=1, entry=TimestampedValue(1, value))
        decoded = decode_message(encode_message(message)).entry.value
        assert list(decoded) == ["b", "a"]

    def test_unhashable_member_is_a_codec_error(self):
        """A map decodes but cannot be a set member or a map key."""
        good = encode_message(SaveAckMessage(ids=frozenset({(1,)})))
        bad = good.replace(
            b"t" + struct.pack(">I", 1) + b"i" + struct.pack(">I", 1) + b"1",
            b"d" + struct.pack(">I", 0),
        )
        assert bad != good
        with pytest.raises(CodecError, match="frozenset"):
            decode_message(bad)
        nested_key = b"d" + struct.pack(">I", 1) + b"d" + struct.pack(">I", 0) + b"N"
        template = encode_message(
            GossipMessage(ts=1, entry=TimestampedValue(1, None))
        )
        assert template.endswith(b"N")
        with pytest.raises(CodecError, match="dict"):
            decode_message(template[:-1] + nested_key)

    def test_nested_envelope_round_trips(self):
        inner = SnapshotMessage(reg=reg((1, b"x")), ssn=2)
        outer = EpochEnvelope(epoch=9, inner=EpochEnvelope(epoch=9, inner=inner))
        assert decode_message(encode_message(outer)) == outer

    @given(
        ts=st.integers(min_value=0, max_value=2**70),
        value=st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-(2**64), max_value=2**64),
            st.binary(max_size=64),
            st.text(max_size=32),
            st.floats(allow_nan=False),
            st.tuples(st.integers(), st.text(max_size=8)),
            st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
        ),
        ssn=st.integers(min_value=0, max_value=2**63),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_round_trip(self, ts, value, ssn):
        message = SnapshotAckMessage(
            reg=(TimestampedValue(ts, value), ts), ssn=ssn
        )
        assert decode_message(encode_message(message)) == message


class TestMalformedInput:
    def test_truncated(self):
        data = encode_message(WriteMessage(reg=reg((1, "x"))))
        with pytest.raises(CodecError):
            decode_message(data[:-3])

    def test_trailing_garbage(self):
        data = encode_message(WriteMessage(reg=reg((1, "x"))))
        with pytest.raises(CodecError):
            decode_message(data + b"junk")

    def test_unknown_tag(self):
        with pytest.raises(CodecError):
            decode_message(b"Qxxxx")

    def test_unknown_message_type(self):
        data = bytearray(b"M")
        name = b"NoSuchMessage"
        data += struct.pack(">I", len(name)) + name + struct.pack(">I", 0)
        with pytest.raises(CodecError):
            decode_message(bytes(data))

    def test_non_message_top_level(self):
        payload = b"i" + struct.pack(">I", 1) + b"5"
        with pytest.raises(CodecError):
            decode_message(payload)

    def test_unencodable_value(self):
        with pytest.raises(CodecError):
            encode_message(WriteMessage(reg=reg((1, object()))))

    def test_empty_input(self):
        with pytest.raises(CodecError):
            decode_message(b"")

    @pytest.mark.parametrize(
        "payload",
        [
            b"s" + struct.pack(">I", 2) + b"\xff\xfe",  # not utf-8
            b"V" + b"N" + b"N",  # TimestampedValue(ts=None)
            b"V" + b"i" + struct.pack(">I", 2) + b"-1" + b"N",  # negative ts
            b"R" + struct.pack(">I", 0),  # empty register array
        ],
        ids=["bad-utf8", "ts-none", "ts-negative", "empty-regarray"],
    )
    def test_constructor_rejections_are_codec_errors(self, payload):
        wrapped = (
            b"M"
            + struct.pack(">I", len(b"WriteMessage"))
            + b"WriteMessage"
            + struct.pack(">I", 1)
            + payload
        )
        with pytest.raises(CodecError):
            decode_message(wrapped)

    def test_non_ascii_type_name(self):
        with pytest.raises(CodecError):
            decode_message(b"M" + struct.pack(">I", 2) + b"\xc3\xa9")

    def test_nesting_bound_holds_on_both_sides(self):
        """12 000 nested one-element tuples fit one 60 kB datagram."""
        one_tuple = b"t" + struct.pack(">I", 1)
        with pytest.raises(CodecError, match="deeper"):
            decode_message(one_tuple * 12_000 + b"N")

        def nested(levels):
            value = None
            for _ in range(levels):
                value = (value,)
            return GossipMessage(ts=1, entry=TimestampedValue(1, value))

        deep = nested(MAX_NESTING - 2)  # message and pair are two levels
        assert decode_message(encode_message(deep)) == deep
        with pytest.raises(CodecError, match="deeper"):
            encode_message(nested(MAX_NESTING - 1))


class TestFuzz:
    """``decode_message`` returns a message or raises ``CodecError`` —
    nothing else may escape to the UDP transport's datagram callback."""

    INPUTS = 60_000

    @staticmethod
    def sample_field(rng, depth=0):
        choice = rng.randrange(13 if depth < 2 else 8)
        if choice == 0:
            return None
        if choice == 1:
            return rng.random() < 0.5
        if choice == 2:
            return rng.randrange(-5, 2**40)
        if choice == 3:
            return rng.random()
        if choice == 4:
            return rng.randbytes(rng.randrange(6))
        if choice == 5:
            return rng.choice(["", "snap", "héllo", "鍵"])
        if choice == 6:
            return TimestampedValue(rng.randrange(50), rng.randbytes(2))
        if choice == 7:
            return TaskDescriptor(rng.randrange(4), rng.randrange(9), (1, 2))
        nested = [TestFuzz.sample_field(rng, depth + 1) for _ in range(2)]
        if choice == 8:
            return tuple(nested)
        if choice == 9:
            try:
                return frozenset(nested)
            except TypeError:  # a map below: not a legal set member
                return tuple(nested)
        if choice == 10:
            return reg((1, nested[0]), (0, nested[1]))
        if choice == 12:
            return {"key": nested[0], rng.randrange(9): nested[1]}
        return GossipMessage(ts=3, entry=TimestampedValue(3, nested[0]))

    def test_mutated_encodings_decode_or_raise_codec_error(self):
        from repro.net import codec

        codec._ensure_registry()
        rng = random.Random(20190729)
        corpus = []
        for name in sorted(codec._MESSAGE_TYPES):
            message_cls = codec._MESSAGE_TYPES[name]
            for _ in range(4):
                message = message_cls(
                    **{
                        field.name: self.sample_field(rng)
                        for field in dataclasses.fields(message_cls)
                    }
                )
                encoded = encode_message(message)
                assert decode_message(encoded) == message
                corpus.append(encoded)

        decoded = rejected = 0
        for _ in range(self.INPUTS):
            base = rng.choice(corpus)
            mode = rng.randrange(4)
            if mode == 0:
                data = rng.randbytes(rng.randrange(1, 64))
            elif mode == 1:
                data = base[: rng.randrange(len(base))]
            else:
                mutated = bytearray(base)
                for _ in range(rng.randrange(1, 4)):
                    mutated[rng.randrange(len(mutated))] = rng.randrange(256)
                data = bytes(mutated)
            try:
                result = decode_message(data)
            except CodecError:
                rejected += 1
            else:
                assert isinstance(result, Message)
                decoded += 1
        # Both outcomes occur: a mutated payload byte still decodes, a
        # mutated tag or length does not.
        assert decoded > self.INPUTS // 100
        assert rejected > self.INPUTS // 2
