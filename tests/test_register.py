"""Unit tests for the register lattice types."""

import pytest

from repro.core.register import BOTTOM, RegisterArray, TimestampedValue, ack_clock
from repro.errors import ConfigurationError


class TestTimestampedValue:
    def test_bottom_is_minimal(self):
        assert BOTTOM.is_bottom
        assert BOTTOM.precedes_or_equals(TimestampedValue(1, "x"))
        assert not TimestampedValue(1, "x").precedes_or_equals(BOTTOM)

    def test_order_ignores_value(self):
        a = TimestampedValue(3, "a")
        b = TimestampedValue(3, "b")
        assert a.precedes_or_equals(b)
        assert b.precedes_or_equals(a)

    def test_max_with_keeps_larger_ts(self):
        low = TimestampedValue(1, "low")
        high = TimestampedValue(2, "high")
        assert low.max_with(high) is high
        assert high.max_with(low) is high

    def test_max_with_is_left_biased_on_ties(self):
        a = TimestampedValue(2, "a")
        b = TimestampedValue(2, "b")
        assert a.max_with(b) is a

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ConfigurationError):
            TimestampedValue(-1, "x")

    def test_immutability(self):
        value = TimestampedValue(1, "x")
        with pytest.raises(AttributeError):
            value.ts = 5  # type: ignore[misc]


class TestRegisterArray:
    def test_initial_state_is_all_bottom(self):
        reg = RegisterArray(4)
        assert len(reg) == 4
        assert all(entry.is_bottom for entry in reg)
        assert reg.vector_clock() == (0, 0, 0, 0)

    def test_constructor_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            RegisterArray(0)
        with pytest.raises(ConfigurationError):
            RegisterArray([])

    def test_constructor_rejects_non_values(self):
        with pytest.raises(ConfigurationError):
            RegisterArray([1, 2])  # type: ignore[list-item]

    def test_setitem_type_checked(self):
        reg = RegisterArray(2)
        with pytest.raises(ConfigurationError):
            reg[0] = (1, "x")  # type: ignore[call-overload]

    def test_merge_from_is_pointwise_max(self):
        a = RegisterArray(3)
        b = RegisterArray(3)
        a[0] = TimestampedValue(5, "a0")
        b[0] = TimestampedValue(3, "b0")
        b[1] = TimestampedValue(7, "b1")
        a.merge_from(b)
        assert a[0].value == "a0"
        assert a[1].value == "b1"
        assert a[2].is_bottom

    def test_merge_entry(self):
        reg = RegisterArray(2)
        reg.merge_entry(1, TimestampedValue(4, "x"))
        assert reg[1].ts == 4
        reg.merge_entry(1, TimestampedValue(2, "older"))
        assert reg[1].value == "x"

    def test_precedes_or_equals_pointwise(self):
        a = RegisterArray(2)
        b = RegisterArray(2)
        b[0] = TimestampedValue(1, "x")
        assert a.precedes_or_equals(b)
        assert not b.precedes_or_equals(a)

    def test_incomparable_arrays(self):
        a = RegisterArray(2)
        b = RegisterArray(2)
        a[0] = TimestampedValue(1, "x")
        b[1] = TimestampedValue(1, "y")
        assert not a.precedes_or_equals(b)
        assert not b.precedes_or_equals(a)

    def test_strictly_precedes(self):
        a = RegisterArray(2)
        b = RegisterArray(2)
        assert not a.strictly_precedes(b)  # equal
        b[0] = TimestampedValue(1, "x")
        assert a.strictly_precedes(b)
        assert not b.strictly_precedes(a)

    def test_copy_is_independent(self):
        a = RegisterArray(2)
        b = a.copy()
        b[0] = TimestampedValue(9, "mut")
        assert a[0].is_bottom
        assert a != b

    def test_equality_and_hash(self):
        a = RegisterArray(2)
        b = RegisterArray(2)
        assert a == b
        assert hash(a) == hash(b)
        a[0] = TimestampedValue(1, "x")
        assert a != b

    def test_size_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            RegisterArray(2).merge_from(RegisterArray(3))
        with pytest.raises(ConfigurationError):
            RegisterArray(2).precedes_or_equals(RegisterArray(3))

    def test_vector_clock_and_values(self):
        reg = RegisterArray(3)
        reg[1] = TimestampedValue(2, "v1")
        assert reg.vector_clock() == (0, 2, 0)
        assert reg.snapshot_values() == (None, "v1", None)
        assert reg.max_timestamp() == 2

    def test_ack_items_are_relative_to_the_request(self):
        server = RegisterArray(
            [TimestampedValue(3, "a"), TimestampedValue(5, "b"), BOTTOM]
        )
        request = RegisterArray(
            [TimestampedValue(3, "a"), TimestampedValue(2, "old"), BOTTOM]
        )
        items = server.reply_to(request)
        assert items == (3, TimestampedValue(5, "b"), 0)
        assert ack_clock(items) == server.vector_clock()
        # A requester lowered since its request adopts shipped entries
        # only; the next round's ack ships the rest.
        requester = RegisterArray(3)
        requester.merge_items(items)
        assert requester.vector_clock() == (0, 5, 0)
        with pytest.raises(ConfigurationError):
            requester.merge_items(items[:2])

    def test_merge_is_idempotent(self):
        a = RegisterArray(3)
        a[0] = TimestampedValue(5, "x")
        before = a.copy()
        a.merge_from(before)
        assert a == before

    def test_equality_with_other_types(self):
        assert RegisterArray(2) != "not a register"
