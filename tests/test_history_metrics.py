"""Unit tests for history recording, metrics, and message sizing."""

import dataclasses

import pytest
from reference_sizer import reference_measure_size

from repro import ClusterConfig, SimBackend
from repro.analysis.history import SNAPSHOT, WRITE, HistoryRecorder
from repro.analysis.metrics import MetricsCollector
from repro.core.base import SnapshotResult, WriteMessage
from repro.core.register import RegisterArray, TimestampedValue
from repro.errors import HistoryError
from repro.fault import TransientFaultInjector
from repro.net.message import HEADER_BYTES, INT_BYTES, measure_size


class TestHistoryRecorder:
    def test_invoke_respond_roundtrip(self):
        history = HistoryRecorder()
        op = history.invoke(0, WRITE, b"v", now=1.0)
        history.respond(op, result=1, now=2.0)
        record = history.records()[0]
        assert record.completed
        assert record.invoked_at == 1.0
        assert record.responded_at == 2.0
        assert record.result == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(HistoryError):
            HistoryRecorder().invoke(0, "scan")

    def test_read_is_a_kind(self):
        history = HistoryRecorder()
        op = history.invoke(2, "read", 1, now=1.0)
        (record,) = history.records()
        assert (record.op_id, record.kind, record.argument) == (op, "read", 1)

    def test_respond_unknown_op(self):
        with pytest.raises(HistoryError):
            HistoryRecorder().respond(99)

    def test_double_respond_rejected(self):
        history = HistoryRecorder()
        op = history.invoke(0, WRITE)
        history.respond(op)
        with pytest.raises(HistoryError):
            history.respond(op)

    def test_annotate(self):
        history = HistoryRecorder()
        op = history.invoke(0, SNAPSHOT)
        history.annotate(op, rounds=2)
        assert history.records()[0].meta["rounds"] == 2
        with pytest.raises(HistoryError):
            history.annotate(123, x=1)

    def test_filters(self):
        history = HistoryRecorder()
        w = history.invoke(0, WRITE, b"v")
        history.invoke(1, SNAPSHOT)
        history.respond(w, result=1)
        assert len(history.writes()) == 1
        assert len(history.snapshots()) == 1
        assert len(history.writes(completed_only=True)) == 1
        assert len(history.snapshots(completed_only=True)) == 0
        assert len(history.pending()) == 1
        assert len(history) == 2

    def test_precedes(self):
        history = HistoryRecorder()
        a = history.invoke(0, WRITE, now=0.0)
        history.respond(a, now=1.0)
        b = history.invoke(1, WRITE, now=2.0)
        history.respond(b, now=3.0)
        records = history.records()
        assert records[0].precedes(records[1])
        assert not records[1].precedes(records[0])

    def test_well_formedness_catches_overlap(self):
        history = HistoryRecorder()
        a = history.invoke(0, WRITE, now=0.0)
        history.invoke(0, WRITE, now=1.0)  # overlaps with a
        history.respond(a, now=2.0)
        with pytest.raises(HistoryError):
            history.validate_well_formed()

    def test_well_formedness_accepts_sequential(self):
        history = HistoryRecorder()
        a = history.invoke(0, WRITE, now=0.0)
        history.respond(a, now=1.0)
        b = history.invoke(0, SNAPSHOT, now=2.0)
        history.respond(b, now=3.0)
        history.validate_well_formed()

    def test_well_formedness_rejects_response_before_invocation(self):
        # A per-record check: it applies to concurrent-client histories too.
        history = HistoryRecorder()
        a = history.invoke(0, WRITE, now=5.0)
        history.respond(a, now=4.0)
        for sequential in (True, False):
            with pytest.raises(HistoryError, match="before its invocation"):
                history.validate_well_formed(sequential=sequential)

    def test_well_formedness_orders_each_node_by_invocation_instant(self):
        # Recorded out of time order, but sequential on the clock.
        history = HistoryRecorder()
        late = history.invoke(0, WRITE, now=5.0)
        history.respond(late, now=6.0)
        early = history.invoke(0, WRITE, now=1.0)
        history.respond(early, now=2.0)
        history.validate_well_formed()

    def test_records_are_in_op_id_order(self):
        history = HistoryRecorder()
        ids = [history.invoke(k % 3, WRITE, now=float(10 - k)) for k in range(10)]
        history.respond(ids[7], now=20.0)
        history.respond(ids[2], now=21.0)
        assert [r.op_id for r in history.records()] == ids
        assert [r.op_id for r in history.records(completed_only=True)] == [
            ids[2],
            ids[7],
        ]


class TestMetricsCollector:
    def test_record_and_snapshot(self):
        metrics = MetricsCollector()
        metrics.record_send(0, 1, "WRITE", 100)
        metrics.record_send(0, 2, "WRITE", 100)
        metrics.record_send(1, 0, "GOSSIP", 10)
        stats = metrics.snapshot()
        assert stats.total_messages == 3
        assert stats.messages("WRITE") == 2
        assert stats.bytes_for("GOSSIP") == 10
        assert stats.total_bytes == 210

    def test_window_measures_delta(self):
        metrics = MetricsCollector()
        metrics.record_send(0, 1, "WRITE", 50)
        with metrics.window() as window:
            metrics.record_send(0, 1, "SNAPSHOT", 70)
            metrics.record_send(0, 1, "SNAPSHOT", 70)
        assert window.stats.messages("SNAPSHOT") == 2
        assert window.stats.messages("WRITE") == 0
        assert window.stats.total_bytes == 140

    def test_per_sender_counts(self):
        metrics = MetricsCollector()
        metrics.record_send(3, 1, "WRITE", 10)
        metrics.record_send(3, 2, "GOSSIP", 10)
        assert metrics.sender_messages(3) == 2
        assert metrics.sender_messages(3, "WRITE") == 1
        assert metrics.sender_messages(1) == 0

    def test_failure_counters(self):
        metrics = MetricsCollector()
        metrics.record_loss()
        metrics.record_capacity_drop()
        metrics.record_duplication()
        stats = metrics.snapshot()
        assert (stats.dropped_loss, stats.dropped_capacity, stats.duplicated) == (
            1,
            1,
            1,
        )

    def test_record_send_disabled_is_a_no_op(self):
        metrics = MetricsCollector()
        metrics.record_send(0, 1, "WRITE", 100)
        metrics.disable()
        metrics.record_send(0, 1, "WRITE", 100)
        metrics.record_send(2, 1, "GOSSIP", 10)
        assert metrics.snapshot().total_messages == 1
        assert metrics.sender_messages(0) == 1
        assert metrics.sender_messages(2) == 0
        metrics.enable()
        metrics.record_send(2, 1, "GOSSIP", 10)
        assert metrics.sender_messages(2) == 1

    def test_sender_totals_match_per_kind_sums(self):
        metrics = MetricsCollector()
        for _ in range(3):
            metrics.record_send(5, 1, "WRITE", 10)
        for _ in range(2):
            metrics.record_send(5, 2, "GOSSIP", 10)
        metrics.record_send(6, 5, "WRITE", 10)
        # The no-kind total is kept as a running per-sender counter (O(1)
        # to read); it must agree with summing the per-kind breakdown.
        assert metrics.sender_messages(5) == 5
        assert metrics.sender_messages(5) == sum(
            metrics.sender_messages(5, kind) for kind in ("WRITE", "GOSSIP")
        )
        assert metrics.sender_messages(6) == 1

    def test_window_stats_before_close_raises(self):
        from repro.errors import ObservabilityError

        metrics = MetricsCollector()
        with metrics.window() as window:
            assert not window.closed
            with pytest.raises(ObservabilityError, match="before the window"):
                window.stats
        assert window.closed
        assert window.stats.total_messages == 0


class TestMessageSizing:
    def test_primitives(self):
        assert measure_size(None) == 1
        assert measure_size(True) == 1
        assert measure_size(7) == INT_BYTES
        assert measure_size(1.5) == 8
        assert measure_size(b"abcd") == 4
        assert measure_size("héllo") == len("héllo".encode())

    def test_register_types(self):
        entry = TimestampedValue(1, b"xy")
        assert measure_size(entry) == INT_BYTES + 2
        reg = RegisterArray([entry, TimestampedValue(0, None)])
        assert measure_size(reg) == (INT_BYTES + 2) + (INT_BYTES + 1)

    def test_containers(self):
        assert measure_size([1, 2]) == 2 * INT_BYTES
        assert measure_size({1: b"ab"}) == INT_BYTES + 2

    def test_message_wire_size_includes_header(self):
        reg = RegisterArray(3)
        message = WriteMessage(reg=reg)
        assert message.wire_size() == HEADER_BYTES + measure_size(reg)
        assert message.kind == "WRITE"

    def test_gossip_smaller_than_write_payload(self):
        """The O(ν) vs O(n·ν) contrast the paper claims (Contribution 1)."""
        from repro.core.ss_nonblocking import GossipMessage

        n, nu = 10, 64
        reg = RegisterArray(
            [TimestampedValue(1, bytes(nu)) for _ in range(n)]
        )
        write = WriteMessage(reg=reg)
        gossip = GossipMessage(entry=reg[0])
        assert gossip.wire_size() < write.wire_size() / (n / 2)

    def test_shared_entry_is_measured_once(self):
        """copy()/merge_from pass the pair by reference, so the size a
        pair remembers serves every array and message that carries it."""

        class CountingBytes(bytes):
            lengths_taken = 0

            def __len__(self):
                CountingBytes.lengths_taken += 1
                return super().__len__()

        entry = TimestampedValue(2, CountingBytes(b"payload"))
        writer = RegisterArray(3)
        writer[0] = entry
        copied = writer.copy()
        receiver = RegisterArray(3)
        receiver.merge_from(writer)
        assert copied[0] is entry and receiver[0] is entry

        sizes = [
            WriteMessage(reg=reg).wire_size()
            for reg in (writer, copied, receiver, receiver.copy())
        ]
        assert CountingBytes.lengths_taken == 1
        assert len(set(sizes)) == 1
        assert sizes[0] == HEADER_BYTES + reference_measure_size(writer)

    def test_entry_memo_is_not_part_of_equality(self):
        small = TimestampedValue(1, (True, 2))
        large = TimestampedValue(1, (1, 2))
        assert small == large and hash(small) == hash(large)
        assert measure_size(small) == INT_BYTES + 1 + INT_BYTES
        assert measure_size(large) == INT_BYTES + 2 * INT_BYTES
        # Measured or not, the pair compares, hashes and prints the same.
        fresh = TimestampedValue(1, (1, 2))
        assert fresh == large and hash(fresh) == hash(large)
        assert repr(fresh) == repr(large) == "TimestampedValue(ts=1, value=(1, 2))"

    def test_replace_yields_unmeasured_instances(self):
        entry = TimestampedValue(1, b"four")
        message = WriteMessage(reg=RegisterArray([entry]))
        assert message.wire_size() == HEADER_BYTES + INT_BYTES + 4
        wider = RegisterArray([TimestampedValue(1, b"sixteen bytes...")])
        replaced = dataclasses.replace(message, reg=wider)
        assert "_wire_size" not in replaced.__dict__
        assert replaced.wire_size() == HEADER_BYTES + INT_BYTES + 16
        assert message.wire_size() == HEADER_BYTES + INT_BYTES + 4
        # The same holds one level down, for the pair's own memo.
        assert measure_size(dataclasses.replace(entry, value=b"sixty")) == (
            INT_BYTES + 5
        )

    def test_scrambled_in_flight_packet_reports_corrupted_size(self):
        cluster = SimBackend("ss-nonblocking", ClusterConfig(n=4, seed=3))
        cluster.write_sync(0, bytes(100))
        network = cluster.network
        for _ in range(200):
            before = [
                m for c in network.channels() for m in c.in_flight_messages()
            ]
            if any(m.kind == "GOSSIP" for m in before):
                break
            cluster.kernel.run(max_events=1)
        before_ids = {id(m) for m in before}
        assert all(
            m.wire_size() == HEADER_BYTES + reference_measure_size(m)
            for m in before
        )

        TransientFaultInjector(cluster, seed=1).scramble_channels(
            drop_probability=0.0
        )
        after = [m for c in network.channels() for m in c.in_flight_messages()]
        replaced = [m for m in after if id(m) not in before_ids]
        assert replaced, "no in-flight gossip was scrambled"
        for message in after:
            assert message.wire_size() == HEADER_BYTES + reference_measure_size(
                message
            )
        assert any(m.entry.value == b"\xba\xad" for m in replaced)

    def test_snapshot_result(self):
        reg = RegisterArray(2)
        reg[0] = TimestampedValue(3, "x")
        result = SnapshotResult.from_registers(reg)
        assert result.values == ("x", None)
        assert result.vector_clock == (3, 0)
        assert len(result) == 2
