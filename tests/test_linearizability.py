"""Unit tests for the sweep checker and the exhaustive oracle on hand-built histories."""

import pytest
from reference_checker import check_exhaustive

from repro.analysis.history import READ, SNAPSHOT, WRITE, HistoryRecorder
from repro.analysis.linearizability import check_snapshot_history
from repro.core.base import SnapshotResult
from repro.core.register import TimestampedValue
from repro.errors import HistoryError


def snap_result(vc, values=None):
    if values is None:
        values = tuple(f"v{ts}" if ts else None for ts in vc)
    return SnapshotResult(values=tuple(values), vector_clock=tuple(vc))


def entry(ts, value=None):
    """What a read returned; the value defaults to the one write ts wrote."""
    if value is None and ts:
        value = f"v{ts}"
    return TimestampedValue(ts, value)


def build(ops):
    """Build a history from tuples (node, kind, invoked, responded, result, arg)."""
    history = HistoryRecorder()
    for node, kind, invoked, responded, result, arg in ops:
        op = history.invoke(node, kind, arg, now=invoked)
        if responded is not None:
            history.respond(op, result=result, now=responded)
    return history.records()


class TestSpecializedChecker:
    def test_empty_history_ok(self):
        assert check_snapshot_history([], n=3).ok

    def test_simple_sequential_history(self):
        records = build(
            [
                (0, WRITE, 0.0, 1.0, 1, "v1"),
                (1, SNAPSHOT, 2.0, 3.0, snap_result((1, 0)), None),
                (1, WRITE, 4.0, 5.0, 1, "v1"),
                (0, SNAPSHOT, 6.0, 7.0, snap_result((1, 1)), None),
            ]
        )
        report = check_snapshot_history(records, n=2)
        assert report.ok, report.summary()

    def test_snapshot_missing_preceding_write(self):
        records = build(
            [
                (0, WRITE, 0.0, 1.0, 1, "a"),
                (1, SNAPSHOT, 2.0, 3.0, snap_result((0, 0)), None),
            ]
        )
        report = check_snapshot_history(records, n=2)
        assert not report.ok
        assert "misses write" in report.summary()

    def test_snapshot_sees_future_write(self):
        records = build(
            [
                (1, SNAPSHOT, 0.0, 1.0, snap_result((1, 0)), None),
                (0, WRITE, 2.0, 3.0, 1, "a"),
            ]
        )
        report = check_snapshot_history(records, n=2)
        assert not report.ok
        assert "future write" in report.summary()

    def test_incomparable_snapshots_rejected(self):
        records = build(
            [
                (0, WRITE, 0.0, 10.0, 1, "v1"),
                (1, WRITE, 0.0, 10.0, 1, "v1"),
                (2, SNAPSHOT, 0.0, 10.0, snap_result((1, 0, 0, 0)), None),
                (3, SNAPSHOT, 0.0, 10.0, snap_result((0, 1, 0, 0)), None),
            ]
        )
        report = check_snapshot_history(records, n=4)
        assert not report.ok
        assert "incomparable" in report.summary()

    def test_realtime_order_between_snapshots(self):
        records = build(
            [
                (0, WRITE, 0.0, 1.0, 1, "a"),
                (1, SNAPSHOT, 2.0, 3.0, snap_result((1, 0)), None),
                (1, SNAPSHOT, 4.0, 5.0, snap_result((0, 0)), None),
            ]
        )
        report = check_snapshot_history(records, n=2)
        assert not report.ok

    def test_nonmonotonic_writer_timestamps(self):
        records = build(
            [
                (0, WRITE, 0.0, 1.0, 2, "a"),
                (0, WRITE, 2.0, 3.0, 1, "b"),
            ]
        )
        report = check_snapshot_history(records, n=1)
        assert not report.ok
        assert "not increasing" in report.summary()

    def test_value_mismatch_detected(self):
        records = build(
            [
                (0, WRITE, 0.0, 1.0, 1, "real"),
                (1, SNAPSHOT, 2.0, 3.0, snap_result((1, 0), ("fake", None)), None),
            ]
        )
        assert not check_snapshot_history(records, n=2).ok
        assert check_snapshot_history(records, n=2, check_values=False).ok

    def test_bottom_with_value_detected(self):
        records = build(
            [(1, SNAPSHOT, 0.0, 1.0, snap_result((0, 0), ("junk", None)), None)]
        )
        assert not check_snapshot_history(records, n=2).ok

    def test_wrong_vector_length_raises(self):
        records = build(
            [(0, SNAPSHOT, 0.0, 1.0, snap_result((0, 0)), None)]
        )
        with pytest.raises(HistoryError):
            check_snapshot_history(records, n=3)

    def test_concurrent_ops_any_order_ok(self):
        # Write and snapshot fully overlap; snapshot may or may not see it.
        for vc in [(0, 0), (1, 0)]:
            records = build(
                [
                    (0, WRITE, 0.0, 10.0, 1, "v1"),
                    (1, SNAPSHOT, 0.0, 10.0, snap_result(vc), None),
                ]
            )
            assert check_snapshot_history(records, n=2).ok

    def test_equal_instants_are_concurrent(self):
        # Real-time order is strict: a response and an invocation at the
        # same instant leave the two operations concurrent, both ways.
        records = build(
            [
                (0, WRITE, 0.0, 2.0, 1, "v1"),
                (1, SNAPSHOT, 2.0, 3.0, snap_result((0, 0)), None),
                (1, SNAPSHOT, 4.0, 5.0, snap_result((1, 1)), None),
                (1, WRITE, 5.0, 6.0, 1, "v1"),
            ]
        )
        assert check_snapshot_history(records, n=2).ok

    def test_one_violation_per_operation_names_the_frontier_witness(self):
        # Three writes precede the snapshot; only the newest one it
        # misses (the frontier) is reported, once.
        records = build(
            [
                (0, WRITE, 0.0, 1.0, 1, "v1"),
                (0, WRITE, 2.0, 3.0, 2, "v2"),
                (0, WRITE, 4.0, 5.0, 3, "v3"),
                (1, SNAPSHOT, 6.0, 7.0, snap_result((0, 0)), None),
            ]
        )
        report = check_snapshot_history(records, n=2)
        assert report.violations == [
            "snapshot 4 misses write 3 (node 0, ts 3) that preceded it; "
            "saw ts 0"
        ]

    def test_pending_and_aborted_operations_constrain_nothing(self):
        history = HistoryRecorder()
        pending = history.invoke(0, WRITE, "v1", now=0.0)
        aborted = history.invoke(1, WRITE, "v1", now=0.0)
        history.abort(aborted, now=1.0)
        lost = history.invoke(2, SNAPSHOT, now=0.0)
        history.abort(lost, now=1.0)
        for vc in [(0, 0, 0), (1, 0, 0), (1, 1, 0)]:
            op = history.invoke(2, SNAPSHOT, now=2.0)
            history.respond(op, result=snap_result(vc), now=3.0)
        assert pending in {r.op_id for r in history.pending()}
        assert check_snapshot_history(history.records(), n=3).ok

    def test_response_before_invocation_raises(self):
        records = build([(0, WRITE, 5.0, 4.0, 1, "v1")])
        with pytest.raises(HistoryError, match="before its invocation"):
            check_snapshot_history(records, n=1)

    def test_completed_snapshot_without_result_raises(self):
        records = build([(0, SNAPSHOT, 0.0, 1.0, None, None)])
        with pytest.raises(HistoryError, match="without a result"):
            check_snapshot_history(records, n=1)

    def test_write_by_unknown_node_raises(self):
        records = build([(3, WRITE, 0.0, 1.0, 1, "v1")])
        with pytest.raises(HistoryError, match="outside"):
            check_snapshot_history(records, n=3)


class TestReadRecords:
    """A read of register j is a one-entry snapshot: conditions 4-6 on
    entry j alone, checked by the sweep and placed by the exhaustive
    search between write t and write t + 1 of node j."""

    #: write 1 by node 0, then — strictly later — a second, overlapping
    #: nothing; operations under test go after t = 2.
    WRITES = [(0, WRITE, 0.0, 1.0, 1, "v1"), (0, WRITE, 2.0, 3.0, 2, "v2")]

    def verdict(self, ops, n=2):
        records = build(ops)
        report = check_snapshot_history(records, n=n)
        # Necessary conditions: whatever the sweep rejects, the
        # exhaustive search rejects too.
        assert report.ok or not check_exhaustive(records, n=n)
        return report

    def test_reads_in_real_time_order_accepted(self):
        report = self.verdict(
            self.WRITES
            + [
                (1, READ, 4.0, 5.0, entry(2), 0),
                (1, SNAPSHOT, 6.0, 7.0, snap_result((2, 0)), None),
                (0, READ, 8.0, 9.0, entry(2), 0),
                (0, READ, 8.0, 9.0, entry(0), 1),
            ]
        )
        assert report.ok, report.summary()
        assert check_exhaustive(build(self.WRITES + [(1, READ, 4.0, 5.0, entry(2), 0)]), n=2)

    def test_read_concurrent_with_a_write_may_return_either(self):
        for seen in (1, 2):
            ops = self.WRITES + [(1, READ, 1.5, 3.5, entry(seen), 0)]
            assert self.verdict(ops).ok
            assert check_exhaustive(build(ops), n=2)

    def test_read_missing_a_preceding_write(self):
        report = self.verdict(self.WRITES + [(1, READ, 4.0, 5.0, entry(1), 0)])
        assert "read 3 misses write 2" in report.summary()

    def test_read_below_an_earlier_read(self):
        report = self.verdict(
            self.WRITES[:1]
            + [
                (0, WRITE, 2.0, 9.0, 2, "v2"),  # still in flight
                (1, READ, 3.0, 4.0, entry(2), 0),
                (1, READ, 5.0, 6.0, entry(1), 0),
            ]
        )
        assert "read 4 (after 3 in real time) returned an older entry" in (
            report.summary()
        )

    def test_read_below_an_earlier_snapshot(self):
        report = self.verdict(
            self.WRITES[:1]
            + [
                (0, WRITE, 2.0, 9.0, 2, "v2"),
                (1, SNAPSHOT, 3.0, 4.0, snap_result((2, 0)), None),
                (1, READ, 5.0, 6.0, entry(1), 0),
            ]
        )
        assert "older entry" in report.summary()

    def test_snapshot_below_an_earlier_read(self):
        report = self.verdict(
            self.WRITES[:1]
            + [
                (0, WRITE, 2.0, 9.0, 2, "v2"),
                (1, READ, 3.0, 4.0, entry(2), 0),
                (1, SNAPSHOT, 5.0, 6.0, snap_result((1, 0)), None),
            ]
        )
        assert "snapshot 4 (after 3 in real time) returned an older vector" in (
            report.summary()
        )

    def test_read_of_a_write_invoked_after_it_responded(self):
        report = self.verdict(
            [(1, READ, 0.0, 1.0, entry(1), 0), (0, WRITE, 2.0, 3.0, 1, "v1")]
        )
        assert "read 1 saw future write 2" in report.summary()

    def test_read_value_disagrees_with_the_write_it_cites(self):
        # (The exhaustive search orders timestamps only, not values.)
        report = check_snapshot_history(
            build(self.WRITES[:1] + [(1, READ, 2.0, 3.0, entry(1, "other"), 0)]),
            n=2,
        )
        assert "read 2: entry 0 cites write ts 1" in report.summary()
        bottom = check_snapshot_history(
            build([(1, READ, 0.0, 1.0, entry(0, "ghost"), 0)]), n=2
        )
        assert "ts 0 but non-⊥ value" in bottom.summary()

    def test_pending_and_aborted_reads_constrain_nothing(self):
        history = HistoryRecorder()
        done = history.invoke(0, WRITE, "v1", now=0.0)
        history.respond(done, result=1, now=1.0)
        history.invoke(1, READ, 0, now=2.0)  # never responds
        history.abort(history.invoke(2, READ, 0, now=2.0), now=3.0)
        assert check_snapshot_history(history.records(), n=3).ok

    def test_malformed_read_records_raise(self):
        with pytest.raises(HistoryError, match="without a result"):
            check_snapshot_history(build([(0, READ, 0.0, 1.0, None, 0)]), n=1)
        with pytest.raises(HistoryError, match="outside"):
            check_snapshot_history(build([(0, READ, 0.0, 1.0, entry(0), 2)]), n=2)


class TestExhaustiveChecker:
    def test_simple_ok(self):
        records = build(
            [
                (0, WRITE, 0.0, 1.0, 1, "a"),
                (1, SNAPSHOT, 2.0, 3.0, snap_result((1, 0)), None),
            ]
        )
        assert check_exhaustive(records, n=2)

    def test_missed_write_rejected(self):
        records = build(
            [
                (0, WRITE, 0.0, 1.0, 1, "a"),
                (1, SNAPSHOT, 2.0, 3.0, snap_result((0, 0)), None),
            ]
        )
        assert not check_exhaustive(records, n=2)

    def test_concurrent_snapshot_both_orders(self):
        records = build(
            [
                (0, WRITE, 0.0, 10.0, 1, "a"),
                (1, SNAPSHOT, 0.0, 10.0, snap_result((0, 0)), None),
            ]
        )
        assert check_exhaustive(records, n=2)

    def test_incomparable_snapshots_rejected(self):
        records = build(
            [
                (0, WRITE, 0.0, 10.0, 1, "v1"),
                (1, WRITE, 0.0, 10.0, 1, "v1"),
                (2, SNAPSHOT, 0.0, 10.0, snap_result((1, 0, 0, 0)), None),
                (3, SNAPSHOT, 0.0, 10.0, snap_result((0, 1, 0, 0)), None),
            ]
        )
        assert not check_exhaustive(records, n=4)

    def test_large_history_rejected(self):
        records = build(
            [(0, WRITE, float(i), float(i) + 0.5, i + 1, "x") for i in range(25)]
        )
        with pytest.raises(HistoryError):
            check_exhaustive(records, n=1)

    def test_agrees_with_specialized_on_valid(self):
        records = build(
            [
                (0, WRITE, 0.0, 1.0, 1, "v1"),
                (1, WRITE, 0.5, 1.5, 1, "v1"),
                (2, SNAPSHOT, 2.0, 3.0, snap_result((1, 1, 0)), None),
                (0, WRITE, 3.5, 4.5, 2, "v2"),
                (2, SNAPSHOT, 5.0, 6.0, snap_result((2, 1, 0)), None),
            ]
        )
        assert check_exhaustive(records, n=3)
        assert check_snapshot_history(records, n=3).ok
