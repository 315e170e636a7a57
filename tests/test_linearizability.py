"""Unit tests for the sweep checker and the exhaustive oracle on hand-built histories."""

import pytest
from reference_checker import check_exhaustive

from repro.analysis.history import SNAPSHOT, WRITE, HistoryRecorder
from repro.analysis.linearizability import check_snapshot_history
from repro.core.base import SnapshotResult
from repro.errors import HistoryError


def snap_result(vc, values=None):
    if values is None:
        values = tuple(f"v{ts}" if ts else None for ts in vc)
    return SnapshotResult(values=tuple(values), vector_clock=tuple(vc))


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
