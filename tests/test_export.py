"""Tests for JSON export/import of histories and traces."""

import json

import pytest

from repro import ClusterConfig, SimBackend
from repro.analysis.export import (
    history_from_json,
    history_to_json,
    trace_from_json,
    trace_to_json,
)
from repro.analysis.linearizability import check_snapshot_history
from repro.analysis.spacetime import render_spacetime
from repro.analysis.trace import MessageTrace
from repro.errors import HistoryError


def run_cluster():
    cluster = SimBackend("ss-nonblocking", ClusterConfig(n=3, seed=0))
    trace = MessageTrace(cluster.network)
    cluster.write_sync(0, b"binary\x00value")
    cluster.write_sync(1, ("tuple", 2))
    cluster.snapshot_sync(2)
    return cluster, trace


class TestHistoryExport:
    def test_round_trip_preserves_checkability(self):
        cluster, _ = run_cluster()
        data = history_to_json(cluster.history, indent=2)
        records = history_from_json(data)
        assert len(records) == len(cluster.history.records())
        report = check_snapshot_history(records, 3)
        assert report.ok, report.summary()

    def test_values_round_trip(self):
        cluster, _ = run_cluster()
        records = history_from_json(history_to_json(cluster.history))
        writes = [r for r in records if r.kind == "write"]
        assert writes[0].argument == b"binary\x00value"
        assert writes[1].argument == ("tuple", 2)
        snaps = [r for r in records if r.kind == "snapshot"]
        assert snaps[0].result.values[0] == b"binary\x00value"
        assert snaps[0].result.vector_clock == (1, 1, 0)

    def test_aborted_flag_preserved(self):
        cluster, _ = run_cluster()
        op = cluster.history.invoke(0, "write", "x", now=99.0)
        cluster.history.abort(op, now=100.0)
        records = history_from_json(history_to_json(cluster.history))
        assert records[-1].aborted

    def test_malformed_json_rejected(self):
        with pytest.raises(HistoryError):
            history_from_json("{not json")

    def test_meta_is_none_until_annotated_and_exports_as_a_dict(self):
        cluster, _ = run_cluster()
        first, second = cluster.history.records()[:2]
        cluster.history.annotate(second.op_id, rounds=2)
        assert first.meta is None
        payload = json.loads(history_to_json(cluster.history))
        assert payload[0]["meta"] == {} and payload[1]["meta"] == {"rounds": 2}
        records = history_from_json(history_to_json(cluster.history))
        assert records[:2] == [first, second]


class TestTraceExport:
    def test_round_trip_renders_identically(self):
        _, trace = run_cluster()
        rebuilt = trace_from_json(trace_to_json(trace))
        assert len(rebuilt) == len(trace)
        assert render_spacetime(rebuilt, 3) == render_spacetime(trace, 3)

    def test_kinds_preserved(self):
        _, trace = run_cluster()
        rebuilt = trace_from_json(trace_to_json(trace))
        assert rebuilt.kinds() == trace.kinds()
