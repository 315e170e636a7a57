"""Golden-structure tests for the observability exporters.

The Chrome-trace structure is validated by the same checker CI runs
against ``--trace-out`` files (``benchmarks/check_trace_schema.py``), so
the test suite and the CI gate enforce a single schema.
"""

import json
import sys
from pathlib import Path

import pytest

from repro import ClusterConfig, SimBackend
from repro.obs import session

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from check_trace_schema import validate  # noqa: E402


@pytest.fixture(scope="module")
def observed_run():
    """One small lossless run captured under an ambient session."""
    with session() as obs:
        cluster = SimBackend("ss-nonblocking", ClusterConfig(n=3, seed=1))
        cluster.write_sync(0, b"a")
        cluster.write_sync(1, b"b")
        cluster.snapshot_sync(2)
        cluster.read_sync(2, 0)
    obs.finish()
    return obs


class TestChromeTrace:
    def test_schema_checker_accepts(self, observed_run):
        payload = observed_run.chrome_trace()
        assert validate(payload) == []

    def test_schema_checker_round_trips_through_json(self, observed_run):
        payload = json.loads(json.dumps(observed_run.chrome_trace()))
        assert validate(payload) == []

    def test_per_node_tracks(self, observed_run):
        events = observed_run.chrome_trace()["traceEvents"]
        thread_names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert thread_names == {
            (0, 0): "p0",
            (0, 1): "p1",
            (0, 2): "p2",
            (0, 3): "run",
        }
        process_names = [
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert process_names == ["cluster0 (ss-nonblocking)"]

    def test_op_slices_carry_span_args(self, observed_run):
        events = observed_run.chrome_trace()["traceEvents"]
        ops = [e for e in events if e["ph"] == "X" and e.get("cat") == "op"]
        assert [e["name"] for e in ops] == ["write", "write", "snapshot", "read"]
        read = observed_run.recorder.ops()[-1]
        assert [label for _, label in read.phases] == ["read.quorum_round"]
        assert read.messages_by_kind["READ"] == read.messages_by_kind["READack"]
        for event in ops:
            assert event["args"]["status"] == "ok"
            assert event["args"]["op_id"] is not None
            assert event["dur"] >= 1.0
        run_slices = [
            e for e in events if e["ph"] == "X" and e.get("cat") == "run"
        ]
        assert len(run_slices) == 1
        assert run_slices[0]["tid"] == 3  # the run track sits after the nodes

    def test_flow_arrows_pair_sends_with_deliveries(self, observed_run):
        events = observed_run.chrome_trace()["traceEvents"]
        starts = {e["id"] for e in events if e["ph"] == "s"}
        finishes = {e["id"] for e in events if e["ph"] == "f"}
        assert starts, "expected flow starts for network sends"
        assert finishes, "expected flow finishes for deliveries"
        # Every finish matches a start; starts without a finish are the
        # messages still in flight when the run stopped.
        assert finishes <= starts
        for event in events:
            if event["ph"] == "f":
                assert event["bp"] == "e"

    def test_other_data_describes_clusters(self, observed_run):
        payload = observed_run.chrome_trace()
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["clusters"] == [
            {"index": 0, "algorithm": "ss-nonblocking", "n": 3}
        ]


class TestJsonl:
    def test_every_line_parses_and_types_are_complete(self, observed_run):
        lines = observed_run.jsonl().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "session"
        types = {record["type"] for record in records}
        assert types == {"session", "span", "message", "health", "metric"}
        spans = [r for r in records if r["type"] == "span"]
        assert {s["name"] for s in spans} == {"run", "write", "snapshot", "read"}
        metrics = {r["name"] for r in records if r["type"] == "metric"}
        assert "net.messages_total" in metrics
        assert "ops.total" in metrics


class TestSummary:
    def test_summary_renders_operations_and_metrics(self, observed_run):
        text = observed_run.summary()
        assert "operations" in text
        assert "write" in text and "snapshot" in text
        assert "metrics" in text
        assert "kernel.events_dispatched" in text

    def test_empty_session_summary(self):
        from repro.obs import Observability

        # No clusters and no spans: only the ops.* gauges (all zero).
        text = Observability().summary()
        assert "operations" not in text
        assert "ops.total" in text
