"""Tail-latency attribution: per-op blame, aggregates, and the PR's
acceptance scenario (a throttled node dominates the blame table and
raises a limping alert naming it)."""

import json

import pytest

from repro.backend.base import run_on_backend
from repro.config import scenario_config
from repro.backend.sim import SimBackend
from repro.load import LoadSpec, run_load
from repro.load.driver import LoadGenerator
from repro.obs.alerts import AlertEngine
from repro.obs.attribution import (
    QuorumRound,
    attribute_ops,
    blame_aggregate,
    blame_rows,
    dominant_phases,
    merge_blame,
    slowest_node,
)
from repro.obs.observe import Observability, session


class TestQuorumRound:
    def test_records_first_reply_only(self):
        rnd = QuorumRound(kind="WRITEack", node=0, start=10.0, threshold=3)
        rnd.record(1, 11.0)
        rnd.record(1, 15.0)  # duplicate ignored
        rnd.record(2, 12.5)
        assert rnd.replies == {1: 1.0, 2: 2.5}
        assert rnd.slowest() == (2, 2.5)

    def test_duration_requires_completion(self):
        rnd = QuorumRound(kind="SNAPSHOTack", node=1, start=5.0, threshold=2)
        assert rnd.duration is None
        rnd.end = 7.5
        rnd.completer = 2
        assert rnd.duration == 2.5
        as_dict = rnd.to_dict()
        assert as_dict["completer"] == 2
        assert as_dict["replies"] == {}


class TestBlameAggregate:
    def test_merge_blame_folds_counts_and_maxima(self):
        into = {
            "attributed": 2,
            "nodes": {1: {
                "blamed": 2, "completed": 1, "replies": 4,
                "latency_sum": 8.0, "latency_max": 3.0,
            }},
        }
        other = {
            "attributed": 3,
            # String keys survive a JSON round trip; merge must coerce.
            "nodes": {"1": {
                "blamed": 1, "completed": 2, "replies": 2,
                "latency_sum": 5.0, "latency_max": 4.5,
            }},
        }
        merge_blame(into, other)
        assert into["attributed"] == 5
        row = into["nodes"][1]
        assert row["blamed"] == 3
        assert row["completed"] == 3
        assert row["replies"] == 6
        assert row["latency_sum"] == 13.0
        assert row["latency_max"] == 4.5

    def test_blame_rows_on_empty_aggregate(self):
        assert blame_rows({"attributed": 0, "nodes": {}}) == []
        assert slowest_node([]) is None


def _observed_spans(seed: int = 0, throttled: int | None = None):
    """Spans from a short observed sim run (optionally one limper)."""
    with session() as obs:
        cluster = SimBackend("ss-nonblocking", scenario_config(n=4, seed=seed))
        if throttled is not None:
            cluster.throttle(throttled, 10.0)
        for i in range(6):
            cluster.write_sync(i % 3, f"w{i}".encode())
            cluster.snapshot_sync((i + 1) % 3)
        cluster.run_for(40.0)  # drain late replies into the round records
    obs.finish()
    return obs.recorder.spans


class TestOperationAttribution:
    def test_every_op_attributes_with_rounds_and_phases(self):
        records = attribute_ops(_observed_spans())
        assert len(records) == 12
        for record in records:
            assert record.rounds >= 1
            assert record.slowest_responder is not None
            assert record.duration > 0
            assert record.dominant_phase.split(".")[0] in ("write", "snapshot")
            assert 0.0 < record.dominant_share <= 1.0
            json.dumps(record.to_dict())  # JSON-safe

    def test_blame_shares_sum_to_one(self):
        rows = blame_rows(blame_aggregate(_observed_spans()))
        assert rows
        assert sum(row["blame_share"] for row in rows) == pytest.approx(1.0)
        for row in rows:
            assert row["max_reply"] >= row["mean_reply"] >= 0.0

    def test_throttled_node_tops_the_blame_table(self):
        spans = _observed_spans(throttled=2)
        node, share = slowest_node(spans)
        assert node == 2
        assert share > 0.5
        phases = dominant_phases(spans)
        assert phases  # time went somewhere nameable
        assert all(length >= 0.0 for length in phases.values())


class TestLimpingAcceptance:
    """The PR's acceptance scenario, golden-tested on the simulator."""

    def test_limping_node_is_alerted_and_blamed(self):
        obs = Observability(trace_messages=False)
        engine = AlertEngine()

        async def body(cluster):
            cluster.throttle(3, 12.0)
            generator = LoadGenerator(
                cluster,
                LoadSpec(clients=4, depth=2, duration=80.0, seed=1),
            )
            await generator.run()
            # Drain: the limper's late replies are the attribution
            # evidence, and they arrive after the quorums completed.
            await cluster.kernel.sleep(60.0)
            engine.evaluate_session(obs)
            return generator.attribution()

        with session(obs):
            attribution = run_on_backend(
                "sim",
                "ss-nonblocking",
                scenario_config(n=5, seed=1),
                body,
                max_events=None,
            )
        obs.finish()

        # The health monitor names the throttled node, and nothing else.
        limping = [a for a in engine.history if a.rule == "node-limping"]
        assert [a.node for a in limping] == [3]
        assert not any(
            a.rule == "node-corrupt-suspect" for a in engine.history
        )

        # >= 90% of attributed operations blame it as slowest responder.
        # The criterion is measured from healthy requesters: an op issued
        # *by* the limper sees every link slowed equally (all its channels
        # carry the factor), so its round blames an arbitrary peer.
        records = [
            r
            for r in attribute_ops(obs.recorder.spans)
            if r.slowest_responder is not None and r.node != 3
        ]
        assert len(records) >= 20
        share = sum(1 for r in records if r.slowest_responder == 3) / len(
            records
        )
        assert share >= 0.9

        # The load generator's reduction agrees: across *all* ops —
        # including the limper's own — node 3 still dominates the table.
        assert attribution is not None
        assert attribution["slowest_node"] == 3
        assert attribution["blame_share"] >= 0.7


class TestLoadAttribution:
    def test_run_load_report_carries_attribution(self):
        spec = LoadSpec(duration=30.0, seed=3)
        # Attribution rides on the ambient session (--stats, top) ...
        with session(Observability(trace_messages=False)):
            report = run_load(spec=spec)
        assert report.ok, report.failures
        attribution = report.attribution
        assert attribution is not None
        assert attribution["attributed"] > 0
        assert attribution["slowest_node"] in range(report.n)
        assert 0.0 < attribution["blame_share"] <= 1.0
        assert attribution["dominant_phase"].split(".")[0] in (
            "write", "snapshot"
        )
        # ... and observing changes nothing about the run itself.
        unobserved = run_load(spec=spec)
        assert unobserved.attribution is None
        assert (unobserved.completed, unobserved.throughput) == (
            report.completed, report.throughput
        )
