"""Tests for the load driver's fabric target and the fuzzed fabric storm."""

import pytest

from repro import ClusterConfig
from repro.fuzz import ScenarioEvent, ScenarioSpec, generate_spec, run_spec
from repro.load import LoadSpec, run_load

pytestmark = pytest.mark.shard


def small_spec(**overrides):
    base = dict(clients=4, depth=1, duration=15.0, composes=2, seed=0)
    base.update(overrides)
    return LoadSpec(**base)


class TestShardLoad:
    def test_closed_loop_report_shape(self):
        report = run_load(
            shards=2,
            config=ClusterConfig(n=4, seed=0),
            spec=small_spec(),
        )
        assert report.ok, report.failures
        assert report.shards == 2 and report.backend == "sim"
        assert report.completed > 0
        assert report.submitted >= report.completed
        assert report.errors == 0
        assert report.throughput > 0
        assert set(report.per_shard) == {0, 1}
        assert report.composes == 2
        assert 0 <= report.fenced_composes <= report.composes
        assert report.imbalance >= 1.0
        assert report.attribution is None
        assert "K=2" in report.summary()

    def test_open_loop_mode(self):
        report = run_load(
            shards=2,
            config=ClusterConfig(n=4, seed=1),
            spec=small_spec(mode="open", rate=1.0),
        )
        assert report.ok, report.failures
        assert report.spec.mode == "open"

    def test_zipf_skew_drives_imbalance(self):
        uniform = run_load(
            shards=4,
            config=ClusterConfig(n=4, seed=2),
            spec=small_spec(clients=8, duration=20.0, skew=0.0),
        )
        skewed = run_load(
            shards=4,
            config=ClusterConfig(n=4, seed=2),
            spec=small_spec(clients=8, duration=20.0, skew=1.5),
        )
        assert skewed.ok and uniform.ok
        # Hot keys concentrate on their home shards.
        assert skewed.imbalance > uniform.imbalance

    def test_deterministic_given_seed(self):
        reports = [
            run_load(
                shards=2,
                config=ClusterConfig(n=4, seed=3),
                spec=small_spec(seed=3),
            )
            for _ in range(2)
        ]
        assert reports[0].completed == reports[1].completed
        assert reports[0].throughput == reports[1].throughput


def _shard_labels(outcome):
    """The clusters a fabric run's history came from."""
    return {record[0] for record in outcome.history}


class TestFabricStorm:
    def test_storm_with_split_stays_linearizable(self):
        spec = generate_spec(0, "ss-nonblocking", 40, shards=2)
        kinds = [event.kind for event in spec.events]
        assert kinds.count("split") == kinds.count("reconfigure") == 1
        outcome = run_spec(spec)
        assert outcome.ok, outcome.failures
        assert outcome.applied + outcome.skipped == 40
        # The split added shard 2; the reconfiguration retired every
        # cluster of the three shards and the check still covers them.
        assert _shard_labels(outcome) >= {
            "shard0", "shard1", "shard2", "shard0 (retired)", "shard2 (retired)"
        }
        collects = [r for r in outcome.history if r[2] == "snapshot"]
        assert collects  # composed cuts ran

    def test_seeds_vary_the_storm(self):
        a = generate_spec(1, "ss-nonblocking", 30, shards=2)
        b = generate_spec(2, "ss-nonblocking", 30, shards=2)
        assert a.events != b.events
        first, second = run_spec(a), run_spec(b)
        assert first.ok and second.ok
        assert first.fingerprint() != second.fingerprint()

    def test_split_completes_with_a_source_slot_node_crashed(self):
        """Regression: a split used to re-publish each source slot's
        shrunk map with a write at the slot's own node, which never
        completes while that node is crashed — and the quiesced fabric
        wedged with both gates closed.  ``c4`` lives at shard 0's node 3
        and moves to the new shard 2; the termination bound turns a
        wedge into a failure, not a hang."""
        events = (
            ScenarioEvent(kind="write", key="c4", value="a"),
            ScenarioEvent(kind="write", key="c8", value="b"),
            ScenarioEvent(kind="crash", shard=0, node=3),
            ScenarioEvent(kind="split"),
            ScenarioEvent(kind="read", key="c4"),
            ScenarioEvent(kind="snapshot"),
        )
        spec = ScenarioSpec(
            algorithm="ss-nonblocking", n=4, delta=2.0, seed=4,
            events=events, shards=2,
        )
        outcome = run_spec(spec)
        assert outcome.ok, outcome.failures
        assert (outcome.applied, outcome.skipped) == (6, 0)
        assert "shard2" in _shard_labels(outcome)
        read = next(r for r in outcome.history if r[2] == "read" and r[0] == "shard2")
        assert read[4][1]["c4"] == (1, "a")
