"""Tests for the load driver's fabric target and the sharded chaos storm."""

import pytest

from repro import ClusterConfig
from repro.config import scenario_config
from repro.load import LoadSpec, run_load
from repro.shard import build_sim_fabric, run_shard_chaos
from repro.shard.chaos import ShardChaosCampaign

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


class TestShardChaos:
    def test_storm_with_split_stays_linearizable(self):
        report = run_shard_chaos(
            shards=2, config=ClusterConfig(n=4, seed=0), seed=0, events=40
        )
        assert report.ok, report.failures
        assert report.splits == 1 and report.reconfigures == 1
        assert report.final_shards == 3
        assert report.composes > 0
        assert "1 reconfigures" in report.summary()

    def test_seeds_vary_the_storm(self):
        a = run_shard_chaos(
            shards=2, config=ClusterConfig(n=4, seed=1), seed=1, events=30
        )
        b = run_shard_chaos(
            shards=2, config=ClusterConfig(n=4, seed=2), seed=2, events=30
        )
        assert a.ok and b.ok
        assert (a.writes, a.scans, a.crashes) != (b.writes, b.scans, b.crashes)

    def test_split_completes_with_a_source_slot_node_crashed(self):
        """Regression: a split used to re-publish each source slot's
        shrunk map with a write at the slot's own node, which never
        completes while that node is crashed — and the quiesced fabric
        wedged with both gates closed (seed 4 reaches that state at its
        split: shard 1's node 2 is down and holds moving keys).  The
        event cap turns a wedge into a failure, not a hang; the campaign
        takes ~37 k events."""
        fabric = build_sim_fabric(
            2, "ss-nonblocking", scenario_config(n=4, seed=4, delta=2)
        )
        report = fabric.kernel.run_until_complete(
            ShardChaosCampaign(fabric, 4).run(150), max_events=200_000
        )
        assert report.ok, report.failures
        assert report.splits == 1 and report.final_shards == 3
