"""Tests for the stacked ABD + double-collect snapshot baseline."""

import pytest

from repro import ChannelConfig, ClusterConfig, SimBackend
from repro.analysis.linearizability import check_snapshot_history
from repro.core.register import TimestampedValue
from repro.errors import ConfigurationError


def make(n=5, seed=0, **kwargs):
    return SimBackend("stacked", ClusterConfig(n=n, seed=seed, **kwargs))


class TestStackedSemantics:
    def test_write_then_snapshot(self):
        cluster = make()
        cluster.write_sync(0, "abd")
        result = cluster.snapshot_sync(1)
        assert result.values[0] == "abd"
        assert result.vector_clock[0] == 1

    def test_sequential_history_linearizable(self):
        cluster = make(seed=1)
        for node in range(5):
            cluster.write_sync(node, node * 2)
            cluster.snapshot_sync((node + 2) % 5)
        report = check_snapshot_history(cluster.history.records(), 5)
        assert report.ok, report.summary()

    def test_concurrent_history_linearizable(self):
        cluster = make(seed=2)

        async def workload():
            tasks = [cluster.spawn(cluster.write(i, i)) for i in range(5)]
            tasks += [cluster.spawn(cluster.snapshot(i)) for i in range(5)]
            await cluster.kernel.gather(tasks)

        cluster.run_until(workload())
        report = check_snapshot_history(cluster.history.records(), 5)
        assert report.ok, report.summary()

    def test_survives_minority_crash(self):
        cluster = make(seed=3)
        cluster.crash(3)
        cluster.crash(4)
        cluster.write_sync(0, "crashproof")
        assert cluster.snapshot_sync(1).values[0] == "crashproof"

    def test_lossy_channels(self):
        cluster = make(
            seed=4, channel=ChannelConfig(loss_probability=0.3)
        )
        cluster.write_sync(2, "lossy")
        assert cluster.snapshot_sync(0).values[2] == "lossy"


class TestStackedRead:
    """ABD's ``read(j)``: collect, write the view back, return ``view[j]``."""

    def test_read_returns_the_completed_write(self):
        cluster = make()
        cluster.write_sync(0, "abd")
        assert cluster.read_sync(2, 0) == TimestampedValue(1, "abd")
        report = check_snapshot_history(cluster.history.records(), 5)
        assert report.ok, report.summary()

    def test_read_writes_back_what_it_returns(self):
        """An entry one server holds is at a majority when the read ends."""
        cluster = make(seed=5)
        cluster.node(3).reg[0] = TimestampedValue(1, "only-at-3")
        cluster.crash(0)
        cluster.crash(4)  # the majority is nodes 1, 2 and 3
        assert cluster.read_sync(1, 0) == TimestampedValue(1, "only-at-3")
        assert [cluster.node(k).reg[0].ts for k in (1, 2, 3)] == [1, 1, 1]

    def test_read_costs_two_round_trips(self):
        cluster = make()
        cluster.write_sync(0, "w")
        with cluster.metrics.window() as window:
            cluster.read_sync(1, 0)
        n = cluster.config.n
        stats = window.stats
        assert stats.messages("ABD_COLLECT") == n - 1
        assert stats.messages("ABD_STORE") == n - 1

    def test_index_out_of_range_is_rejected(self):
        cluster = make()
        with pytest.raises(ConfigurationError):
            cluster.read_sync(0, 5)


class TestStackedCosts:
    def test_write_cost_one_round_trip(self):
        """An ABD write is 2(n-1) messages — same as DGFR's write."""
        cluster = make()
        with cluster.metrics.window() as window:
            cluster.write_sync(0, "w")
        n = cluster.config.n
        stats = window.stats
        assert stats.messages("ABD_STORE") == n - 1
        assert stats.messages("ABD_STOREack") >= cluster.config.majority - 1

    def test_snapshot_costs_four_round_trips(self):
        """The 8n-vs-2n comparison (related work / benchmark E3):
        a clean stacked scan is 2 collects + 2 write-backs = ~8(n-1)
        messages, ~4x the DGFR non-blocking snapshot."""
        n = 5
        stacked = make(seed=5)
        stacked.write_sync(0, "x")
        with stacked.metrics.window() as window:
            stacked.snapshot_sync(1)
        stacked_msgs = window.stats.total_messages

        dgfr = SimBackend(
            "dgfr-nonblocking", ClusterConfig(n=n, seed=5)
        )
        dgfr.write_sync(0, "x")
        with dgfr.metrics.window() as dgfr_window:
            dgfr.snapshot_sync(1)
        dgfr_msgs = dgfr_window.stats.total_messages

        assert stacked_msgs >= 3 * dgfr_msgs
        # Requests alone: 4 phases x (n-1) messages.
        assert (
            window.stats.messages("ABD_COLLECT")
            + window.stats.messages("ABD_STORE")
            == 4 * (n - 1)
        )

    def test_scan_retries_under_interference(self):
        """A write between the two collects forces another scan round."""
        cluster = make(seed=6)

        async def workload():
            snap_task = cluster.spawn(cluster.snapshot(4))
            for i in range(5):
                await cluster.write(0, f"i{i}")
            return await snap_task

        with cluster.metrics.window() as window:
            cluster.run_until(workload())
        # More than one scan round: >4(n-1) request messages.
        requests = window.stats.messages("ABD_COLLECT", "ABD_STORE")
        assert requests > 4 * (cluster.config.n - 1)
