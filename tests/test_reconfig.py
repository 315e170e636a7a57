"""Tests for the reconfiguration (state-transfer) extension."""

import pytest

from repro import ClusterConfig, SimBackend
from repro.analysis.linearizability import check_snapshot_history
from repro.errors import ConfigurationError
from repro.reconfig import reconfigure


def make(n=4, seed=0, algorithm="ss-nonblocking", **kwargs):
    return SimBackend(
        algorithm, ClusterConfig(n=n, seed=seed, **kwargs)
    )


class TestReconfigure:
    def test_grow_cluster_preserves_values_and_timestamps(self):
        old = make(n=3)
        old.write_sync(0, "a")
        old.write_sync(0, "a2")
        old.write_sync(1, "b")

        async def run():
            return await reconfigure(old, ClusterConfig(n=5, seed=1))

        report = old.run_until(run(), max_events=None)
        new = report.new_cluster
        assert new.config.n == 5
        assert report.carried_entries == 2
        assert report.dropped == ()
        result = new.kernel.run_until_complete(new.snapshot(4))
        assert result.values[:3] == ("a2", "b", None)
        assert result.vector_clock[:2] == (2, 1)

    def test_writer_timestamp_sequence_continues(self):
        old = make(n=3)
        old.write_sync(0, "v1")
        old.write_sync(0, "v2")

        async def run():
            return await reconfigure(old, ClusterConfig(n=4, seed=2))

        new = old.run_until(run(), max_events=None).new_cluster
        ts = new.kernel.run_until_complete(new.write(0, "v3"))
        assert ts == 3  # continues, never reuses an index

    def test_shrink_reports_dropped_writers(self):
        old = make(n=5)
        old.write_sync(0, "keep")
        old.write_sync(4, "lost")

        async def run():
            return await reconfigure(old, ClusterConfig(n=3, seed=3))

        report = old.run_until(run(), max_events=None)
        assert report.dropped == (4,)
        result = report.new_cluster.kernel.run_until_complete(
            report.new_cluster.snapshot(0)
        )
        assert result.values[0] == "keep"

    def test_algorithm_change_during_reconfiguration(self):
        old = make(n=3, algorithm="ss-nonblocking")
        old.write_sync(1, "carried")

        async def run():
            return await reconfigure(
                old, ClusterConfig(n=3, seed=4, delta=1), algorithm="ss-always"
            )

        new = old.run_until(run(), max_events=None).new_cluster
        from repro.core.ss_always import SelfStabilizingAlwaysTerminating

        assert isinstance(new.node(0), SelfStabilizingAlwaysTerminating)
        result = new.kernel.run_until_complete(new.snapshot(2))
        assert result.values[1] == "carried"

    def test_old_cluster_stopped_after_handoff(self):
        old = make(n=3)

        async def run():
            return await reconfigure(old, ClusterConfig(n=3, seed=5))

        new = old.run_until(run(), max_events=None).new_cluster
        iterations = [p.iterations_completed for p in old.processes]
        new.run_for(30.0)  # shared kernel: time advances for both
        assert [p.iterations_completed for p in old.processes] == iterations

    def test_crashed_collector_rejected(self):
        old = make(n=4)
        old.crash(0)

        async def run():
            return await reconfigure(
                old, ClusterConfig(n=4, seed=6), collector_node=0
            )

        with pytest.raises(ConfigurationError):
            old.run_until(run(), max_events=None)

    def test_transfer_point_is_atomic_under_concurrent_writes(self):
        """Writes concurrent with the handoff either fully transfer or
        complete on the old configuration before it retires — the
        transfer snapshot's atomicity guarantees no torn state."""
        old = make(n=4, seed=7)

        async def run():
            for round_index in range(3):
                await old.write(1, f"w{round_index}")
            report = await reconfigure(old, ClusterConfig(n=4, seed=8))
            return report

        report = old.run_until(run(), max_events=None)
        new = report.new_cluster
        result = new.kernel.run_until_complete(new.snapshot(3))
        assert result.values[1] == "w2"
        # Old history remains linearizable through the handoff.
        check = check_snapshot_history(old.history.records(), 4)
        assert check.ok, check.summary()


def handoff_under_a_writer(seed, after_return=0.0):
    """Reconfigure while node 1 writes in a loop, then keep the writer
    running ``after_return`` more units against the old configuration.

    Returns ``(successor's entry-1 ts, ts acked before the handoff
    returned, largest ts acked by the end)``.
    """
    old = make(n=4, seed=seed)
    acked = [0]

    async def writer():
        for index in range(40):
            acked.append(await old.write(1, f"w{index}"))

    async def run():
        task = old.spawn(writer())
        await old.kernel.sleep(3.0)
        report = await reconfigure(old, ClusterConfig(n=4, seed=seed + 1))
        before_return = max(acked)
        await old.kernel.sleep(after_return)
        task.cancel()
        return report.new_cluster, before_return, max(acked)

    new, before_return, by_end = old.run_until(run(), max_events=None)
    result = new.kernel.run_until_complete(new.snapshot(3))
    return result.vector_clock[1], before_return, by_end


class TestConcurrentHandoff:
    @pytest.mark.parametrize("seed", range(4))
    def test_writes_acknowledged_before_the_handoff_returns_transfer(
        self, seed
    ):
        """Writes run *concurrently* with ``reconfigure``: each one
        acknowledged before it returns is in the successor."""
        carried, before_return, _ = handoff_under_a_writer(seed)
        assert before_return > 0  # the writer really overlapped
        assert carried >= before_return

    @pytest.mark.xfail(
        strict=True,
        reason="open finding: reconfigure fences no writer, so the "
        "retired configuration keeps acknowledging in-flight writes "
        "that never reach the successor (docs/verification.md)",
    )
    def test_retired_configuration_acknowledges_no_lost_write(self):
        carried, _, by_end = handoff_under_a_writer(0, after_return=30.0)
        assert by_end <= carried
