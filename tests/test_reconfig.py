"""Tests for reconfiguration: a fabric epoch change onto new clusters.

``SnapshotClient.reconfigure`` replaces every shard's cluster (new
``n``, channel model, δ or algorithm) through the same decide → quiesce
→ collect → install → reopen protocol as a split, so writes that race it
are fenced by the admission gates instead of landing on a retired
cluster.
"""

import asyncio

import pytest

from repro import ClusterConfig, SnapshotClient
from repro.shard.fabric import run_on_fabric


def make(n=4, seed=0, algorithm="ss-nonblocking", shards=1, **kwargs):
    return SnapshotClient.local(
        shards, algorithm, ClusterConfig(n=n, seed=seed, **kwargs)
    )


def reconfigure(client, *args, max_events=2_000_000):
    return client.run(client.reconfigure(*args), max_events=max_events)


class TestReconfigure:
    def test_grow_cluster_preserves_values_and_timestamps(self):
        client = make(n=3)
        client.write_sync("a", "a1")
        client.write_sync("a", "a2")
        client.write_sync("b", "b1")

        report = reconfigure(client, ClusterConfig(n=5, seed=1))
        assert report.new_epoch == client.epoch == 1
        assert client.fabric.n == client.fabric.shard(0).config.n == 5
        cut = client.snapshot_sync()
        assert cut.items() == {"a": (2, "a2"), "b": (1, "b1")}
        assert client.check() == []

    def test_writer_timestamp_sequence_continues(self):
        client = make(n=3)
        client.write_sync("a", "v1")
        client.write_sync("a", "v2")

        reconfigure(client, ClusterConfig(n=4, seed=2))
        assert client.write_sync("a", "v3") == 3  # per-key seq continues
        assert client.check() == []

    def test_shrink_keeps_every_key(self):
        client = make(n=5, shards=2)
        for i in range(20):
            client.write_sync(f"k{i}", i)

        reconfigure(client, ClusterConfig(n=3, seed=3))
        cut = client.snapshot_sync()
        assert {key: value for key, (_, value) in cut.items().items()} == {
            f"k{i}": i for i in range(20)
        }
        assert client.check() == []

    def test_algorithm_change_during_reconfiguration(self):
        from repro.core.ss_always import SelfStabilizingAlwaysTerminating

        client = make(n=3, algorithm="ss-nonblocking")
        client.write_sync("x", "carried")

        reconfigure(client, ClusterConfig(n=3, seed=4, delta=1), "ss-always")
        assert client.fabric.algorithm_name == "ss-always"
        assert isinstance(
            client.fabric.shard(0).node(0), SelfStabilizingAlwaysTerminating
        )
        assert client.read_sync("x").value == "carried"
        assert client.check() == []

    def test_old_cluster_stopped_after_handoff(self):
        client = make(n=3, shards=2)
        reconfigure(client, ClusterConfig(n=3, seed=5))

        retired = client.fabric.retired
        assert [sid for sid, _ in retired] == [0, 1]
        iterations = [
            [p.iterations_completed for p in backend.processes]
            for _, backend in retired
        ]
        client.run(client.fabric.kernel.sleep(30.0))  # one shared timeline
        assert iterations == [
            [p.iterations_completed for p in backend.processes]
            for _, backend in retired
        ]

    def test_reconfigure_completes_with_node_0_crashed(self):
        """The transfer snapshot runs at each shard's lowest live node;
        the event cap turns a wedge into a failure, not a hang."""
        client = make(n=5, shards=2)
        for i in range(20):
            client.write_sync(f"k{i}", i)
        client.fabric.shard(0).crash(0)

        report = reconfigure(
            client, ClusterConfig(n=3, seed=6), max_events=200_000
        )
        assert report.new_epoch == 1
        assert len(client.snapshot_sync().items()) == 20
        assert client.split_sync().new_epoch == 2
        assert client.check() == []

    def test_transfer_point_is_atomic_under_concurrent_writes(self):
        """Writes before the handoff all transfer, and every history —
        the retired clusters' included — stays linearizable."""
        client = make(n=4, seed=7)

        async def run():
            for round_index in range(3):
                await client.write("k", f"w{round_index}")
            return await client.reconfigure(ClusterConfig(n=4, seed=8))

        client.run(run())
        assert client.snapshot_sync().get("k") == "w2"
        assert client.check() == []


def handoff_under_a_writer(seed, after_return=0.0):
    """Reconfigure while one key is written in a loop, then keep the
    writer running ``after_return`` more units.

    Returns ``(the key's seq in the next composed cut, seq acked before
    the handoff returned, largest seq acked by the end)``.
    """
    client = make(n=4, seed=seed)
    kernel = client.fabric.kernel
    acked = [0]

    async def writer():
        for index in range(40):
            acked.append(await client.write("k", f"w{index}"))

    async def run():
        task = kernel.create_task(writer(), name="writer")
        await kernel.sleep(3.0)
        await client.reconfigure(ClusterConfig(n=5, seed=seed + 1))
        before_return = max(acked)
        await kernel.sleep(after_return)
        task.cancel()
        return before_return, max(acked)

    before_return, by_end = client.run(run())
    carried = client.snapshot_sync().items()["k"][0]
    assert client.check() == []
    return carried, before_return, by_end


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

    @pytest.mark.parametrize("seed", range(4))
    def test_retired_configuration_acknowledges_no_lost_write(self, seed):
        """A write held at the gate during the handoff runs on the
        successor, so nothing acknowledged afterwards is lost."""
        carried, before_return, by_end = handoff_under_a_writer(
            seed, after_return=30.0
        )
        assert by_end > before_return  # the writer kept going
        assert by_end <= carried


@pytest.mark.runtime
def test_reconfigure_runs_off_the_simulator():
    """The epoch change is backend-blind: it runs on live asyncio
    clusters exactly as on the simulator."""

    async def body(fabric):
        for i in range(8):
            await asyncio.wait_for(fabric.write(f"k{i}", i), timeout=15)
        await asyncio.wait_for(
            fabric.reconfigure(ClusterConfig(n=5, seed=1)), timeout=60
        )
        cut = await asyncio.wait_for(fabric.compose_snapshot(), timeout=30)
        assert fabric.shard(0).config.n == 5
        assert {key: value for key, (_, value) in cut.items().items()} == {
            f"k{i}": i for i in range(8)
        }
        assert fabric.check() == []

    run_on_fabric("asyncio", 1, "ss-nonblocking", ClusterConfig(n=3), body)
