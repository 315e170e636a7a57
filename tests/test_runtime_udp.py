"""Tests for the localhost-UDP transport."""

import asyncio

import pytest

from repro import ClusterConfig
from repro.analysis.linearizability import check_snapshot_history
from repro.errors import ConfigurationError
from repro.backend.udp import UdpBackend

pytestmark = pytest.mark.runtime


def run(coro):
    return asyncio.run(coro)


async def make_cluster(algorithm, config, time_scale=0.002):
    backend = UdpBackend(algorithm, config, time_scale=time_scale)
    await backend.create()
    backend.start()
    return backend


class TestUdpCluster:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            UdpBackend("bogus")

    def test_write_snapshot_over_real_udp(self):
        async def main():
            cluster = await make_cluster(
                "ss-nonblocking", ClusterConfig(n=4, seed=1), time_scale=0.002
            )
            try:
                ts = await asyncio.wait_for(
                    cluster.write(0, b"datagram"), timeout=10
                )
                assert ts == 1
                result = await asyncio.wait_for(cluster.snapshot(1), timeout=10)
                assert result.values[0] == b"datagram"
                # Bytes really crossed sockets.
                assert cluster.metrics.snapshot().total_messages > 0
            finally:
                await cluster.close()

        run(main())

    def test_read_over_real_udp(self):
        """READ/READack cross the codec with no registration of their own."""

        async def main():
            cluster = await make_cluster(
                "ss-nonblocking", ClusterConfig(n=4, seed=4), time_scale=0.002
            )
            try:
                ts = await asyncio.wait_for(
                    cluster.write(0, b"datagram"), timeout=10
                )
                entry = await asyncio.wait_for(cluster.read(3, 0), timeout=10)
                assert (entry.ts, entry.value) == (ts, b"datagram")
                kinds = cluster.metrics.snapshot().messages_by_kind
                assert kinds["READ"] and kinds["READack"]
                report = check_snapshot_history(cluster.history.records(), 4)
                assert report.ok, report.summary()
            finally:
                await cluster.close()

        run(main())

    def test_concurrent_ops_linearizable_over_udp(self):
        async def main():
            cluster = await make_cluster(
                "ss-always", ClusterConfig(n=4, seed=2, delta=1),
                time_scale=0.002,
            )
            try:
                await asyncio.wait_for(
                    asyncio.gather(
                        *(cluster.write(node, node) for node in range(4))
                    ),
                    timeout=20,
                )
                results = await asyncio.wait_for(
                    asyncio.gather(
                        *(cluster.snapshot(node) for node in range(4))
                    ),
                    timeout=20,
                )
                assert all(r.values == (0, 1, 2, 3) for r in results)
                report = check_snapshot_history(cluster.history.records(), 4)
                assert report.ok, report.summary()
            finally:
                await cluster.close()

        run(main())

    def test_crash_and_majority_over_udp(self):
        async def main():
            cluster = await make_cluster(
                "ss-nonblocking", ClusterConfig(n=5, seed=3), time_scale=0.002
            )
            try:
                cluster.crash(3)
                cluster.crash(4)
                await asyncio.wait_for(cluster.write(0, "udp-q"), timeout=15)
                result = await asyncio.wait_for(cluster.snapshot(2), timeout=15)
                assert result.values[0] == "udp-q"
            finally:
                await cluster.close()

        run(main())


class TestUdpFabric:
    def test_keyed_write_read_and_compose_across_two_shards(self):
        """Slot maps are dicts: they cross the codec in WRITE, READ and
        SNAPSHOT payloads (the first keyed write used to die on
        ``CodecError: cannot encode value of type dict``)."""
        from repro.shard.fabric import run_on_fabric

        async def body(fabric):
            by_shard = {}
            for index in range(64):
                by_shard.setdefault(fabric.slot_of(f"k{index}")[0], f"k{index}")
            assert sorted(by_shard) == [0, 1]
            keys = [by_shard[0], by_shard[1]]
            for version in (1, 2):
                for key in keys:
                    seq = await asyncio.wait_for(
                        fabric.write(key, (key, version)), timeout=15
                    )
                    assert seq == version
            for key in keys:
                view = await asyncio.wait_for(fabric.scan(key), timeout=15)
                assert (view.seq, view.value) == (2, (key, 2))
            cut = await asyncio.wait_for(fabric.compose_snapshot(), timeout=30)
            held = {
                key: entry
                for slots in cut.shard_slots.values()
                for state in slots
                for key, entry in (state or {}).items()
            }
            assert held == {key: (2, (key, 2)) for key in keys}
            assert fabric.check() == []
            for backend in fabric.backends():
                kinds = backend.metrics.snapshot().messages_by_kind
                assert kinds["WRITE"] and kinds["READ"] and kinds["SNAPSHOT"]

        run_on_fabric("udp", 2, "ss-nonblocking", None, body)


def test_legacy_facade_removed():
    with pytest.raises(ImportError, match="create_backend"):
        from repro.runtime import UdpSnapshotCluster  # noqa: F401
