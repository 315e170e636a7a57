"""Tests for the asyncio runtime: same algorithms, real event loop."""

import asyncio

import pytest

from repro import ClusterConfig
from repro.analysis.linearizability import check_snapshot_history
from repro.backend.aio import AsyncioBackend

pytestmark = pytest.mark.runtime


def run(coro):
    return asyncio.run(coro)


ALGORITHMS = ["dgfr-nonblocking", "ss-nonblocking", "ss-always", "stacked"]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_write_then_snapshot(algorithm):
    async def main():
        cluster = AsyncioBackend(
            algorithm, ClusterConfig(n=4, delta=1), time_scale=0.002
        )
        cluster.start()
        try:
            ts = await asyncio.wait_for(cluster.write(0, b"live"), timeout=10)
            assert ts == 1
            result = await asyncio.wait_for(cluster.snapshot(1), timeout=10)
            assert result.values[0] == b"live"
        finally:
            cluster.stop()

    run(main())


def test_read_on_asyncio():
    async def main():
        cluster = AsyncioBackend(
            "ss-always", ClusterConfig(n=4, delta=1), time_scale=0.002
        )
        cluster.start()
        try:
            ts = await asyncio.wait_for(cluster.write(2, b"live"), timeout=10)
            entry = await asyncio.wait_for(cluster.read(1, 2), timeout=10)
            assert (entry.ts, entry.value) == (ts, b"live")
            report = check_snapshot_history(cluster.history.records(), 4)
            assert report.ok, report.summary()
        finally:
            cluster.stop()

    run(main())


def test_concurrent_operations_linearizable():
    async def main():
        cluster = AsyncioBackend(
            "ss-nonblocking", ClusterConfig(n=4, seed=3), time_scale=0.002
        )
        cluster.start()
        try:
            writes = [cluster.write(node, node * 7) for node in range(4)]
            await asyncio.wait_for(asyncio.gather(*writes), timeout=15)
            snaps = [cluster.snapshot(node) for node in range(4)]
            results = await asyncio.wait_for(asyncio.gather(*snaps), timeout=15)
            assert all(r.values == (0, 7, 14, 21) for r in results)
            report = check_snapshot_history(cluster.history.records(), 4)
            assert report.ok, report.summary()
        finally:
            cluster.stop()

    run(main())


def test_crash_and_resume_on_asyncio():
    async def main():
        cluster = AsyncioBackend(
            "ss-nonblocking", ClusterConfig(n=5, seed=4), time_scale=0.002
        )
        cluster.start()
        try:
            cluster.crash(3)
            cluster.crash(4)
            await asyncio.wait_for(cluster.write(0, "quorum"), timeout=15)
            result = await asyncio.wait_for(cluster.snapshot(1), timeout=15)
            assert result.values[0] == "quorum"
            cluster.resume(3)
            cluster.resume(4)
        finally:
            cluster.stop()

    run(main())


def test_gossip_runs_in_wall_clock():
    async def main():
        cluster = AsyncioBackend(
            "ss-nonblocking",
            ClusterConfig(n=3, gossip_interval=1.0),
            time_scale=0.002,
        )
        cluster.start()
        try:
            await asyncio.sleep(0.2)
            assert cluster.metrics.snapshot().messages("GOSSIP") > 0
        finally:
            cluster.stop()

    run(main())


def test_unknown_algorithm_rejected():
    from repro.errors import ConfigurationError

    async def main():
        with pytest.raises(ConfigurationError):
            AsyncioBackend("bogus")

    run(main())
