"""`SnapshotClient` — the one façade every caller starts from.

The library grew four ways to talk to a snapshot object (raw
``SimBackend``, ``create_backend``, the fabric, the load harnesses);
this module is the API-redesign convergence point: **one** keyed
facade with three essential methods —

* :meth:`SnapshotClient.write` — write a value under a key,
* :meth:`SnapshotClient.snapshot` — one linearizable cut of every key,
* :meth:`SnapshotClient.close` — tear the deployment down,

backed by a :class:`~repro.shard.fabric.ShardedFabric` of any size on
any backend.  A single-cluster deployment is just the one-shard fabric,
so callers never branch on topology: the same program runs against one
simulated cluster or eight UDP shards by changing ``connect()``
arguments.

Construction:

* :meth:`SnapshotClient.local` — synchronous, simulator-backed; the
  entry point for examples, docs and tests (deterministic, no event
  loop needed — drive it with the ``*_sync`` helpers).
* :meth:`SnapshotClient.connect` — ``await``-able, any backend
  (``sim``/``asyncio``/``udp``), K shards.
* ``SnapshotClient(fabric_or_backend)`` — wrap something you already
  built (an existing fabric, or a single
  :class:`~repro.backend.base.ClusterBackend`).
"""

from __future__ import annotations

from typing import Any

from repro.backend.base import ClusterBackend
from repro.config import ClusterConfig
from repro.errors import ConfigurationError
from repro.shard.fabric import (
    ComposedSnapshot,
    KeyView,
    ShardedFabric,
    SplitReport,
    build_sim_fabric,
    create_fabric,
)
from repro.shard.ring import ShardMap

__all__ = ["SnapshotClient"]


class SnapshotClient:
    """Keyed writes and linearizable snapshots over any deployment."""

    def __init__(self, target: ShardedFabric | ClusterBackend) -> None:
        if isinstance(target, ShardedFabric):
            self.fabric = target
        elif isinstance(target, ClusterBackend):
            self.fabric = ShardedFabric(
                {0: target},
                ShardMap(epoch=0, shard_ids=(0,)),
                backend_name=target.capabilities.backend,
                algorithm=target.algorithm_name,
                base_config=target.config,
            )
        else:
            raise ConfigurationError(
                f"SnapshotClient wraps a ShardedFabric or a ClusterBackend, "
                f"got {type(target).__name__}"
            )

    # -- construction ------------------------------------------------------

    @classmethod
    def local(
        cls,
        shards: int = 1,
        algorithm: str = "ss-nonblocking",
        config: ClusterConfig | None = None,
        **kwargs: Any,
    ) -> "SnapshotClient":
        """A simulator-backed client, built synchronously.

        Deterministic (same config seed ⇒ same history) and loop-free:
        pair with :meth:`write_sync` / :meth:`snapshot_sync` /
        :meth:`run` to drive it from plain code.
        """
        return cls(build_sim_fabric(shards, algorithm, config, **kwargs))

    @classmethod
    async def connect(
        cls,
        backend: str = "sim",
        shards: int = 1,
        algorithm: str = "ss-nonblocking",
        config: ClusterConfig | None = None,
        **kwargs: Any,
    ) -> "SnapshotClient":
        """Deploy ``shards`` clusters on ``backend`` and wrap them."""
        return cls(
            await create_fabric(backend, shards, algorithm, config, **kwargs)
        )

    # -- the facade --------------------------------------------------------

    async def write(self, key: Any, value: Any) -> int:
        """Write ``value`` under ``key``; returns the key's version."""
        return await self.fabric.write(key, value)

    async def snapshot(self) -> ComposedSnapshot:
        """One linearizable cut of the whole keyspace (all shards)."""
        return await self.fabric.compose_snapshot()

    async def read(self, key: Any) -> KeyView:
        """Read one key through an atomic read of its slot's register."""
        return await self.fabric.scan(key)

    async def split(self) -> SplitReport:
        """Grow the deployment by one shard, migrating keys online."""
        return await self.fabric.split()

    async def close(self) -> None:
        """Tear every shard down; idempotent."""
        await self.fabric.close()

    # -- introspection -----------------------------------------------------

    @property
    def shards(self) -> int:
        """Number of shards behind the facade."""
        return self.fabric.map.shards

    @property
    def epoch(self) -> int:
        """The installed shard-map epoch."""
        return self.fabric.epoch

    def check(self) -> list[str]:
        """Run the full two-layer linearizability checker."""
        return self.fabric.check()

    # -- synchronous helpers (simulator only) ------------------------------

    def _require_sim(self, wanted: str) -> None:
        capabilities = self.fabric.backends()[0].capabilities
        capabilities.require("simulated_time", wanted)

    def run(self, coro: Any, max_events: int | None = 2_000_000) -> Any:
        """Drive the simulated timeline until ``coro`` completes."""
        self._require_sim("SnapshotClient.run()")
        return self.fabric.kernel.run_until_complete(
            coro, max_events=max_events
        )

    def write_sync(self, key: Any, value: Any) -> int:
        """Synchronous :meth:`write` (simulator only)."""
        self._require_sim("SnapshotClient.write_sync()")
        return self.run(self.write(key, value))

    def snapshot_sync(self) -> ComposedSnapshot:
        """Synchronous :meth:`snapshot` (simulator only)."""
        self._require_sim("SnapshotClient.snapshot_sync()")
        return self.run(self.snapshot())

    def read_sync(self, key: Any) -> KeyView:
        """Synchronous :meth:`read` (simulator only)."""
        self._require_sim("SnapshotClient.read_sync()")
        return self.run(self.read(key))

    def split_sync(self) -> SplitReport:
        """Synchronous :meth:`split` (simulator only)."""
        self._require_sim("SnapshotClient.split_sync()")
        return self.run(self.split())

    def __repr__(self) -> str:
        return f"<SnapshotClient {self.fabric!r}>"
