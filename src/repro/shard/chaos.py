"""Chaos campaigns against a sharded fabric.

A seeded event storm — key writes, key scans, composed cross-shard
snapshots, node crashes/resumes inside random shards, and one online
shard **split** mid-run — with the full two-layer checker at the end.
This is the endurance harness for the fabric's hard claims: operations
queued across an epoch change are neither lost nor duplicated, composed
cuts stay linearizable while shards crash-recover around them, and the
post-split fabric is exactly as correct as the pre-split one.

Crashes follow the paper's failure model: a crashed node stops acting
as a client, so the campaign routes new operations around keys whose
slot node is down (shard quorums keep the object available — crashing
a minority never blocks the other slots).  ``python -m repro chaos
--shards K`` runs these campaigns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.config import ClusterConfig, scenario_config
from repro.shard.fabric import ShardedFabric, run_on_fabric

__all__ = ["ShardChaosReport", "run_shard_chaos", "run_shard_chaos_campaigns"]


@dataclass(slots=True)
class ShardChaosReport:
    """Outcome of one sharded chaos campaign."""

    shards: int = 0
    final_shards: int = 0
    events: int = 0
    writes: int = 0
    scans: int = 0
    composes: int = 0
    fenced_composes: int = 0
    crashes: int = 0
    resumes: int = 0
    splits: int = 0
    moved_keys: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every check during the campaign passed."""
        return not self.failures

    def summary(self) -> str:
        """One-line outcome."""
        verdict = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"K={self.shards}→{self.final_shards}: {self.events} events "
            f"({self.writes}w/{self.scans}s ops, {self.composes} composed "
            f"cuts, {self.crashes} crashes, {self.splits} splits moving "
            f"{self.moved_keys} keys): {verdict}"
        )


class ShardChaosCampaign:
    """A seeded storm of operations, faults and one split."""

    def __init__(self, fabric: ShardedFabric, seed: int) -> None:
        self.fabric = fabric
        self.rng = random.Random(seed)
        universe = 32 * fabric.map.shards
        self._keys = [f"c{index}" for index in range(universe)]
        self.report = ShardChaosReport(shards=fabric.map.shards)
        self._write_counter = 0

    # -- event primitives --------------------------------------------------

    def _usable_key(self) -> str | None:
        """A key whose slot node is alive (crashed nodes can't client)."""
        for _ in range(8):
            key = self.rng.choice(self._keys)
            shard_id, node = self.fabric.slot_of(key)
            if not self.fabric.shard(shard_id).node(node).crashed:
                return key
        return None

    async def _do_write(self) -> None:
        key = self._usable_key()
        if key is None:
            return
        self._write_counter += 1
        await self.fabric.write(key, f"chaos-{self._write_counter}")
        self.report.writes += 1

    async def _do_scan(self) -> None:
        key = self._usable_key()
        if key is None:
            return
        await self.fabric.scan(key)
        self.report.scans += 1

    async def _do_compose(self) -> None:
        cut = await self.fabric.compose_snapshot()
        self.report.composes += 1
        if cut.fenced:
            self.report.fenced_composes += 1

    def _do_crash(self) -> None:
        # Keep node 0 up (it serves composed collects) and keep every
        # shard's quorum: crash at most one minority node per shard.
        shard_id = self.rng.choice(self.fabric.shard_ids)
        backend = self.fabric.shard(shard_id)
        candidates = [
            node
            for node in backend.alive_nodes()
            if node != 0
        ]
        if len(backend.alive_nodes()) > backend.config.majority and candidates:
            backend.crash(self.rng.choice(candidates))
            self.report.crashes += 1

    def _do_resume(self) -> None:
        crashed = [
            (shard_id, process.node_id)
            for shard_id in self.fabric.shard_ids
            for process in self.fabric.shard(shard_id).processes
            if process.crashed
        ]
        if crashed:
            shard_id, node = self.rng.choice(crashed)
            self.fabric.shard(shard_id).resume(
                node, restart=self.rng.random() < 0.3
            )
            self.report.resumes += 1

    async def _do_split(self) -> None:
        split = await self.fabric.split()
        self.report.splits += 1
        self.report.moved_keys += split.moved_keys

    def _resume_all(self) -> None:
        for shard_id in self.fabric.shard_ids:
            backend = self.fabric.shard(shard_id)
            for process in backend.processes:
                if process.crashed:
                    backend.resume(process.node_id)

    # -- the campaign ------------------------------------------------------

    async def run(self, events: int) -> ShardChaosReport:
        """Execute ``events`` storm events plus one mid-run split."""
        weighted = (
            [self._do_write] * 6
            + [self._do_scan] * 3
            + [self._do_compose] * 1
            + [self._do_crash] * 1
            + [self._do_resume] * 2
        )
        split_at = events // 2
        for index in range(events):
            self.report.events += 1
            if index == split_at:
                # The split runs while prior operations may still be
                # in flight or waiting for admission — they drain, or
                # route under the new epoch once the gate reopens.
                await self._do_split()
            action = self.rng.choice(weighted)
            result = action()
            if result is not None:  # coroutine actions
                await result
            await self.fabric.kernel.sleep(self.rng.uniform(0.5, 3.0))
        self._resume_all()
        await self._do_compose()
        self.report.failures.extend(self.fabric.check())
        self.report.final_shards = self.fabric.map.shards
        return self.report


def run_shard_chaos(
    backend: str = "sim",
    shards: int = 4,
    algorithm: str = "ss-nonblocking",
    config: ClusterConfig | None = None,
    *,
    seed: int = 0,
    events: int = 80,
    time_scale: float = 0.002,
) -> ShardChaosReport:
    """Run one sharded chaos campaign on the named backend."""
    config = (
        config
        if config is not None
        else scenario_config(n=4, seed=seed, delta=2)
    )

    async def body(fabric: ShardedFabric) -> ShardChaosReport:
        return await ShardChaosCampaign(fabric, seed).run(events)

    return run_on_fabric(
        backend, shards, algorithm, config, body, time_scale=time_scale
    )


def run_shard_chaos_campaigns(
    seeds: list[int],
    shards: int = 4,
    algorithm: str = "ss-nonblocking",
    budget: int = 80,
    backend: str = "sim",
    n: int = 4,
    delta: float = 2,
    time_scale: float = 0.002,
) -> list[ShardChaosReport]:
    """One campaign per seed — the unified campaign entry point.

    ``budget`` is the number of storm events per campaign.
    """
    return [
        run_shard_chaos(
            backend=backend,
            shards=shards,
            algorithm=algorithm,
            config=scenario_config(n=n, seed=seed, delta=delta),
            seed=seed,
            events=budget,
            time_scale=time_scale,
        )
        for seed in seeds
    ]
