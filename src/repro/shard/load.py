"""Load generation against a sharded fabric.

The single-cluster :mod:`repro.load` driver targets *nodes*; the sharded
driver targets *keys*, which is what makes the fabric's scaling story
measurable: keys draw from a Zipf-like popularity distribution
(``1/(rank+1)^skew``, the same dial as ``repro.load``), popular keys
hash to whichever shards own them, and the resulting **hot-shard
imbalance** shows up directly in the report (`per_shard` operation
counts and the max/mean ``imbalance`` ratio).  With ``skew=0`` the
consistent-hash ring spreads load evenly and aggregate throughput grows
near-linearly in K — the E19 experiment; with high skew one shard
saturates first and the aggregate flattens, exactly the behaviour a
capacity planner needs to see.

Every run is also a correctness campaign: composed cross-shard
snapshots are taken during the run, and at the end the full two-layer
checker (:func:`repro.shard.check.check_fabric`) verifies per-shard
linearizability plus composed-cut consistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.config import ClusterConfig, scenario_config
from repro.errors import ConfigurationError
from repro.load.driver import CLOSED, OPEN
from repro.obs.registry import MetricsRegistry
from repro.shard.fabric import ShardedFabric, run_on_fabric

__all__ = [
    "ShardLoadReport",
    "ShardLoadSpec",
    "run_shard_load",
    "run_shard_load_campaigns",
]


@dataclass(frozen=True, slots=True)
class ShardLoadSpec:
    """One sharded load run, fully described.

    Mirrors :class:`repro.load.driver.LoadSpec` (same modes, same skew
    dial) with the key-space knobs on top: operations target *keys*
    drawn Zipf-style from a universe of ``keys`` distinct keys
    (default ``0`` = 64 keys per shard), and ``composes`` composed
    cross-shard snapshots are taken while the workload runs.
    """

    mode: str = CLOSED
    clients: int = 8
    depth: int = 1
    rate: float | None = None
    duration: float = 60.0
    write_fraction: float = 0.8
    skew: float = 0.0
    keys: int = 0
    composes: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in (CLOSED, OPEN):
            raise ConfigurationError(
                f"mode must be {CLOSED!r} or {OPEN!r}, got {self.mode!r}"
            )
        if self.mode == OPEN and (self.rate is None or self.rate <= 0):
            raise ConfigurationError("open-loop load needs a positive rate")
        if self.clients < 1:
            raise ConfigurationError(f"clients must be >= 1, got {self.clients}")
        if self.depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {self.depth}")
        if self.duration <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration}"
            )
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigurationError(
                f"write_fraction must be in [0, 1], got {self.write_fraction}"
            )
        if self.skew < 0:
            raise ConfigurationError(f"skew must be >= 0, got {self.skew}")
        if self.keys < 0:
            raise ConfigurationError(f"keys must be >= 0, got {self.keys}")
        if self.composes < 0:
            raise ConfigurationError(
                f"composes must be >= 0, got {self.composes}"
            )


@dataclass(slots=True)
class ShardLoadReport:
    """Outcome of one sharded load run (campaign report protocol)."""

    backend: str
    algorithm: str
    n: int
    shards: int
    epoch: int
    spec: ShardLoadSpec
    offered_rate: float | None
    submitted: int
    completed: int
    errors: int
    elapsed: float
    throughput: float
    latency: dict[str, dict[str, float]]
    per_shard: dict[int, int]
    imbalance: float
    composes: int
    fenced_composes: int
    metrics: dict[str, Any]
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every layer of the checker came back clean."""
        return not self.failures

    def row(self) -> dict[str, Any]:
        """Flatten into one table/JSON row (what the K-sweep serializes)."""
        return {
            "backend": self.backend,
            "algorithm": self.algorithm,
            "n": self.n,
            "shards": self.shards,
            "epoch": self.epoch,
            "mode": self.spec.mode,
            "skew": self.spec.skew,
            "offered_rate": self.offered_rate,
            "submitted": self.submitted,
            "completed": self.completed,
            "errors": self.errors,
            "elapsed": round(self.elapsed, 2),
            "throughput": round(self.throughput, 3),
            "p50": round(self.latency["all"]["p50"], 2),
            "p99": round(self.latency["all"]["p99"], 2),
            "imbalance": round(self.imbalance, 3),
            "composes": self.composes,
            "fenced_composes": self.fenced_composes,
            "linearizable": self.ok,
        }

    def summary(self) -> str:
        """One line per run, campaign-style."""
        return (
            f"{self.spec.mode} load on {self.backend} "
            f"({self.algorithm}, K={self.shards}, n={self.n}): "
            f"{self.completed} ops in {self.elapsed:.1f}u = "
            f"{self.throughput:.2f} op/u, imbalance {self.imbalance:.2f}, "
            f"{self.composes} composed cuts "
            f"({self.fenced_composes} fenced), "
            f"{'linearizable' if self.ok else 'VIOLATIONS'}"
        )


class ShardLoadGenerator:
    """Drives one fabric with one :class:`ShardLoadSpec`."""

    def __init__(
        self,
        fabric: ShardedFabric,
        spec: ShardLoadSpec,
        registry: MetricsRegistry | None = None,
    ) -> None:
        import random

        self.fabric = fabric
        self.spec = spec
        self.registry = registry if registry is not None else MetricsRegistry()
        self.rng = random.Random(spec.seed)
        universe = spec.keys if spec.keys else 64 * fabric.map.shards
        self._keys = [f"k{index}" for index in range(universe)]
        self._weights = [
            1.0 / (rank + 1) ** spec.skew for rank in range(universe)
        ]
        self.per_shard: dict[int, int] = {
            shard_id: 0 for shard_id in fabric.shard_ids
        }
        self.submitted = 0
        self.errors = 0
        self.composes = 0
        self.fenced_composes = 0
        self._last_completion = 0.0
        self._start = 0.0

    # -- op drawing --------------------------------------------------------

    def _draw_op(self) -> tuple[str, str]:
        kind = (
            "write"
            if self.rng.random() < self.spec.write_fraction
            else "scan"
        )
        key = self.rng.choices(self._keys, weights=self._weights)[0]
        return kind, key

    # -- measurement -------------------------------------------------------

    def _submit(self, kind: str, key: str) -> Any:
        kernel = self.fabric.kernel
        shard_id = self.fabric.slot_of(key)[0]
        self.per_shard[shard_id] = self.per_shard.get(shard_id, 0) + 1
        if kind == "write":
            task = self.fabric.submit_write(key, (key, self.submitted))
        else:
            task = self.fabric.submit_scan(key)
        submitted_at = kernel.now
        self.submitted += 1
        hist = self.registry.quantile_histogram(f"load.{kind}_latency")
        overall = self.registry.quantile_histogram("load.latency")

        def _on_done(done: Any) -> None:
            if done.cancelled() or done.exception() is not None:
                self.errors += 1
                self.registry.counter("load.ops_failed").inc()
                return
            latency = kernel.now - submitted_at
            hist.observe(latency)
            overall.observe(latency)
            self.registry.counter("load.ops_completed").inc()
            self._last_completion = kernel.now

        task.add_done_callback(_on_done)
        return task

    # -- loop disciplines --------------------------------------------------

    async def _closed_client(self, deadline: float) -> None:
        kernel = self.fabric.kernel
        window: list[Any] = []
        while kernel.now < deadline:
            if len(window) >= self.spec.depth:
                oldest = window.pop(0)
                try:
                    await oldest
                except Exception:  # counted by _submit's done callback
                    pass
                continue
            kind, key = self._draw_op()
            window.append(self._submit(kind, key))
        await self._drain(window)

    @staticmethod
    async def _drain(tasks: list[Any]) -> None:
        for task in tasks:
            try:
                await task
            except Exception:  # counted by _submit's done callback
                pass

    async def _open_generator(self, deadline: float) -> None:
        kernel = self.fabric.kernel
        rate = self.spec.rate
        tasks: list[Any] = []
        while True:
            await kernel.sleep(self.rng.expovariate(rate))
            if kernel.now >= deadline:
                break
            kind, key = self._draw_op()
            tasks.append(self._submit(kind, key))
        await self._drain(tasks)

    async def _composer(self, deadline: float) -> None:
        """Take composed cuts at even intervals while the load runs."""
        kernel = self.fabric.kernel
        if not self.spec.composes:
            return
        gap = self.spec.duration / (self.spec.composes + 1)
        for _ in range(self.spec.composes):
            await kernel.sleep(gap)
            if kernel.now >= deadline:
                break
            cut = await self.fabric.compose_snapshot()
            self.composes += 1
            if cut.fenced:
                self.fenced_composes += 1

    async def run(self) -> None:
        """Submit for ``spec.duration``, then drain every outstanding op."""
        kernel = self.fabric.kernel
        self._start = kernel.now
        self._last_completion = self._start
        deadline = self._start + self.spec.duration
        composer = kernel.create_task(
            self._composer(deadline), name="load-composer"
        )
        if self.spec.mode == CLOSED:
            clients = [
                kernel.create_task(
                    self._closed_client(deadline), name=f"load-client{i}"
                )
                for i in range(self.spec.clients)
            ]
            for client in clients:
                await client
        else:
            await self._open_generator(deadline)
        await composer

    # -- reporting ---------------------------------------------------------

    def report(self, backend: str, failures: list[str]) -> ShardLoadReport:
        """Package the run's measurements (call after :meth:`run`)."""

        def stats(name: str) -> dict[str, float]:
            return self.registry.quantile_histogram(name).value

        completed = self.registry.counter("load.ops_completed").value
        elapsed = max(self._last_completion - self._start, 1e-9)
        counts = [self.per_shard.get(sid, 0) for sid in self.fabric.shard_ids]
        mean = sum(counts) / max(len(counts), 1)
        imbalance = (max(counts) / mean) if mean > 0 else 1.0
        return ShardLoadReport(
            backend=backend,
            algorithm=self.fabric.algorithm_name,
            n=self.fabric.n,
            shards=self.fabric.map.shards,
            epoch=self.fabric.epoch,
            spec=self.spec,
            offered_rate=self.spec.rate,
            submitted=self.submitted,
            completed=completed,
            errors=self.errors,
            elapsed=elapsed,
            throughput=completed / elapsed,
            latency={
                "all": stats("load.latency"),
                "write": stats("load.write_latency"),
                "scan": stats("load.scan_latency"),
            },
            per_shard=dict(self.per_shard),
            imbalance=imbalance,
            composes=self.composes,
            fenced_composes=self.fenced_composes,
            metrics=self.registry.collect(),
            failures=failures,
        )


def run_shard_load(
    backend: str = "sim",
    shards: int = 4,
    algorithm: str = "ss-nonblocking",
    config: ClusterConfig | None = None,
    spec: ShardLoadSpec | None = None,
    *,
    time_scale: float = 0.002,
    check: bool = True,
    decider=None,
) -> ShardLoadReport:
    """Run one sharded load pass on the named backend.

    Deploys a K-shard fabric via
    :func:`~repro.shard.fabric.run_on_fabric`, drives it with ``spec``
    (default: a closed-loop mixed workload with mid-run composed cuts),
    and returns a :class:`ShardLoadReport`.  With ``check`` (the
    default) the full two-layer checker runs at the end; violations
    land in ``report.failures``.  ``decider`` passes through to the
    fabric (``"consensus"`` makes mid-run splits consensus-backed).
    """
    spec = spec if spec is not None else ShardLoadSpec()
    config = config if config is not None else scenario_config(n=4, delta=2)

    async def body(fabric: ShardedFabric) -> ShardLoadReport:
        generator = ShardLoadGenerator(fabric, spec)
        await generator.run()
        # A final composed cut so even compose-free specs get checked.
        final = await fabric.compose_snapshot()
        generator.composes += 1
        if final.fenced:
            generator.fenced_composes += 1
        failures = fabric.check() if check else []
        return generator.report(backend, failures)

    return run_on_fabric(
        backend,
        shards,
        algorithm,
        config,
        body,
        time_scale=time_scale,
        decider=decider,
    )


def run_shard_load_campaigns(
    seeds: list[int],
    shards: int = 4,
    algorithm: str = "ss-nonblocking",
    budget: int = 60,
    backend: str = "sim",
    spec: ShardLoadSpec | None = None,
    n: int = 4,
    delta: float = 2,
    batch: int | None = None,
    time_scale: float = 0.002,
) -> list[ShardLoadReport]:
    """One sharded load run per seed — the campaign entry point.

    ``budget`` is the submission-window duration in simulated time
    units, matching the single-cluster load campaigns.  ``batch`` sets
    every shard's transport batch window (``ChannelConfig.batch_window``).
    """
    base = spec if spec is not None else ShardLoadSpec()
    reports = []
    for seed in seeds:
        run_spec = replace(base, seed=seed, duration=float(budget))
        config = scenario_config(n=n, seed=seed, delta=delta, batch=batch)
        reports.append(
            run_shard_load(
                backend=backend,
                shards=shards,
                algorithm=algorithm,
                config=config,
                spec=run_spec,
                time_scale=time_scale,
            )
        )
    return reports
