"""Open- and closed-loop load generation against a cluster or a fabric.

Every harness before this module issued one operation at a time, so the
paper's headline economics — one round trip per operation, throughput
that scales with *concurrent* clients — were never measured.  The load
driver closes that gap:

* **closed loop** — ``clients`` concurrent clients, each keeping
  ``depth`` operations in flight and submitting the next the moment its
  oldest completes.  Measures the system's service capacity.
* **open loop** — operations *arrive* at an offered rate ``rate``
  (seeded-Poisson inter-arrival gaps) regardless of completions, so
  queueing delay becomes visible: past the saturation point latency
  diverges while throughput flattens.  This is the mode the
  :mod:`repro.load.sweep` knee-finder drives.

There is one generator, and what it drives is passed in as two values:
a list of **targets** and an ``issue(kind, target, payload)`` callable
returning the operation's task handle.  Against a single cluster the
targets are *nodes* (``cluster.submit_write`` / ``submit_snapshot`` —
the paper's object, driven directly); against a K-shard fabric
(``run_load(..., shards=K)``) they are *keys* routed by the
consistent-hash ring, with composed cross-shard cuts taken while the
workload runs and the two-layer checker
(:func:`repro.shard.check.check_fabric`) at the end.

The **contention dimension** is the operation mix: ``write_fraction``
sets the writers:scanners ratio and ``skew`` concentrates traffic on
low-ranked targets (a Zipf-like weight ``1/(rank+1)^skew``).  Over nodes
that is per-register skew; over keys it is key popularity, and popular
keys hash to whichever shards own them, so the **hot-shard imbalance**
shows up directly in the report (``per_shard`` counts and the max/mean
``imbalance`` ratio).  Every operation's latency is kept, and the
report's p50/p95/p99 are exact nearest-rank order statistics over those
samples (:func:`~repro.analysis.metrics.percentile`); the recorded
operation history is checked for
linearizability at the end, so a load run is also a correctness
campaign.

On the ``sim`` backend a load run is fully deterministic: same
:class:`LoadSpec` + same seed ⇒ identical operation history.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from repro.analysis.linearizability import check_snapshot_history
from repro.analysis.metrics import percentile
from repro.backend.base import run_on_backend
from repro.config import ClusterConfig, scenario_config
from repro.errors import ConfigurationError
from repro.obs.attribution import blame_aggregate, blame_rows, dominant_phases
from repro.obs.registry import MetricsRegistry
from repro.shard.fabric import ShardedFabric, run_on_fabric

__all__ = [
    "CLOSED",
    "OPEN",
    "LoadGenerator",
    "LoadSpec",
    "LoadReport",
    "parse_mix",
    "latency_summary",
    "run_load",
    "run_load_campaigns",
]

CLOSED = "closed"
OPEN = "open"


def parse_mix(mix: str) -> float:
    """``"writers:scanners"`` (e.g. ``"8:2"``) → write fraction."""
    try:
        writers_str, scanners_str = mix.split(":")
        writers, scanners = float(writers_str), float(scanners_str)
    except ValueError:
        raise ConfigurationError(
            f"mix must look like 'writers:scanners' (e.g. '8:2'), got {mix!r}"
        ) from None
    if writers < 0 or scanners < 0 or writers + scanners <= 0:
        raise ConfigurationError(f"mix needs non-negative weights, got {mix!r}")
    return writers / (writers + scanners)


@dataclass(frozen=True, slots=True)
class LoadSpec:
    """One load-generation run, fully described.

    Attributes
    ----------
    mode:
        ``"closed"`` (clients self-clock on completions) or ``"open"``
        (arrivals at ``rate``, independent of completions).
    clients:
        Concurrent clients (closed loop only).
    depth:
        Pipeline depth per closed-loop client — operations each client
        keeps in flight (``1`` = today's serial round-tripping).
    rate:
        Offered load in operations per simulated time unit (open loop
        only).
    duration:
        Length of the submission window in simulated time units; after
        it closes, outstanding operations drain and are still measured.
    write_fraction:
        Probability an operation is a write (the writers:scanners mix;
        see :func:`parse_mix`).
    skew:
        Zipf-like exponent concentrating operations on low-ranked
        targets (``0`` = uniform): low node ids on a cluster, popular
        keys — hence hot shards — on a fabric.
    composes:
        Composed cross-shard snapshots taken at even intervals while the
        workload runs (fabric runs only; a final cut is always taken).
    seed:
        Seeds the workload's own RNG (op kinds, targets, arrival gaps).
        Distinct from the cluster seed so workload and schedule vary
        independently.
    """

    mode: str = CLOSED
    clients: int = 8
    depth: int = 1
    rate: float | None = None
    duration: float = 60.0
    write_fraction: float = 0.8
    skew: float = 0.0
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
        if self.composes < 0:
            raise ConfigurationError(
                f"composes must be >= 0, got {self.composes}"
            )


@dataclass(slots=True)
class LoadReport:
    """Outcome of one load run — the unified campaign report protocol."""

    backend: str
    algorithm: str
    n: int
    spec: LoadSpec
    offered_rate: float | None
    submitted: int
    completed: int
    errors: int
    elapsed: float
    throughput: float
    metrics: dict[str, Any]
    #: Critical-path attribution for the run (``None`` unless a single
    #: cluster ran under an ambient obs session — ``--stats``, ``top``):
    #: which node the tail blames, how strongly, where operation time
    #: went, and the full per-node blame rows.
    attribution: dict[str, Any] | None = None
    failures: list[str] = field(default_factory=list)
    #: Fabric runs only (``shards`` is ``None`` for a single cluster):
    #: the shard count, operations routed to each shard, and the
    #: composed cuts taken (of which how many needed the write fence).
    shards: int | None = None
    per_shard: dict[int, int] = field(default_factory=dict)
    composes: int = 0
    fenced_composes: int = 0
    #: The completed operations' latencies, ascending, per kind
    #: (``"write"``, ``"snapshot"``): what :attr:`latency` summarises and
    #: what a caller pools across runs (E18).
    samples: dict[str, list[float]] = field(default_factory=dict)

    @property
    def latency(self) -> dict[str, dict[str, float]]:
        """``"all"``, ``"write"`` and ``"snapshot"`` → :func:`latency_summary`
        of :attr:`samples`."""
        writes = self.samples.get("write", [])
        snapshots = self.samples.get("snapshot", [])
        return {
            "all": latency_summary(sorted(writes + snapshots)),
            "write": latency_summary(writes),
            "snapshot": latency_summary(snapshots),
        }

    @property
    def ok(self) -> bool:
        """True when every layer of the checker came back clean."""
        return not self.failures

    @property
    def imbalance(self) -> float:
        """Hot-shard ratio: busiest shard's operations over the mean."""
        counts = list(self.per_shard.values())
        mean = sum(counts) / max(len(counts), 1)
        return max(counts) / mean if mean > 0 else 1.0

    def quantile(self, kind: str, q: str) -> float:
        """Convenience accessor, e.g. ``report.quantile("write", "p99")``."""
        return self.latency[kind][q]

    def summary(self) -> str:
        """One line per run, campaign-style."""
        head = f"{self.spec.mode} load on {self.backend} ({self.algorithm}, "
        rate = (
            f"{self.completed} ops in {self.elapsed:.1f}u = "
            f"{self.throughput:.2f} op/u, "
        )
        verdict = "linearizable" if self.ok else "VIOLATIONS"
        if self.shards is not None:
            return (
                f"{head}K={self.shards}, n={self.n}): {rate}"
                f"imbalance {self.imbalance:.2f}, "
                f"{self.composes} composed cuts "
                f"({self.fenced_composes} fenced), {verdict}"
            )
        offered = (
            f"offered {self.offered_rate:g} op/u, " if self.offered_rate else ""
        )
        return (
            f"{head}n={self.n}): {offered}{rate}"
            f"p50 {self.latency['all']['p50']:.1f}u"
            f" p99 {self.latency['all']['p99']:.1f}u, {verdict}"
        )


def latency_summary(samples: list[float]) -> dict[str, float]:
    """Count, sum, min, max, mean and exact p50/p95/p99 of ascending samples."""
    count = len(samples)
    total = sum(samples)
    return {
        "count": count,
        "sum": total,
        "min": samples[0] if samples else 0.0,
        "max": samples[-1] if samples else 0.0,
        "mean": total / count if count else 0.0,
        "p50": percentile(samples, 0.50),
        "p95": percentile(samples, 0.95),
        "p99": percentile(samples, 0.99),
    }


async def _settle(task: Any) -> None:
    try:
        await task
    except Exception:  # counted by the generator's done callback
        pass


class LoadGenerator:
    """Drives one deployment with one :class:`LoadSpec`; collects metrics.

    ``LoadGenerator(cluster, spec)`` targets the cluster's nodes.  Any
    other deployment passes its own ``targets`` and
    ``issue(kind, target, payload)`` (``kind`` is ``"write"`` or
    ``"snapshot"``; the return value is the operation's task handle) and
    needs only a ``kernel`` attribute.

    Every completed operation's latency is kept for :meth:`report`'s exact
    quantiles, so memory grows with the operations of the run: accepted
    for runs of a set ``spec.duration`` that end in a report.  A run that
    never reads the report (``repro top``) passes ``record(kind,
    latency)`` instead, and the generator keeps no latency itself.
    """

    def __init__(
        self,
        cluster: Any,
        spec: LoadSpec,
        *,
        targets: Sequence[Any] | None = None,
        issue: Callable[[str, Any, Any], Any] | None = None,
        record: Callable[[str, float], None] | None = None,
    ) -> None:
        self.cluster = cluster
        self.spec = spec
        self.registry = MetricsRegistry()
        self.rng = random.Random(spec.seed)
        #: Open-loop submissions; nothing awaits them while they arrive.
        self._arrivals: list[Any] = []
        if issue is None:

            def issue(kind: str, node: int, payload: Any) -> Any:
                if kind == "write":
                    return cluster.submit_write(node, payload)
                return cluster.submit_snapshot(node)

            targets = range(cluster.config.n)
            # The cluster knows the fewest handles that cover what was
            # submitted to it (one chain tail per node under FIFO
            # dispatch).  Fewer awaits matter on the simulator: waking
            # from a pending task is a kernel callback, and every
            # callback draws a tie-break from the schedule RNG.
            self._unawaited = cluster.outstanding_ops
        else:
            self._unawaited = lambda: self._arrivals
        self._targets = list(targets)
        self._issue = issue
        self._weights = [
            1.0 / (rank + 1) ** spec.skew for rank in range(len(self._targets))
        ]
        self._in_flight = 0
        #: Completed operations' latencies per kind, in completion order.
        self._latencies: dict[str, list[float]] = {"write": [], "snapshot": []}
        self._record = record or (
            lambda kind, latency: self._latencies[kind].append(latency)
        )
        self._start = 0.0
        self._last_completion = 0.0
        self.submitted = 0
        self.errors = 0

    def _submit(self) -> Any:
        """Draw one operation, issue it, and time it to completion."""
        kind = (
            "write"
            if self.rng.random() < self.spec.write_fraction
            else "snapshot"
        )
        target = self.rng.choices(self._targets, weights=self._weights)[0]
        task = self._issue(kind, target, (target, self.submitted))
        kernel = self.cluster.kernel
        submitted_at = kernel.now
        self.submitted += 1
        self._in_flight += 1
        gauge = self.registry.gauge("load.max_in_flight")
        if self._in_flight > gauge.value:
            gauge.set(self._in_flight)
        record = self._record

        def _on_done(done: Any) -> None:
            self._in_flight -= 1
            failed = done.cancelled() or done.exception() is not None
            if failed:
                self.errors += 1
                self.registry.counter("load.ops_failed").inc()
                return
            record(kind, kernel.now - submitted_at)
            self.registry.counter("load.ops_completed").inc()
            self._last_completion = kernel.now

        task.add_done_callback(_on_done)
        return task

    # -- the two loop disciplines -----------------------------------------

    async def _closed_client(self, deadline: float) -> None:
        kernel = self.cluster.kernel
        window: list[Any] = []
        while kernel.now < deadline:
            if len(window) >= self.spec.depth:
                await _settle(window.pop(0))
                continue
            window.append(self._submit())
        for task in window:
            await _settle(task)

    async def _open_generator(self, deadline: float) -> None:
        kernel = self.cluster.kernel
        rate = self.spec.rate
        while True:
            await kernel.sleep(self.rng.expovariate(rate))
            if kernel.now >= deadline:
                return
            self._arrivals.append(self._submit())

    async def run(self) -> None:
        """Submit for ``spec.duration``, then drain every outstanding op."""
        kernel = self.cluster.kernel
        self._start = self._last_completion = kernel.now
        deadline = self._start + self.spec.duration
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
            for task in self._unawaited():
                await _settle(task)

    # -- reporting ---------------------------------------------------------

    def attribution(self) -> dict[str, Any] | None:
        """Critical-path attribution for the driven cluster's operations.

        Reduces the observed spans (this cluster's only) to the blame
        table plus headline fields: the most-blamed node (tie → lower
        id), its blame share, and the phase where operation time went.
        ``None`` when the cluster ran unobserved or nothing attributed.
        """
        cobs = getattr(self.cluster, "obs", None)
        if cobs is None:
            return None
        spans = [
            span
            for span in cobs.session.recorder.spans
            if span.cluster == cobs.index
        ]
        aggregate = blame_aggregate(spans)
        if not aggregate["attributed"]:
            return None
        rows = blame_rows(aggregate)
        top = max(rows, key=lambda row: (row["blamed"], -row["node"]))
        phases = dominant_phases(spans)
        dominant = (
            max(phases.items(), key=lambda item: item[1])[0] if phases else None
        )
        return {
            "attributed": aggregate["attributed"],
            "slowest_node": top["node"],
            "blame_share": top["blame_share"],
            "dominant_phase": dominant,
            "nodes": rows,
        }

    def report(
        self, backend: str, n: int, failures: list[str], **fabric: Any
    ) -> LoadReport:
        """Package the run's measurements (call after :meth:`run`).

        ``fabric`` carries the fabric-only :class:`LoadReport` fields.
        """

        completed = self.registry.counter("load.ops_completed").value
        elapsed = max(self._last_completion - self._start, 1e-9)
        return LoadReport(
            backend=backend,
            algorithm=self.cluster.algorithm_name,
            n=n,
            spec=self.spec,
            offered_rate=self.spec.rate,
            submitted=self.submitted,
            completed=completed,
            errors=self.errors,
            elapsed=elapsed,
            throughput=completed / elapsed,
            metrics=self.registry.collect(),
            attribution=self.attribution(),
            failures=failures,
            samples={
                kind: sorted(latencies)
                for kind, latencies in self._latencies.items()
            },
            **fabric,
        )


def run_load(
    backend: str = "sim",
    algorithm: str = "ss-nonblocking",
    config: ClusterConfig | None = None,
    spec: LoadSpec | None = None,
    *,
    shards: int | None = None,
    time_scale: float = 0.002,
    check: bool = True,
) -> LoadReport:
    """Run one load generation pass on the named backend.

    Deploys one cluster via :func:`~repro.backend.base.run_on_backend` —
    or, with ``shards=K``, a K-shard fabric via
    :func:`~repro.shard.fabric.run_on_fabric` whose every shard uses
    ``config`` — drives it with ``spec`` (default: a closed-loop mixed
    workload), and returns a :class:`LoadReport`.  With ``check`` (the
    default) the recorded history is verified linearizable — per shard
    and over the keys on a fabric; violations land in
    ``report.failures``.

    The report's tail-latency attribution is filled when an ambient obs
    session is installed (``--stats``, ``top``).  Observation never
    draws from the schedule RNG, so the operation history is identical
    either way.
    """
    spec = spec if spec is not None else LoadSpec()
    config = config if config is not None else scenario_config(n=4, delta=2)

    async def drive_cluster(cluster: Any) -> LoadReport:
        generator = LoadGenerator(cluster, spec)
        await generator.run()
        failures: list[str] = []
        if check:
            cluster.history.validate_well_formed(
                sequential=not cluster.concurrent_clients
            )
            verdict = check_snapshot_history(
                cluster.history.records(), n=config.n
            )
            if not verdict.ok:
                failures.extend(verdict.violations)
        return generator.report(backend, config.n, failures)

    async def drive_fabric(fabric: ShardedFabric) -> LoadReport:
        kernel = fabric.kernel
        per_shard = dict.fromkeys(fabric.shard_ids, 0)
        cuts = []

        def issue(kind: str, key: str, payload: Any) -> Any:
            per_shard[fabric.slot_of(key)[0]] += 1
            if kind == "write":
                return fabric.submit_write(key, payload)
            return fabric.submit_scan(key)

        async def composer() -> None:
            deadline = kernel.now + spec.duration
            for _ in range(spec.composes):
                await kernel.sleep(spec.duration / (spec.composes + 1))
                if kernel.now >= deadline:
                    break
                cuts.append(await fabric.compose_snapshot())

        generator = LoadGenerator(
            fabric,
            spec,
            targets=[f"k{index}" for index in range(64 * shards)],
            issue=issue,
        )
        cutter = kernel.create_task(composer(), name="load-composer")
        await generator.run()
        await cutter
        # A final composed cut so even compose-free specs get checked.
        cuts.append(await fabric.compose_snapshot())
        return generator.report(
            backend,
            config.n,
            fabric.check() if check else [],
            shards=shards,
            per_shard=per_shard,
            composes=len(cuts),
            fenced_composes=sum(cut.fenced for cut in cuts),
        )

    if shards is not None:
        return run_on_fabric(
            backend, shards, algorithm, config, drive_fabric,
            time_scale=time_scale,
        )
    return run_on_backend(
        backend, algorithm, config, drive_cluster,
        time_scale=time_scale, max_events=None,
    )


def run_load_campaigns(
    seeds: list[int],
    jobs: int = 1,
    algorithm: str = "ss-nonblocking",
    budget: int = 60,
    backend: str = "sim",
    spec: LoadSpec | None = None,
    n: int = 4,
    delta: float = 2,
    batch: int | None = None,
    time_scale: float = 0.002,
    shards: int | None = None,
) -> list[LoadReport]:
    """One load run per seed — the unified campaign entry point.

    ``budget`` is the submission-window duration in simulated time
    units.  ``batch`` sets the transport batch window
    (``ChannelConfig.batch_window``; ``None``/1 = unbatched) and
    ``shards`` targets a K-shard fabric instead of one cluster.  Load
    measurements are throughput-sensitive, so runs always execute
    serially; asking for ``--jobs`` > 1 off-sim raises the shared
    capability error.
    """
    from repro.backend import backend_capabilities

    capabilities = backend_capabilities(backend)  # validates the name
    if jobs > 1:
        capabilities.require("process_fanout", f"--jobs {jobs}")
    base = spec if spec is not None else LoadSpec()
    reports = []
    for seed in seeds:
        run_spec = replace(base, seed=seed, duration=float(budget))
        config = scenario_config(n=n, seed=seed, delta=delta, batch=batch)
        reports.append(
            run_load(
                backend=backend,
                algorithm=algorithm,
                config=config,
                spec=run_spec,
                shards=shards,
                time_scale=time_scale,
            )
        )
    return reports
