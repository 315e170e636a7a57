"""One deployment + drive + check per workload.

Three runners share :func:`ledger.loadgen.closed_loop`:

* ``backend`` — a single cluster driven through
  ``ClusterBackend.submit_write`` / ``submit_snapshot`` (sim or udp);
* ``client``  — a K-shard fabric driven only through
  ``SnapshotClient.write`` / ``read`` / ``snapshot`` / ``check``;
* ``storm``   — epochs of lossy load with a scripted crash and minority
  partition, each ending in an arbitrary-state scramble whose recovery
  is measured from the first post-fault invocation.

Each returns a :class:`RunResult`; set-up, drive and check are timed
separately so work moved between them shows.  Library entry points are
looked up through their modules at call time (``linearizability.
check_snapshot_history``), so the tracer's shims see these calls too.
"""

from __future__ import annotations

import asyncio
import errno
import hashlib
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro.analysis import invariants, linearizability
from repro.analysis.history import HistoryRecorder
from repro.backend import run_on_backend
from repro.client import SnapshotClient
from repro.config import scenario_config
from repro.errors import ReproError

from ledger.catalog import Workload
from ledger.loadgen import COMPOSE, READ, WRITE, LoadStats, closed_loop, plan_ops

__all__ = ["RunResult", "Traffic", "run_once", "scaled_ops"]

#: Drain deadlines: simulated units on sim, wall seconds on live backends.
DEADLINE_SIM_U = 500.0
DEADLINE_WALL_S = 30.0
#: Cap on the cycles waited for a Definition-1 state after a scramble.
RECOVERY_CYCLE_CAP = 200
#: How long the crashed node stays down / the partition stays up (sim units).
FAULT_HOLD_U = 20.0


@dataclass(slots=True)
class RunResult:
    """Everything one repetition measured (raw, before medians)."""

    setup_s: float
    drive_s: float
    check_s: float
    elapsed_u: float
    stats: LoadStats
    violations: list[str]
    traffic: "Traffic"
    events: int | None
    digest: str | None
    #: (records, n) per checked history, for the replay probes
    histories: list[tuple[list, int]] = field(default_factory=list)
    #: respond - invoke summed over the recorded operations (kernel units)
    service_u: float = 0.0
    extras: dict = field(default_factory=dict)


class _NoTracer:
    """Stand-in used on untraced runs: every hook is a no-op."""

    enabled = False

    def phase(self, name: str):
        return nullcontext()

    def span(self, name: str, layer: str):
        return nullcontext()

    def step(self, coro: Any, name: str, layer: str) -> Any:
        return coro


def scaled_ops(w: Workload, scale: float) -> int:
    return max(w.clients * w.depth * 2, int(w.ops * scale))


def _deadline_u(w: Workload) -> float:
    if w.deterministic:
        return DEADLINE_SIM_U
    return DEADLINE_WALL_S / w.time_scale


def _history_digest(hasher: Any, records: list) -> None:
    for r in records:
        result = r.result
        if hasattr(result, "vector_clock"):
            result = tuple(result.vector_clock)
        hasher.update(
            repr((r.node_id, r.kind, r.invoked_at, r.responded_at, result)).encode()
        )


def _service_u(records: list) -> float:
    return sum(
        r.responded_at - r.invoked_at
        for r in records
        if r.responded_at is not None and not r.aborted
    )


def _check_history(history: Any, n: int, sequential: bool) -> list[str]:
    violations = []
    try:
        history.validate_well_formed(sequential=sequential)
    except ReproError as exc:
        violations.append(f"malformed history: {exc}")
    report = linearizability.check_snapshot_history(history.records(), n=n)
    violations.extend(report.violations)
    return violations


@dataclass(frozen=True, slots=True)
class Traffic:
    """The ``cluster.metrics`` totals the ledger reads, summed over clusters."""

    total_messages: int
    total_bytes: int
    dropped_loss: int
    dropped_capacity: int
    duplicated: int
    batches: int
    batched_messages: int

    @classmethod
    def of(cls, clusters: list) -> "Traffic":
        snapshots = [cluster.metrics.snapshot() for cluster in clusters]
        return cls(*(
            sum(getattr(snap, name) for snap in snapshots)
            for name in cls.__slots__
        ))


def _run_deployment(w: Workload, config: Any, body: Any) -> Any:
    """``run_on_backend`` with one retry if a socket bind races (udp).

    ``run_on_backend`` closes the deployment (sockets included) on every
    exit path; ports are ephemeral, so EADDRINUSE means another process
    grabbed one between bind attempts and trying again is the remedy.
    """
    for attempt in (0, 1):
        try:
            return run_on_backend(
                w.backend,
                w.algorithm,
                config,
                body,
                time_scale=w.time_scale,
                max_events=None,
            )
        except OSError as exc:
            if exc.errno != errno.EADDRINUSE or attempt:
                raise


# -- backend: one cluster through submit_write / submit_snapshot ------------


def _run_backend(
    w: Workload, seed: int, scale: float, tracer: Any, check: bool
) -> RunResult:
    config = scenario_config(n=w.n, seed=seed, **w.config)
    ops = plan_ops(random.Random(seed + 1000), scaled_ops(w, scale), w.write_fraction)
    n = w.n
    started = perf_counter()

    async def body(cluster: Any) -> tuple:
        setup_s = perf_counter() - started

        def issue(op: Any) -> Any:
            node = int(op.draw * n)
            if op.kind == WRITE:
                return cluster.submit_write(node, (node, op.seq))
            return cluster.submit_snapshot(node)

        lag = _start_heartbeat(cluster.kernel, w, tracer)
        # On the simulator ``Kernel.run_until_complete`` is the root span;
        # a live loop has no such entry point, so the drive opens one (a
        # span may stay open across awaits only where no shim encloses it).
        root = tracer.enabled and not w.deterministic
        with tracer.span("asyncio.loop", "runtime") if root else nullcontext():
            stats = await closed_loop(
                cluster.kernel,
                ops,
                issue,
                clients=w.clients,
                depth=w.depth,
                deadline_u=_deadline_u(w),
                wrap_client=lambda c: tracer.step(c, "ledger.client", "ledger"),
            )
        return cluster, setup_s, stats, _stop_heartbeat(lag)

    with tracer.phase("drive"):
        cluster, setup_s, stats, loop_lag_ms = _run_deployment(w, config, body)
    records = cluster.history.records()
    sequential = not cluster.concurrent_clients
    with tracer.phase("check"), tracer.span("ledger.check", "ledger"):
        t0 = perf_counter()
        violations = _check_history(cluster.history, n, sequential) if check else []
        check_s = perf_counter() - t0
    digest = None
    if w.deterministic:
        hasher = hashlib.sha256()
        _history_digest(hasher, records)
        digest = hasher.hexdigest()
    return RunResult(
        setup_s=setup_s,
        drive_s=stats.drive_s,
        check_s=check_s,
        elapsed_u=stats.elapsed_u,
        stats=stats,
        violations=violations,
        traffic=Traffic.of([cluster]),
        events=getattr(cluster.kernel, "events_processed", None),
        digest=digest,
        histories=[(records, n)],
        service_u=_service_u(records),
        extras={"loop_lag_ms": loop_lag_ms},
    )


def _start_heartbeat(kernel: Any, w: Workload, tracer: Any) -> Any:
    """Traced live runs only: a 5 ms heartbeat whose overshoot is loop lag."""
    if w.deterministic or not tracer.enabled:
        return None
    lags: list[float] = []

    async def beat() -> None:
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(0.005)
            lags.append((loop.time() - before - 0.005) * 1e3)

    return kernel.create_task(beat(), name="ledger-heartbeat"), lags


def _stop_heartbeat(handle: Any) -> list[float] | None:
    if handle is None:
        return None
    task, lags = handle
    task.cancel()
    return lags


# -- client: K shards, only through SnapshotClient ---------------------------


def _run_client(
    w: Workload, seed: int, scale: float, tracer: Any, check: bool
) -> RunResult:
    config = scenario_config(n=w.n, seed=seed, **w.config)
    count = scaled_ops(w, scale)
    every = max(20, int(w.compose_every * min(scale, 1.0)))
    ops = plan_ops(
        random.Random(seed + 1000), count, w.write_fraction, READ, compose_every=every
    )
    started = perf_counter()
    client = SnapshotClient.local(shards=w.shards, algorithm=w.algorithm, config=config)
    kernel = client.fabric.kernel
    setup_s = perf_counter() - started
    keys = [f"k{i}" for i in range(w.keys)]

    def issue(op: Any) -> Any:
        if op.kind == COMPOSE:
            coro = client.snapshot()
        elif op.kind == WRITE:
            coro = client.write(keys[int(op.draw * len(keys))], op.seq)
        else:
            coro = client.read(keys[int(op.draw * len(keys))])
        return kernel.create_task(coro, name=op.kind)

    async def body() -> LoadStats:
        return await closed_loop(
            kernel,
            ops,
            issue,
            clients=w.clients,
            depth=w.depth,
            deadline_u=DEADLINE_SIM_U,
            wrap_client=lambda c: tracer.step(c, "ledger.client", "ledger"),
        )

    try:
        with tracer.phase("drive"):
            stats = client.run(body(), max_events=None)
    finally:
        client.fabric.stop()
    with tracer.phase("check"), tracer.span("ledger.check", "ledger"):
        t0 = perf_counter()
        violations = list(client.check()) if check else []
        check_s = perf_counter() - t0
    backends = client.fabric.backends()
    hasher = hashlib.sha256()
    histories = []
    per_shard = []
    service_u = 0.0
    for backend in backends:
        records = backend.history.records()
        _history_digest(hasher, records)
        histories.append((records, w.n))
        per_shard.append(len(records))
        service_u += _service_u(records)
    composed = client.fabric.composed
    return RunResult(
        setup_s=setup_s,
        drive_s=stats.drive_s,
        check_s=check_s,
        elapsed_u=stats.elapsed_u,
        stats=stats,
        violations=violations,
        traffic=Traffic.of(backends),
        events=kernel.events_processed,
        digest=hasher.hexdigest(),
        histories=histories,
        service_u=service_u,
        extras={
            "per_shard_ops": per_shard,
            "compose_u": [c.responded - c.invoked for c in composed],
            "compose_fenced": sum(1 for c in composed if c.fenced),
        },
    )


# -- storm: lossy epochs, scripted faults, scramble, measured recovery ------


def _run_storm(
    w: Workload, seed: int, scale: float, tracer: Any, check: bool
) -> RunResult:
    config = scenario_config(n=w.n, seed=seed, **w.config)
    rng = random.Random(seed + 1000)
    epochs = max(2, round(w.epochs * scale))
    per_epoch = w.ops // w.epochs
    n = w.n
    total = LoadStats()
    violations: list[str] = []
    hasher = hashlib.sha256()
    histories: list[tuple[list, int]] = []
    extras: dict = {
        "recovery_cycles": [],
        "post_fault_pair_u": [],
        "post_fault_wrong_ops": 0,
        "unrecovered": 0,
    }
    timing = {"drive_s": 0.0, "elapsed_u": 0.0, "check_s": 0.0, "service_u": 0.0}
    started = perf_counter()

    async def body(cluster: Any) -> tuple:
        setup_s = perf_counter() - started
        kernel = cluster.kernel

        def issue(op: Any) -> Any:
            alive = cluster.alive_nodes()
            node = alive[int(op.draw * len(alive))]
            if op.kind == WRITE:
                return cluster.submit_write(node, (node, op.seq))
            return cluster.submit_snapshot(node)

        async def adversary(crash_at, victim, split_at, minority) -> None:
            await kernel.sleep(crash_at)
            cluster.crash(victim)
            await kernel.sleep(FAULT_HOLD_U)
            cluster.resume(victim)
            await kernel.sleep(split_at)
            cluster.partition(minority, set(range(n)) - minority)
            await kernel.sleep(FAULT_HOLD_U)
            cluster.heal()

        for epoch in range(epochs):
            cluster.history = HistoryRecorder()
            ops = plan_ops(rng, per_epoch, w.write_fraction)
            victim = rng.randrange(n)
            minority = set(rng.sample(range(n), (n - 1) // 2))
            faults = kernel.create_task(
                adversary(
                    rng.uniform(10.0, 40.0), victim, rng.uniform(10.0, 40.0), minority
                ),
                name="ledger-adversary",
            )
            stats = await closed_loop(
                kernel,
                ops,
                issue,
                clients=w.clients,
                depth=w.depth,
                deadline_u=DEADLINE_SIM_U,
                wrap_client=lambda c: tracer.step(c, "ledger.client", "ledger"),
            )
            await faults  # bounded: four sleeps of at most 40 u each
            timing["drive_s"] += stats.drive_s
            timing["elapsed_u"] += stats.elapsed_u
            total.absorb(stats)

            records = cluster.history.records()
            t0 = perf_counter()
            if check:
                violations.extend(
                    f"epoch {epoch}: {v}"
                    for v in _check_history(cluster.history, n, True)
                )
            timing["check_s"] += perf_counter() - t0
            timing["service_u"] += _service_u(records)
            _history_digest(hasher, records)
            histories.append((records, n))

            await _scramble_and_recover(cluster, seed * 1000 + epoch, extras)
        return cluster, setup_s

    with tracer.phase("drive"):
        cluster, setup_s = _run_deployment(w, config, body)
    hasher.update(repr(extras["recovery_cycles"]).encode())
    if extras["unrecovered"]:
        violations.append(
            f"{extras['unrecovered']} scramble(s) not Definition-1 consistent "
            f"within {RECOVERY_CYCLE_CAP} cycles"
        )
    return RunResult(
        setup_s=setup_s,
        drive_s=timing["drive_s"],
        check_s=timing["check_s"],
        elapsed_u=timing["elapsed_u"],
        stats=total,
        violations=violations,
        traffic=Traffic.of([cluster]),
        events=cluster.kernel.events_processed,
        digest=hasher.hexdigest(),
        histories=histories,
        service_u=timing["service_u"],
        extras=extras,
    )


async def _scramble_and_recover(cluster: Any, fault_seed: int, extras: dict) -> None:
    """Scramble everything, invoke write@0 then snapshot@1 at once, count cycles.

    The pair runs against a throw-away history: right after an
    arbitrary-state fault the object is allowed to answer wrongly (the
    paper is self-, not snap-stabilizing), which is counted, not checked.
    """
    kernel = cluster.kernel
    cluster.history = HistoryRecorder()
    cluster.inject(seed=fault_seed).scramble_everything()
    cluster.tracker.reset()
    fault_at = kernel.now
    marker = ("post-fault", fault_seed)

    async def pair() -> tuple[bool, float]:
        ts = await cluster.write(0, marker)
        snap = await cluster.snapshot(1)
        saw = snap.vector_clock[0] >= ts and snap.values[0] == marker
        return saw, kernel.now

    async def cycles_to_consistent() -> int | None:
        for _ in range(RECOVERY_CYCLE_CAP):
            if invariants.definition1_consistent(cluster).ok:
                return cluster.tracker.cycles_elapsed
            await cluster.tracker.wait_cycles(1)
        return None

    pair_task = kernel.create_task(pair(), name="ledger-post-fault-pair")
    cycles = await cycles_to_consistent()
    if cycles is None:
        extras["unrecovered"] += 1
        cycles = RECOVERY_CYCLE_CAP
    extras["recovery_cycles"].append(cycles)
    try:
        saw_write, pair_done_at = await kernel.wait_for(pair_task, DEADLINE_SIM_U)
    except (TimeoutError, ReproError):
        extras["unrecovered"] += 1
        saw_write, pair_done_at = False, kernel.now
    extras["post_fault_pair_u"].append(pair_done_at - fault_at)
    if not saw_write:
        extras["post_fault_wrong_ops"] += 1


_RUNNERS = {"backend": _run_backend, "client": _run_client, "storm": _run_storm}


def run_once(
    w: Workload,
    seed: int,
    scale: float = 1.0,
    tracer: Any = None,
    check: bool = True,
) -> RunResult:
    """One repetition of ``w`` on a fresh deployment.

    ``check=False`` skips the history check (the traced pass's untraced
    baseline repetition only needs the drive wall and the digest).
    """
    return _RUNNERS[w.driver](w, seed, scale, tracer or _NoTracer(), check)
