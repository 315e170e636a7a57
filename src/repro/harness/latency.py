"""Latency / trade-off experiments: E9–E12 (the δ knob, Theorem 3).

Also home of the cross-backend latency probe behind ``python -m repro
latency`` and the E16 backend-parity experiment: the same per-operation
cost measurement run on the simulator, the asyncio runtime, and real UDP
sockets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.metrics import percentile
from repro.config import ChannelConfig, ClusterConfig, UNBOUNDED_DELTA
from repro.backend.sim import SimBackend
from repro.harness.workloads import ContinuousWriters

__all__ = [
    "e09_delta_latency",
    "e10_delta_tradeoff",
    "e11_writes_between_blocks",
    "e12_nonblocking_starvation",
    "e16_backend_parity",
    "LatencyReport",
    "backend_latency_probe",
    "run_latency_campaigns",
]

#: Tight delay bounds make write pressure steady across runs.
_STEADY = ChannelConfig(min_delay=0.9, max_delay=1.1)


def _loaded_cluster(delta, n=5, seed=1, algorithm="ss-always"):
    config = ClusterConfig(
        n=n, seed=seed, delta=delta, channel=_STEADY, gossip_interval=1.0
    )
    return SimBackend(algorithm, config)


def e09_delta_latency(deltas=(0, 1, 2, 4, 8, 16), n=5, seed=1):
    """E9 (Theorem 3): snapshot termination within O(δ) cycles under load.

    Continuous writers on n−1 nodes; one snapshot from the last node.
    Reports latency in asynchronous cycles and simulated time vs δ.
    """
    rows = []
    for delta in deltas:
        cluster = _loaded_cluster(delta, n=n, seed=seed)
        writers = ContinuousWriters(cluster, list(range(n - 1)))

        async def probe(cluster=cluster, writers=writers):
            writers.start()
            await cluster.kernel.sleep(10.0)
            cycles_before = cluster.tracker.cycles_elapsed
            time_before = cluster.kernel.now
            await cluster.snapshot(n - 1)
            latency_cycles = cluster.tracker.cycles_elapsed - cycles_before
            latency_time = cluster.kernel.now - time_before
            await writers.stop()
            return latency_cycles, latency_time

        latency_cycles, latency_time = cluster.run_until(
            probe(), max_events=None
        )
        rows.append(
            {
                "delta": delta,
                "latency_cycles": latency_cycles,
                "latency_time": round(latency_time, 1),
                "bound_O(delta)": f"<=c*({delta}+1)",
            }
        )
    return rows


def e10_delta_tradeoff(deltas=(0, 2, 8, 32, UNBOUNDED_DELTA), n=5, seed=1):
    """E10 (Contribution 2): messages per snapshot vs write throughput.

    Small δ blocks writes quickly (O(n²) messages, low snapshot latency);
    large δ keeps writes flowing (O(n) messages, higher latency).
    Reports per-δ: snapshot messages, snapshot latency, and the write
    throughput sustained while the snapshot was running.
    """
    rows = []
    for delta in deltas:
        cluster = _loaded_cluster(delta, n=n, seed=seed)
        writers = ContinuousWriters(cluster, list(range(n - 1)))

        async def probe(cluster=cluster, writers=writers):
            writers.start()
            await cluster.kernel.sleep(10.0)
            writes_before = writers.total_writes
            time_before = cluster.kernel.now
            with cluster.metrics.window() as window:
                try:
                    await cluster.kernel.wait_for(
                        cluster.snapshot(n - 1), timeout=300.0
                    )
                    latency = cluster.kernel.now - time_before
                except TimeoutError:
                    latency = float("inf")
            writes_during = writers.total_writes - writes_before
            await writers.stop()
            elapsed = max(cluster.kernel.now - time_before, 1e-9)
            return window.stats, latency, writes_during / elapsed

        stats, latency, write_rate = cluster.run_until(probe(), max_events=None)
        rows.append(
            {
                "delta": delta,
                "snap_msgs": stats.total_messages - stats.messages("GOSSIP"),
                "snap_latency": round(latency, 1)
                if latency != float("inf")
                else float("inf"),
                "write_rate": round(write_rate, 2),
            }
        )
    return rows


def e11_writes_between_blocks(delta=6, snapshots=6, n=5, seed=1):
    """E11 (Contribution 2): ≥δ writes between consecutive blocking periods.

    Repeated snapshots under saturating writes.  A *blocking period* is a
    helping episode — some node's ``baseSnapshot`` starts serving a
    foreign task, which defers that node's writes.  The paper guarantees
    at least δ write operations complete between two consecutive blocking
    periods (the δ-counting ensures helpers only engage after observing δ
    concurrent writes).  We record the cluster-wide completed-write count
    at the start of each helping episode and report the gaps.
    """
    cluster = _loaded_cluster(delta, n=n, seed=seed)
    writers = ContinuousWriters(cluster, list(range(n - 1)))
    # One blocking period per helped task: every helper node reports the
    # same (owner, sns), so record the write count at first observation.
    period_start: dict[tuple[int, int], int] = {}

    def on_help(process, foreign_tasks):
        for task in foreign_tasks:
            period_start.setdefault(task, writers.total_writes)

    for process in cluster.processes:
        process.helping_listeners.append(on_help)

    async def probe():
        writers.start()
        await cluster.kernel.sleep(10.0)
        for _ in range(snapshots):
            await cluster.snapshot(n - 1)
        await writers.stop()

    cluster.run_until(probe(), max_events=None)
    marks = sorted(period_start.values())
    gaps = [later - earlier for earlier, later in zip(marks, marks[1:])]
    return [
        {
            "episode_gap#": index + 1,
            "writes_between": gap,
            "delta": delta,
            "claim_met": gap >= delta,
        }
        for index, gap in enumerate(gaps)
    ]


def e12_nonblocking_starvation(timeout=300.0, n=5, seed=1):
    """E12 (Section 3): snapshot liveness per algorithm under write load.

    The non-blocking algorithms (and Algorithm 3 at δ=∞) may never
    terminate while writes keep coming; the always-terminating algorithms
    finish.  After the writers stop, each snapshot gets another
    ``timeout`` to complete — the non-blocking guarantee says the starved
    ones do.
    """
    cases = [
        ("dgfr-nonblocking", None),
        ("ss-nonblocking", None),
        ("amortized", None),
        ("ss-always", UNBOUNDED_DELTA),
        ("ss-always", 4),
        ("dgfr-always", None),
    ]
    rows = []
    for algorithm, delta in cases:
        cluster = _loaded_cluster(
            delta if delta is not None else 0,
            n=n,
            seed=seed,
            algorithm=algorithm,
        )
        writers = ContinuousWriters(cluster, list(range(n - 1)))

        async def probe(cluster=cluster, writers=writers):
            writers.start()
            await cluster.kernel.sleep(5.0)
            start = cluster.kernel.now
            snap_task = cluster.spawn(cluster.snapshot(n - 1))
            await cluster.kernel.sleep(timeout)
            starved = not snap_task.done()
            await writers.stop()
            # first_of returns -1, and cancels the snapshot, when the
            # timeout wins.
            winner = await cluster.kernel.first_of(snap_task, timeout=timeout)
            return starved, winner == 0, cluster.kernel.now - start

        starved, completed, total = cluster.run_until(probe(), max_events=None)
        rows.append(
            {
                "algorithm": algorithm
                + (f" (delta={delta})" if delta is not None else ""),
                "starved_under_load": starved,
                "completed_after_writes_ceased": completed,
                "total_time": round(total, 1),
            }
        )
    return rows


# -- cross-backend latency (the `python -m repro latency` command) -----------

#: Message kinds attributed to the write path / snapshot path when
#: computing per-operation message counts (gossip is background traffic).
_WRITE_KINDS = ("WRITE", "WRITEack")
_SNAPSHOT_KINDS = ("SNAPSHOT", "SNAPSHOTack", "SNAP", "END", "SAVE", "SAVEack")


def backend_latency_probe(
    backend: str = "sim",
    algorithm: str = "ss-nonblocking",
    n: int = 4,
    ops: int = 16,
    seed: int = 0,
    time_scale: float = 0.002,
) -> dict:
    """One write/snapshot latency + message-count measurement on a backend.

    Runs ``ops`` sequential write/snapshot pairs (rotating the invoking
    node) on the named backend and reports median per-operation latency
    in simulated time units — the live kernels express their wall clock
    in the same units (``seconds / time_scale``), so the sim, asyncio,
    and UDP rows of ``python -m repro latency`` are directly comparable —
    plus per-operation message counts from a metrics window, which is how
    EXPERIMENTS.md's sim-vs-UDP message-cost comparison is produced.
    """
    from repro.backend import run_on_backend
    from repro.config import scenario_config

    config = scenario_config(n=n, seed=seed, delta=2)

    async def body(cluster):
        kernel = cluster.kernel
        write_latency: list[float] = []
        snapshot_latency: list[float] = []
        with cluster.metrics.window() as window:
            for k in range(ops):
                t0 = kernel.now
                await cluster.write(k % n, f"lat-{seed}-{k}")
                write_latency.append(kernel.now - t0)
                t0 = kernel.now
                await cluster.snapshot((k + 1) % n)
                snapshot_latency.append(kernel.now - t0)
        stats = window.stats
        return {
            "backend": backend,
            "algorithm": algorithm,
            "n": n,
            "ops": ops,
            "write_p50": round(percentile(sorted(write_latency), 0.5), 2),
            "snapshot_p50": round(percentile(sorted(snapshot_latency), 0.5), 2),
            "write_msgs_per_op": round(stats.messages(*_WRITE_KINDS) / ops, 2),
            "snapshot_msgs_per_op": round(
                stats.messages(*_SNAPSHOT_KINDS) / ops, 2
            ),
            "unit": "sim time units",
        }

    return run_on_backend(
        backend,
        algorithm,
        config,
        body,
        time_scale=time_scale,
        max_events=None,
    )


@dataclass(slots=True)
class LatencyReport:
    """Outcome of one seed's cross-backend latency probe."""

    seed: int
    backend: str
    row: dict
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Latency probes fail only by raising; a report means success."""
        return not self.failures

    def summary(self) -> str:
        """One-line outcome."""
        row = self.row
        return (
            f"{row['ops']} op pairs on {self.backend} ({row['algorithm']}, "
            f"n={row['n']}): write p50 {row['write_p50']}u "
            f"({row['write_msgs_per_op']} msgs/op), snapshot p50 "
            f"{row['snapshot_p50']}u ({row['snapshot_msgs_per_op']} msgs/op)"
        )


def run_latency_campaigns(
    seeds: list,
    jobs: int = 1,
    algorithm: str = "ss-nonblocking",
    budget: int = 16,
    backend: str = "sim",
    n: int = 4,
    time_scale: float = 0.002,
) -> list:
    """One latency probe per seed — the unified campaign entry point.

    ``budget`` is write/snapshot pairs per probe.  Probes are cheap and
    latency measurements are noise-sensitive, so they always run
    serially; ``--jobs`` > 1 on a live backend raises the capability
    error every harness shares.
    """
    if jobs > 1 and backend != "sim":
        from repro.backend import backend_capabilities

        backend_capabilities(backend).require(
            "process_fanout", f"--jobs {jobs}"
        )
    return [
        LatencyReport(
            seed=seed,
            backend=backend,
            row=backend_latency_probe(
                backend=backend,
                algorithm=algorithm,
                n=n,
                ops=budget,
                seed=seed,
                time_scale=time_scale,
            ),
        )
        for seed in seeds
    ]


def e16_backend_parity(backend=None, n=4, ops=8, seed=0):
    """E16 / deployment — backend parity: same costs on sim, asyncio, UDP.

    Runs the cross-backend latency probe on each substrate and tabulates
    per-operation message counts side by side: the algorithms' message
    complexity is substrate-independent (the paper's model assumes only
    asynchronous fail-prone message passing), so the sim and UDP rows
    must agree on messages per operation while latency reflects each
    substrate's clock.
    """
    if backend is None:
        backends = ("sim", "asyncio", "udp")
    elif backend == "sim":
        backends = ("sim",)
    else:
        backends = ("sim", backend)
    return [
        backend_latency_probe(
            backend=name,
            algorithm="dgfr-nonblocking",
            n=n,
            ops=ops,
            seed=seed,
        )
        for name in backends
    ]
