"""Ablation studies: robustness of the measured results to design knobs.

The reproduction experiments (E1–E15) pin one seed and one parameter set
each; these ablations sweep the knobs that could plausibly change the
conclusions and report distributions:

* **A1 — seed robustness**: recovery cycles (E7/E8) across many seeds —
  the O(1) claim must hold distributionally, not for one lucky schedule.
* **A2 — gossip-interval ablation**: Theorem 1 counts *cycles*, so
  recovery must be flat in cycles while wall-clock recovery scales with
  the do-forever period.
* **A3 — retransmission under loss**: per-operation message cost as a
  function of channel loss — the quorum service's retransmission
  overhead, which the complexity claims exclude (they count per
  attempt).
* **A4 — δ latency distribution**: snapshot latency percentiles under
  load across seeds, showing the O(δ) bound is not a mean-only artifact.
* **A5 — flatness in n**: the regression slope of recovery cycles
  against cluster size is indistinguishable from zero.

Each study's gate checks that its conclusion survives the sweep.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.invariants import definition1_consistent
from repro.config import ChannelConfig, ClusterConfig
from repro.backend.sim import SimBackend
from repro.fault import TransientFaultInjector
from repro.harness.experiments import RECOVERY_CYCLE_BOUND, Experiment
from repro.harness.workloads import ContinuousWriters

__all__ = [
    "ABLATIONS",
    "a1_recovery_seed_sweep",
    "a2_gossip_interval_ablation",
    "a3_loss_retransmission_cost",
    "a4_delta_latency_distribution",
    "a5_recovery_flatness_in_n",
]

_CYCLE_CAP = 20


def _recovery_cycles(algorithm: str, n: int, seed: int, **config_kwargs) -> int:
    cluster = SimBackend(
        algorithm, ClusterConfig(n=n, seed=seed, delta=2, **config_kwargs)
    )
    cluster.write_sync(0, b"pre")
    TransientFaultInjector(cluster, seed=seed).scramble_everything()
    cluster.tracker.reset()

    async def measure():
        for _ in range(_CYCLE_CAP):
            if definition1_consistent(cluster).ok:
                return cluster.tracker.cycles_elapsed
            await cluster.tracker.wait_cycles(1)
        return _CYCLE_CAP

    return cluster.run_until(measure(), max_events=None)


def a1_recovery_seed_sweep(
    algorithms=("ss-nonblocking", "ss-always"), n=5, seeds=20
):
    """A1: distribution of recovery cycles across seeds."""
    rows = []
    for algorithm in algorithms:
        cycles = np.array(
            [_recovery_cycles(algorithm, n, seed) for seed in range(seeds)]
        )
        rows.append(
            {
                "algorithm": algorithm,
                "seeds": seeds,
                "mean": round(float(cycles.mean()), 2),
                "std": round(float(cycles.std()), 2),
                "min": int(cycles.min()),
                "max": int(cycles.max()),
                "p95": float(np.percentile(cycles, 95)),
            }
        )
    return rows


def a5_recovery_flatness_in_n(
    n_values=(3, 5, 7, 9, 11), seeds=8, algorithm="ss-nonblocking"
):
    """A5: statistical test that recovery cycles do not grow with n.

    The O(1)-cycles claim (Theorems 1–2) means the regression slope of
    recovery cycles against cluster size should be indistinguishable
    from zero.  Reports the slope with its scipy-estimated p-value: a
    high p-value (no detectable dependence) supports the claim.
    """
    from scipy import stats

    sizes = []
    cycles = []
    for n in n_values:
        for seed in range(seeds):
            sizes.append(n)
            cycles.append(_recovery_cycles(algorithm, n, seed))
    regression = stats.linregress(sizes, cycles)
    return [
        {
            "algorithm": algorithm,
            "samples": len(sizes),
            "slope_cycles_per_node": round(regression.slope, 4),
            "p_value": round(regression.pvalue, 3),
            "mean_cycles": round(float(np.mean(cycles)), 2),
            "max_cycles": int(max(cycles)),
            "flat": abs(regression.slope) < 0.1,
        }
    ]


def a2_gossip_interval_ablation(
    intervals=(0.5, 1.0, 2.0, 4.0, 8.0), n=5, seeds=8
):
    """A2: recovery is O(1) in *cycles* regardless of the loop period."""
    rows = []
    for interval in intervals:
        cycle_counts = []
        wall_times = []
        for seed in range(seeds):
            cluster = SimBackend(
                "ss-nonblocking",
                ClusterConfig(n=n, seed=seed, gossip_interval=interval),
            )
            cluster.write_sync(0, b"pre")
            TransientFaultInjector(cluster, seed=seed).scramble_everything()
            cluster.tracker.reset()
            start = cluster.kernel.now

            async def measure(cluster=cluster):
                for _ in range(_CYCLE_CAP):
                    from repro.analysis.invariants import (
                        ssn_consistent,
                        ts_consistent,
                    )

                    if ts_consistent(cluster).ok and ssn_consistent(cluster).ok:
                        return cluster.tracker.cycles_elapsed
                    await cluster.tracker.wait_cycles(1)
                return _CYCLE_CAP

            cycle_counts.append(cluster.run_until(measure(), max_events=None))
            wall_times.append(cluster.kernel.now - start)
        rows.append(
            {
                "gossip_interval": interval,
                "recovery_cycles_mean": round(float(np.mean(cycle_counts)), 2),
                "recovery_cycles_max": int(max(cycle_counts)),
                "recovery_time_mean": round(float(np.mean(wall_times)), 1),
            }
        )
    return rows


def a3_loss_retransmission_cost(
    loss_rates=(0.0, 0.1, 0.3, 0.5), n=5, seeds=6
):
    """A3: per-write message cost vs channel loss rate.

    The complexity claims count messages per broadcast attempt; loss
    multiplies attempts.  Reports the measured inflation factor.
    """
    rows = []
    for loss in loss_rates:
        counts = []
        for seed in range(seeds):
            cluster = SimBackend(
                "ss-nonblocking",
                ClusterConfig(
                    n=n,
                    seed=seed,
                    retransmit_interval=3.0,
                    channel=ChannelConfig(loss_probability=loss),
                ),
            )
            with cluster.metrics.window() as window:
                cluster.write_sync(0, b"x", max_events=None)
                # The write returns on a majority; the other servers'
                # acks are still on their way and belong to its cost.
                cluster.run_until(cluster.settle_cycles(1), max_events=None)
            counts.append(window.stats.messages("WRITE", "WRITEack"))
        baseline = 2 * (n - 1)
        rows.append(
            {
                "loss": loss,
                "write_msgs_mean": round(float(np.mean(counts)), 1),
                "write_msgs_max": int(max(counts)),
                "inflation": round(float(np.mean(counts)) / baseline, 2),
            }
        )
    return rows


def a4_delta_latency_distribution(deltas=(0, 4, 16), n=5, seeds=8):
    """A4: snapshot-latency percentiles under load, per δ, across seeds."""
    rows = []
    for delta in deltas:
        latencies = []
        for seed in range(seeds):
            cluster = SimBackend(
                "ss-always",
                ClusterConfig(
                    n=n,
                    seed=seed,
                    delta=delta,
                    gossip_interval=1.0,
                    channel=ChannelConfig(min_delay=0.9, max_delay=1.1),
                ),
            )
            writers = ContinuousWriters(cluster, list(range(n - 1)))

            async def probe(cluster=cluster, writers=writers):
                writers.start()
                await cluster.kernel.sleep(10.0)
                start = cluster.kernel.now
                await cluster.snapshot(n - 1)
                latency = cluster.kernel.now - start
                await writers.stop()
                return latency

            latencies.append(cluster.run_until(probe(), max_events=None))
        array = np.array(latencies)
        rows.append(
            {
                "delta": delta,
                "latency_p50": round(float(np.percentile(array, 50)), 1),
                "latency_p95": round(float(np.percentile(array, 95)), 1),
                "latency_max": round(float(array.max()), 1),
            }
        )
    return rows


def _a1(rows):
    for row in rows:
        # O(1) distributionally, not just on average.
        if row["max"] > RECOVERY_CYCLE_BOUND or row["p95"] > 4:
            yield f"{row['algorithm']}: max {row['max']} cycles, p95 {row['p95']}"


def _a2(rows):
    # Cycles stay bounded whatever the loop period ...
    for row in rows:
        if row["recovery_cycles_max"] > RECOVERY_CYCLE_BOUND:
            yield f"interval {row['gossip_interval']}: {row['recovery_cycles_max']} cycles"
    # ... while wall-clock recovery scales with the period.
    if not rows[-1]["recovery_time_mean"] > rows[0]["recovery_time_mean"]:
        yield "recovery time does not grow with the gossip interval"


def _a3(rows):
    lossless, heavy = rows[0], rows[-1]
    if lossless["inflation"] != 1.0:
        yield f"lossless write costs {lossless['inflation']}x 2(n-1)"
    if not heavy["write_msgs_max"] > lossless["write_msgs_max"]:
        yield "loss does not inflate the write cost"


def _a4(rows):
    p95 = [row["latency_p95"] for row in rows]
    if p95 != sorted(p95):
        yield f"p95 latency does not grow with delta: {p95}"
    for row in rows:
        if row["latency_max"] > 6.0 * (row["delta"] + 2):
            yield f"delta={row['delta']}: max latency {row['latency_max']} > 6(delta+2)"


def _a5(rows):
    for row in rows:
        if not row["flat"]:
            yield f"recovery slope {row['slope_cycles_per_node']} cycles/node"
        if row["max_cycles"] > RECOVERY_CYCLE_BOUND:
            yield f"recovery took {row['max_cycles']} cycles"


#: Ablation id → :class:`~repro.harness.experiments.Experiment`.
ABLATIONS = {
    "a1": Experiment(
        "A1 — recovery cycles across seeds (distributional O(1))",
        a1_recovery_seed_sweep,
        _a1,
    ),
    "a2": Experiment(
        "A2 — gossip-interval ablation: cycles flat, wall time scales",
        a2_gossip_interval_ablation,
        _a2,
    ),
    "a3": Experiment(
        "A3 — retransmission inflation of per-op cost under loss",
        a3_loss_retransmission_cost,
        _a3,
    ),
    "a4": Experiment(
        "A4 — snapshot-latency percentiles under load vs delta",
        a4_delta_latency_distribution,
        _a4,
    ),
    "a5": Experiment(
        "A5 — regression test: recovery cycles are flat in n (slope ~ 0)",
        a5_recovery_flatness_in_n,
        _a5,
    ),
}
