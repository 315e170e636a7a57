"""Experiment registry: id → (title, runner) for E1–E20.

``python -m repro experiments [ids…]`` runs and prints them, and
``--jobs N`` fans the selected experiments out across ``N`` worker
processes (the printed output is byte-identical to a serial run; see
:mod:`repro.harness.parallel`).  The same functions back the
pytest-benchmark targets in ``benchmarks/``.
"""

from __future__ import annotations

from typing import Callable

from repro.harness.parallel import experiment_cells, run_cells

from repro.harness.costs import (
    e01_nonblocking_op_costs,
    e02_gossip_overhead,
    e03_stacking_comparison,
    e04_always_terminating_costs,
    e05_delta_snapshot_costs,
    e06_concurrent_snapshots,
    e15_message_sizes,
)
from repro.harness.faults import e13_crash_tolerance
from repro.harness.latency import (
    e09_delta_latency,
    e10_delta_tradeoff,
    e11_writes_between_blocks,
    e12_nonblocking_starvation,
    e16_backend_parity,
)
from repro.harness.recovery import (
    e07_recovery_nonblocking,
    e08_recovery_always,
    e14_bounded_reset,
    e20_reset_node0_crashed,
)
from repro.load.experiments import (
    e17_throughput_vs_n,
    e18_delta_vs_throughput,
    e19_throughput_vs_shards,
)

__all__ = [
    "BACKEND_AWARE",
    "EXPERIMENTS",
    "run_experiment",
    "run_experiments",
]

#: Experiment id → (title, runner).
EXPERIMENTS: dict[str, tuple[str, Callable[[], list[dict]]]] = {
    "e01": (
        "E1 / Fig.1 upper — DGFR non-blocking per-op costs (2n msgs, 1 RT)",
        e01_nonblocking_op_costs,
    ),
    "e02": (
        "E2 / Fig.1 lower — SS gossip overhead (n(n-1) constant-size msgs/cycle)",
        e02_gossip_overhead,
    ),
    "e03": (
        "E3 / related work — stacked ABD+scan (8n, 4RT) vs DGFR (2n, 1RT)",
        e03_stacking_comparison,
    ),
    "e04": (
        "E4 / Fig.2 — Algorithm 2 snapshot costs O(n^2) messages",
        e04_always_terminating_costs,
    ),
    "e05": (
        "E5 / Fig.3 upper — Algorithm 3 snapshot messages vs delta",
        e05_delta_snapshot_costs,
    ),
    "e06": (
        "E6 / Fig.3 lower — all-nodes-concurrent snapshots (many-jobs stealing)",
        e06_concurrent_snapshots,
    ),
    "e07": (
        "E7 / Theorem 1 — Algorithm 1 recovery cycles (O(1), flat in n)",
        e07_recovery_nonblocking,
    ),
    "e08": (
        "E8 / Theorem 2 — Algorithm 3 recovery cycles to Definition-1 state",
        e08_recovery_always,
    ),
    "e09": (
        "E9 / Theorem 3 — snapshot latency under load vs delta (O(delta))",
        e09_delta_latency,
    ),
    "e10": (
        "E10 / Contribution 2 — delta trade-off: messages vs write throughput",
        e10_delta_tradeoff,
    ),
    "e11": (
        "E11 / Contribution 2 — >=delta writes between blocking periods",
        e11_writes_between_blocks,
    ),
    "e12": (
        "E12 / Section 3 — snapshot liveness per algorithm under write load",
        e12_nonblocking_starvation,
    ),
    "e13": (
        "E13 / fault model — crash tolerance at the 2f < n bound",
        e13_crash_tolerance,
    ),
    "e14": (
        "E14 / Section 5 — bounded counters with consensus-based global reset",
        e14_bounded_reset,
    ),
    "e15": (
        "E15 / Contribution 1 — message sizes: O(n*nu) ops vs constant gossip",
        e15_message_sizes,
    ),
    "e16": (
        "E16 / deployment — backend parity: msgs/op on sim vs asyncio vs UDP",
        e16_backend_parity,
    ),
    "e17": (
        "E17 / deployment — saturated throughput vs n, serial vs pipelined",
        e17_throughput_vs_n,
    ),
    "e18": (
        "E18 / Contribution 2 — delta vs throughput and snapshot tails under load",
        e18_delta_vs_throughput,
    ),
    "e19": (
        "E19 / sharding — aggregate saturated throughput vs shard count K",
        e19_throughput_vs_shards,
    ),
    "e20": (
        "E20 / Section 5 — consensus-decided reset with node 0 "
        "(the sketch's coordinator) crashed",
        e20_reset_node0_crashed,
    ),
}

#: Experiments that accept a ``backend`` kwarg; ``--backend`` restricts
#: the selection to these (the rest measure simulator-only quantities
#: like cycle counts and deterministic schedules).
BACKEND_AWARE = frozenset({"e16", "e17", "e18", "e19"})


def run_experiment(experiment_id: str) -> list[dict]:
    """Run one experiment by id (e.g. ``"e07"``) and return its rows."""
    title, runner = EXPERIMENTS[experiment_id]
    return runner()


def run_experiments(
    experiment_ids: list[str], jobs: int = 1
) -> list[list[dict]]:
    """Run several experiments, optionally in parallel; rows in id order.

    Each experiment is one independent cell; with ``jobs > 1`` the cells
    execute in worker processes and the merged result list matches the
    serial run exactly (every runner is a pure function of its seed).
    """
    return run_cells(experiment_cells(experiment_ids), jobs=jobs)

