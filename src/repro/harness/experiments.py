"""Experiment registry: one record per paper claim, E1–E20.

Each :class:`Experiment` holds the claim's title, the runner that
measures it, the gate that judges the runner's rows, and ``small``, the
keyword arguments tier-1 runs it at.  ``python -m repro experiments
[ids…]`` runs and prints the tables, evaluates each table's gate,
prints one ``GATE <id>: <failure>`` line per failed check and exits 1
if any gate failed; ``--jobs N`` fans the selected experiments out
across ``N`` worker processes (the printed output is byte-identical to
a serial run; see :mod:`repro.harness.parallel`).  The ablations A1–A5
(:data:`repro.harness.ablations.ABLATIONS`) are records of the same
shape, printed and gated the same way by ``python -m repro ablations``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

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
    "Experiment",
    "RECOVERY_CYCLE_BOUND",
    "cycle_cells",
    "run_experiment",
]

Rows = list[dict]


@dataclass(frozen=True)
class Experiment:
    """One registered claim: ``runner(**kwargs)`` measures it and
    ``gate(rows)`` returns one failure string per check the rows miss."""

    title: str
    runner: Callable[..., Rows]
    gate: Callable[[Rows], Iterable[str]]
    small: Mapping[str, Any] = field(default_factory=dict)

    def check_small(self) -> list[str]:
        """Run at the ``small`` kwargs (tier-1's scale) and gate the rows."""
        return list(self.gate(self.runner(**self.small)))


def _wall_clock(rows: Rows) -> bool:
    """Whether every row ran on a wall-clock backend (``--backend
    asyncio|udp``): op/u bars hold in simulated time only, so such a
    run is gated on its correctness columns alone."""
    return bool(rows) and all(row["backend"] != "sim" for row in rows)


# -- E1–E6, E15: message costs ----------------------------------------------


def _e01(rows):
    for row in rows:
        for column in ("write_msgs", "snapshot_msgs"):
            if row[column] != row["theory_2(n-1)"]:
                yield f"n={row['n']}: {column} {row[column]} != 2(n-1)"
        for column in ("write_rtts", "snapshot_rtts"):
            if row[column] != 1:
                yield f"n={row['n']}: {column} {row[column]} != 1"


def _e02(rows):
    for row in rows:
        n = row["n"]
        # Idle, every cycle gossips all n(n-1) digests: the paper's bound.
        if row["gossip_msgs_per_cycle"] != n * (n - 1):
            yield f"n={n}: {row['gossip_msgs_per_cycle']} gossip/cycle != n(n-1)"
        # Under load a request that carried reg[k].ts to or from p_k since
        # the last tick stands in for that tick's digest to p_k.
        if not row["loaded_gossip_per_cycle"] < row["gossip_msgs_per_cycle"]:
            yield f"n={n}: loaded gossip not below idle gossip"
        if not row["gossip_bytes_each"] < row["write_bytes_each"]:
            yield f"n={n}: a gossip digest is not smaller than a write"
        if row["write_msgs"] != 2 * (n - 1):
            yield f"n={n}: write_msgs {row['write_msgs']} != 2(n-1)"


def _e03(rows):
    for row in rows:
        if (row["stacked_rtts"], row["dgfr_rtts"]) != (4, 1):
            yield f"n={row['n']}: round trips {row['stacked_rtts']}/{row['dgfr_rtts']} != 4/1"
        if row["ratio"] != row["theory_ratio"]:
            yield f"n={row['n']}: stacked/dgfr ratio {row['ratio']} != 4"


def _e04(rows):
    first, last = rows[0], rows[-1]
    n_ratio = last["n"] / first["n"]
    if not last["total_msgs"] / first["total_msgs"] > n_ratio * 1.5:
        yield "total messages do not grow superlinearly in n"
    for row in rows:
        if row["query_msgs"] < row["n"] * (row["n"] - 1):
            yield f"n={row['n']}: query_msgs {row['query_msgs']} < n(n-1)"


def _e05(rows):
    for row in rows:
        n = row["n"]
        if row["dinf_msgs"] > 6 * n:
            yield f"n={n}: delta=inf snapshot costs {row['dinf_msgs']} > 6n"
        if not row["dinf_msgs"] <= row["d4_msgs"] <= row["d0_msgs"]:
            yield f"n={n}: messages not ordered delta=inf <= 4 <= 0"
        if not row["d0_msgs"] > row["dinf_msgs"]:
            yield f"n={n}: delta=0 engages no helpers"
        if not row["alg2_msgs"] > row["d0_msgs"]:
            yield f"n={n}: delta=0 not cheaper than Algorithm 2"
    first, last = rows[0], rows[-1]
    n_ratio = last["n"] / first["n"]
    if last["dinf_msgs"] / first["dinf_msgs"] > n_ratio * 1.5:
        yield "delta=inf messages grow faster than linearly"
    if not last["d0_msgs"] / first["d0_msgs"] > n_ratio * 1.2:
        yield "delta=0 messages do not grow superlinearly"


def _e06(rows):
    for row in rows:
        if not row["alg3_msgs"] < row["alg2_msgs"]:
            yield f"n={row['n']}: Algorithm 3 not cheaper than Algorithm 2"
    if rows[-1]["msg_ratio"] < rows[0]["msg_ratio"]:
        yield "Algorithm 3's advantage does not grow with n"


def _e15(rows):
    by_key = {(row["n"], row["nu_bytes"]): row for row in rows}
    # Gossip is a digest: independent of n and of nu.
    if len({row["gossip_msg_bytes"] for row in rows}) != 1:
        yield "gossip size depends on n or nu"
    for (n, nu), row in by_key.items():
        # The reply side: an uncontended write's ack is n bare
        # timestamps (16 B of framing plus 8 B each), whatever nu is.
        if row["write_ack_bytes"] != 16 + 8 * n:
            yield f"n={n} nu={nu}: ack {row['write_ack_bytes']} B != 16+8n"
        larger = [by_key[m, nu] for m, v in by_key if v == nu and m > n]
        if any(other["write_msg_bytes"] <= row["write_msg_bytes"] for other in larger):
            yield f"nu={nu}: write size does not grow with n"
    try:
        n_ratio = by_key[12, 1024]["write_msg_bytes"] / by_key[4, 1024]["write_msg_bytes"]
        nu_ratio = by_key[4, 1024]["write_msg_bytes"] / by_key[4, 64]["write_msg_bytes"]
    except KeyError as missing:
        yield f"no (n, nu) = {missing} row"
        return
    # O(n*nu): ~3x from n=4 to n=12, and ~16x nu growth minus headers.
    if not 2.5 <= n_ratio <= 3.5:
        yield f"write size n=12/n=4 at nu=1024 is {n_ratio:.2f}, not 2.5-3.5"
    if not 10 <= nu_ratio <= 20:
        yield f"write size nu=1024/nu=64 at n=4 is {nu_ratio:.2f}, not 10-20"


# -- E7, E8, E14, E20: recovery ----------------------------------------------

#: Theorems 1–2: the unbounded algorithms recover from every corruption
#: class within this many asynchronous cycles, at every n.
RECOVERY_CYCLE_BOUND = 6
#: The bounded rows time a consensus-decided global reset (wild corrupted
#: indices overflow MAXINT); it grows with n, so the bound holds at n=4.
BOUNDED_RESET_CYCLE_BOUND = 8


def cycle_cells(row: dict) -> dict:
    """An E7/E8 row's recovery-cycle cells (not its labels or detection count)."""
    return {k: v for k, v in row.items() if k not in ("variant", "n", "detections")}


def _recovery(rows, flat_in_n=False):
    unbounded = [row for row in rows if row["variant"] == "unbounded"]
    bounded = [row for row in rows if row["variant"] == "bounded+consensus"]
    if not unbounded or [r["n"] for r in unbounded] != [r["n"] for r in bounded]:
        yield "needs an unbounded and a bounded+consensus row per n"
    for row in rows:
        label = f"{row['variant']} n={row['n']}"
        if row["variant"] == "unbounded":
            bound = RECOVERY_CYCLE_BOUND
        else:
            bound = BOUNDED_RESET_CYCLE_BOUND if row["n"] <= 4 else math.inf
        for column, value in cycle_cells(row).items():
            if not isinstance(value, int):
                yield f"{label}: {column} did not recover ({value} cycles)"
            elif value > bound:
                yield f"{label}: {column} took {value} > {bound} cycles"
    for row in unbounded:
        # Corruption that perturbed state was healed by the cleanup
        # lines, and the registry reported it.
        if not (isinstance(row["detections"], int) and row["detections"] > 0):
            yield f"unbounded n={row['n']}: no detections ({row['detections']})"
    cells = [list(cycle_cells(row).values()) for row in unbounded]
    if flat_in_n and cells and all(isinstance(v, int) for row in cells for v in row):
        # Flat in n: the largest n no worse than the smallest + 2.
        small, large = max(cells[0]), max(cells[-1])
        if large > small + 2:
            yield f"recovery grows with n: {small} -> {large} cycles"


def _e14(rows):
    for row in rows:
        if row["resets"] < 1:
            yield "no global reset"
        if not (row["values_survive"] and row["epochs_agree"]):
            yield "values lost or epochs disagree after a reset"
        # Bounded aborts: a handful per reset, not per operation.
        if row["writes_aborted"] > 4 * row["resets"] + 2:
            yield f"{row['writes_aborted']} writes aborted over {row['resets']} resets"
        if row["writes_ok"] < 100:
            yield f"only {row['writes_ok']} writes completed"


def _e20(rows):
    for row in rows:
        for column in ("reset_completed", "epochs_agree", "writes_reenabled"):
            if not row[column]:
                yield f"corrupt_consensus={row['corrupt_consensus']}: not {column}"


# -- E9–E13: latency, liveness, crashes --------------------------------------


def _e09(rows):
    for row in rows:
        delta, cycles = row["delta"], row["latency_cycles"]
        # O(delta): at most 4(delta+1) cycles, and at most 12 up to delta=4.
        if cycles > 4 * (delta + 1) or (delta <= 4 and cycles > 12):
            yield f"delta={delta}: snapshot took {cycles} cycles"
        if row["latency_time"] >= 1000:
            yield f"delta={delta}: snapshot did not terminate"


def _e10(rows):
    if not rows[-1]["write_rate"] > rows[0]["write_rate"]:
        yield "write throughput does not rise with delta"
    latencies = [row["snap_latency"] for row in rows]
    if not math.isinf(latencies[-1]):
        yield "the delta=inf snapshot terminated under load"
    finite = [value for value in latencies if not math.isinf(value)]
    if finite != sorted(finite):
        yield f"snapshot latency does not rise with delta: {finite}"


def _e11(rows):
    if not rows:
        yield "no blocking episodes observed"
    for row in rows:
        if not row["claim_met"]:
            yield f"gap {row['episode_gap#']}: {row['writes_between']} writes < delta"


#: E12's rows and whether each may starve under load: the non-blocking
#: algorithms (and Algorithm 3 at delta=inf) starve, the
#: always-terminating ones never do.
E12_STARVES = {
    "dgfr-nonblocking": True,
    "ss-nonblocking": True,
    "amortized": True,
    "ss-always (delta=inf)": True,
    "ss-always (delta=4)": False,
    "dgfr-always": False,
}


def _e12(rows):
    seen = {row["algorithm"] for row in rows}
    for algorithm in E12_STARVES:
        if algorithm not in seen:
            yield f"no {algorithm} row"
    for row in rows:
        algorithm = row["algorithm"]
        if row["starved_under_load"] != E12_STARVES.get(algorithm):
            verb = "starved" if row["starved_under_load"] else "did not starve"
            yield f"{algorithm} {verb} under load"
        # Every snapshot completes once writes cease.
        if not row["completed_after_writes_ceased"]:
            yield f"{algorithm} did not complete after writes ceased"


def _e13(rows):
    for row in rows:
        label = f"{row['algorithm']} f={row['f']}"
        if row["ops_terminate"] != row["majority_alive"]:
            yield f"{label}: termination does not follow the majority"
        if not row["history_safe"]:
            yield f"{label}: history not linearizable"


# -- E16–E19: deployment ----------------------------------------------------

#: E17: minimum amortized capacity (op/u) at n=4 on the simulator, and its
#: minimum ratio over the pipelined ss-nonblocking baseline.
CAPACITY_FLOOR = 1.5
CAPACITY_GAIN = 1.5
#: E19: each doubling of K must gain at least this factor (slack for
#: composed-cut and routing overhead), and K=8 must beat K=1 by this.
MIN_STEP_GAIN = 1.05
MIN_K8_SPEEDUP = 5.0


def _e16(rows):
    backends = [row["backend"] for row in rows]
    if backends[:1] != ["sim"] or len(set(backends)) != len(backends):
        yield f"rows {backends} are not sim then one row per other backend"
    for row in rows:
        if not row["write_msgs_per_op"] > 0:
            yield f"{row['backend']}: no write messages"


def _e17(rows):
    for row in rows:
        if not row["linearizable"]:
            yield f"{row['backend']} n={row['n']}: not linearizable"
    if _wall_clock(rows):
        return
    n4 = [row for row in rows if row["n"] == 4]
    if len(n4) != 1:
        yield f"{len(n4)} n=4 rows, not 1"
    for row in n4:
        if row["throughput_amortized_b8"] < CAPACITY_FLOOR:
            yield f"n=4: amortized capacity {row['throughput_amortized_b8']} < {CAPACITY_FLOOR} op/u"
        if row["amortized_gain"] < CAPACITY_GAIN:
            yield f"n=4: amortized gain {row['amortized_gain']} < {CAPACITY_GAIN}"


def _e18(rows):
    for row in rows:
        if not row["linearizable"]:
            yield f"{row['backend']} delta={row['delta']}: not linearizable"
        if not (row["writes"] and row["snapshots"]):
            yield f"{row['backend']} delta={row['delta']}: no samples to pool"
    if _wall_clock(rows):
        return
    if len(rows) < 2:
        yield f"{len(rows)} delta rows; the trade-off needs two"
        return
    first, last = rows[0], rows[-1]
    # Larger delta: writes run longer before helping blocks them, and
    # snapshots meet more interfering writes.  Both quantiles are of the
    # pooled runs' samples.  Aggregate throughput has no direction in
    # delta, so it is not gated.
    if not last["write_p50"] < first["write_p50"]:
        yield "write p50 does not fall as delta grows"
    if not last["snapshot_p99"] > first["snapshot_p99"]:
        yield "snapshot p99 does not rise as delta grows"


def _e19(rows):
    if [row["shards"] for row in rows] != [1, 2, 4, 8]:
        yield f"K ladder {[row['shards'] for row in rows]} != [1, 2, 4, 8]"
    for row in rows:
        if not row["linearizable"] or row["errors"]:
            yield f"K={row['shards']}: {row['errors']} errors, linearizable={row['linearizable']}"
    if _wall_clock(rows):
        return
    for earlier, later in zip(rows, rows[1:]):
        if later["throughput"] < MIN_STEP_GAIN * earlier["throughput"]:
            yield f"K={later['shards']}: throughput gains < {MIN_STEP_GAIN}x over K={earlier['shards']}"
    for row in rows:
        if row["shards"] == 8 and row["speedup_vs_k1"] < MIN_K8_SPEEDUP:
            yield f"K=8: speedup {row['speedup_vs_k1']} < {MIN_K8_SPEEDUP}"


#: Experiment id → :class:`Experiment`.
EXPERIMENTS: dict[str, Experiment] = {
    "e01": Experiment(
        "E1 / Fig.1 upper — DGFR non-blocking per-op costs (2n msgs, 1 RT)",
        e01_nonblocking_op_costs,
        _e01,
    ),
    "e02": Experiment(
        "E2 / Fig.1 lower — SS gossip overhead (n(n-1) constant-size msgs/cycle)",
        e02_gossip_overhead,
        _e02,
    ),
    "e03": Experiment(
        "E3 / related work — stacked ABD+scan (8n, 4RT) vs DGFR (2n, 1RT)",
        e03_stacking_comparison,
        _e03,
    ),
    "e04": Experiment(
        "E4 / Fig.2 — Algorithm 2 snapshot costs O(n^2) messages",
        e04_always_terminating_costs,
        _e04,
    ),
    "e05": Experiment(
        "E5 / Fig.3 upper — Algorithm 3 snapshot messages vs delta",
        e05_delta_snapshot_costs,
        _e05,
    ),
    "e06": Experiment(
        "E6 / Fig.3 lower — all-nodes-concurrent snapshots (many-jobs stealing)",
        e06_concurrent_snapshots,
        _e06,
    ),
    "e07": Experiment(
        "E7 / Theorem 1 — Algorithm 1 recovery cycles (O(1), flat in n)",
        e07_recovery_nonblocking,
        functools.partial(_recovery, flat_in_n=True),
        {"n_values": (4, 5)},
    ),
    "e08": Experiment(
        "E8 / Theorem 2 — Algorithm 3 recovery cycles to Definition-1 state",
        e08_recovery_always,
        _recovery,
        {"n_values": (4, 5)},
    ),
    "e09": Experiment(
        "E9 / Theorem 3 — snapshot latency under load vs delta (O(delta))",
        e09_delta_latency,
        _e09,
    ),
    "e10": Experiment(
        "E10 / Contribution 2 — delta trade-off: messages vs write throughput",
        e10_delta_tradeoff,
        _e10,
    ),
    "e11": Experiment(
        "E11 / Contribution 2 — >=delta writes between blocking periods",
        e11_writes_between_blocks,
        _e11,
    ),
    "e12": Experiment(
        "E12 / Section 3 — snapshot liveness per algorithm under write load",
        e12_nonblocking_starvation,
        _e12,
    ),
    "e13": Experiment(
        "E13 / fault model — crash tolerance at the 2f < n bound",
        e13_crash_tolerance,
        _e13,
    ),
    "e14": Experiment(
        "E14 / Section 5 — bounded counters with consensus-based global reset",
        e14_bounded_reset,
        _e14,
    ),
    "e15": Experiment(
        "E15 / Contribution 1 — message sizes: O(n*nu) ops vs constant gossip",
        e15_message_sizes,
        _e15,
    ),
    "e16": Experiment(
        "E16 / deployment — backend parity: msgs/op on sim vs asyncio vs UDP",
        e16_backend_parity,
        _e16,
        {"backend": "sim", "ops": 2},
    ),
    "e17": Experiment(
        "E17 / deployment — saturated throughput vs n, serial vs pipelined",
        e17_throughput_vs_n,
        _e17,
        {"ns": (4,)},
    ),
    "e18": Experiment(
        "E18 / Contribution 2 — delta vs write and snapshot latency under load "
        "(8 seeds pooled)",
        e18_delta_vs_throughput,
        _e18,
    ),
    "e19": Experiment(
        "E19 / sharding — aggregate saturated throughput vs shard count K",
        e19_throughput_vs_shards,
        _e19,
    ),
    "e20": Experiment(
        "E20 / Section 5 — consensus-decided reset with node 0 "
        "(the sketch's coordinator) crashed",
        e20_reset_node0_crashed,
        _e20,
    ),
}

#: Experiments that accept a ``backend`` kwarg; ``--backend`` restricts
#: the selection to these (the rest measure simulator-only quantities
#: like cycle counts and deterministic schedules).
BACKEND_AWARE = frozenset({"e16", "e17", "e18", "e19"})


def run_experiment(experiment_id: str) -> Rows:
    """Run one experiment by id (e.g. ``"e07"``) at its defaults."""
    return EXPERIMENTS[experiment_id].runner()
