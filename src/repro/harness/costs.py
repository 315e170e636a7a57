"""Communication-cost experiments: E1–E6 and E15.

Each function returns a list of row dicts; the benchmarks print them via
:mod:`repro.harness.report` and EXPERIMENTS.md records paper-vs-measured.
"""

from __future__ import annotations

from repro.config import ChannelConfig, ClusterConfig, UNBOUNDED_DELTA
from repro.backend.sim import SimBackend
from repro.harness.workloads import value_of_size

__all__ = [
    "e01_nonblocking_op_costs",
    "e02_gossip_overhead",
    "e03_stacking_comparison",
    "e04_always_terminating_costs",
    "e05_delta_snapshot_costs",
    "e06_concurrent_snapshots",
    "e15_message_sizes",
]

#: Reliable channels for cost measurements (losses would add retries).
_RELIABLE = ChannelConfig(loss_probability=0.0, duplication_probability=0.0)


def _cluster(algorithm: str, n: int, seed: int = 0, **kwargs) -> SimBackend:
    config = ClusterConfig(n=n, seed=seed, channel=_RELIABLE, **kwargs)
    return SimBackend(algorithm, config)


def e01_nonblocking_op_costs(n_values=(4, 8, 12, 16), seed=0):
    """E1 (Figure 1 upper): DGFR non-blocking per-operation costs.

    Paper claim: a write and an uncontended snapshot each take one round
    trip of ≈2n messages: requests of O(n·ν) bits (here, only the entries
    some receiver may lack), acks that ship only what is news to the
    requester.
    """
    rows = []
    for n in n_values:
        cluster = _cluster("dgfr-nonblocking", n, seed)
        with cluster.metrics.window() as write_window:
            cluster.write_sync(0, value_of_size(32))
        node = cluster.node(1)
        ssn_before = node.ssn
        with cluster.metrics.window() as snap_window:
            cluster.snapshot_sync(1)
        rows.append(
            {
                "n": n,
                "write_msgs": write_window.stats.messages(
                    "WRITE", "WRITEack"
                ),
                "write_rtts": 1,
                "snapshot_msgs": snap_window.stats.messages(
                    "SNAPSHOT", "SNAPSHOTack"
                ),
                "snapshot_rtts": node.ssn - ssn_before,
                "theory_2(n-1)": 2 * (n - 1),
            }
        )
    return rows


#: Length of E2's 80:20 closed-loop window, in simulated time units.
_E2_LOAD_DURATION = 40.0


def e02_gossip_overhead(
    n_values=(4, 8, 12), cycles=5, seed=0, algorithm="ss-nonblocking"
):
    """E2 (Figure 1 lower / Contribution 1): SS gossip overhead.

    Paper claim: the self-stabilizing variant adds O(n²) gossip messages
    of O(ν) bits per cycle; operation costs are unchanged.  Each gossip
    here is a timestamp digest, so its size does not depend on ν either.
    Idle, every cycle sends all n(n−1) digests; under an 80:20 closed
    loop (n clients) a request that already carried ``reg[k].ts`` between
    a node and ``p_k`` stands in for that cycle's digest, so fewer are
    sent.  ``algorithm`` may be ``ss-always`` too, whose requests also
    name the sender's ``sns``, the other half of its digest.
    """
    from repro.load.driver import LoadGenerator, LoadSpec

    rows = []
    for n in n_values:
        cluster = _cluster(algorithm, n, seed)
        cluster.write_sync(0, value_of_size(32))
        with cluster.metrics.window() as window:
            cluster.run_until(cluster.settle_cycles(cycles), max_events=None)
        stats = window.stats
        gossip = stats.messages("GOSSIP")
        with cluster.metrics.window() as op_window:
            cluster.write_sync(1, value_of_size(32))
        load = LoadGenerator(
            cluster,
            LoadSpec(clients=n, duration=_E2_LOAD_DURATION, seed=seed),
        )
        cycles_before = cluster.tracker.cycles_elapsed
        with cluster.metrics.window() as load_window:
            cluster.run_until(load.run(), max_events=None)
        loaded_cycles = cluster.tracker.cycles_elapsed - cycles_before
        rows.append(
            {
                "n": n,
                "gossip_msgs_per_cycle": round(gossip / cycles, 1),
                "loaded_gossip_per_cycle": round(
                    load_window.stats.messages("GOSSIP") / loaded_cycles, 1
                ),
                "theory_n(n-1)": n * (n - 1),
                "gossip_bytes_each": (
                    stats.bytes_for("GOSSIP") // gossip if gossip else 0
                ),
                "write_msgs": op_window.stats.messages("WRITE", "WRITEack"),
                "write_bytes_each": (
                    op_window.stats.bytes_for("WRITE")
                    // max(op_window.stats.messages("WRITE"), 1)
                ),
            }
        )
    return rows


def e03_stacking_comparison(n_values=(4, 8, 12, 16), seed=0):
    """E3 (related work): stacked ABD+scan vs DGFR non-stacking snapshot.

    Paper claim: the stacked approach costs ≈8n messages over 4 round
    trips per snapshot; Delporte-Gallet et al. cost 2n over 1 round trip.
    """
    rows = []
    for n in n_values:
        stacked = _cluster("stacked", n, seed)
        stacked.write_sync(0, value_of_size(32))
        with stacked.metrics.window() as stacked_window:
            stacked.snapshot_sync(1)
        dgfr = _cluster("dgfr-nonblocking", n, seed)
        dgfr.write_sync(0, value_of_size(32))
        with dgfr.metrics.window() as dgfr_window:
            dgfr.snapshot_sync(1)
        stacked_msgs = stacked_window.stats.total_messages
        dgfr_msgs = dgfr_window.stats.total_messages
        rows.append(
            {
                "n": n,
                "stacked_msgs": stacked_msgs,
                "stacked_rtts": 4,
                "dgfr_msgs": dgfr_msgs,
                "dgfr_rtts": 1,
                "ratio": round(stacked_msgs / max(dgfr_msgs, 1), 1),
                "theory_ratio": 4.0,
            }
        )
    return rows


def e04_always_terminating_costs(n_values=(4, 6, 8, 10), seed=0):
    """E4 (Figure 2): Algorithm 2 snapshot costs O(n²) messages.

    Every node serves every snapshot task through its own majority query
    rounds, plus reliable-broadcast traffic for SNAP and END.
    """
    rows = []
    for n in n_values:
        cluster = _cluster("dgfr-always", n, seed)
        cluster.write_sync(0, value_of_size(32))
        with cluster.metrics.window() as window:
            cluster.snapshot_sync(1)
            cluster.run_until(cluster.settle_cycles(2), max_events=None)
        stats = window.stats
        rows.append(
            {
                "n": n,
                "query_msgs": stats.messages("SNAPSHOT", "SNAPSHOTack"),
                "rb_msgs": stats.messages("RB", "RBack"),
                "total_msgs": stats.total_messages,
                "theory_n^2": n * n,
            }
        )
    return rows


def e05_delta_snapshot_costs(n_values=(4, 6, 8, 10), seed=0):
    """E5 (Figure 3 upper): Algorithm 3 per-snapshot messages vs δ.

    Paper claim: for large δ an uncontended snapshot costs O(n) messages
    (like Algorithm 1); δ=0 engages every node (like Algorithm 2); and
    either way it beats Algorithm 2's reliable-broadcast-heavy total.
    """
    rows = []
    for n in n_values:
        row = {"n": n}
        for label, delta in (
            ("d0", 0),
            ("d4", 4),
            ("dinf", UNBOUNDED_DELTA),
        ):
            cluster = _cluster("ss-always", n, seed, delta=delta)
            cluster.write_sync(0, value_of_size(32))
            cluster.run_until(cluster.settle_cycles(1), max_events=None)
            with cluster.metrics.window() as window:
                cluster.snapshot_sync(1)
                cluster.run_until(cluster.settle_cycles(2), max_events=None)
            stats = window.stats
            row[f"{label}_msgs"] = (
                stats.total_messages - stats.messages("GOSSIP")
            )
        always = _cluster("dgfr-always", n, seed)
        always.write_sync(0, value_of_size(32))
        with always.metrics.window() as window:
            always.snapshot_sync(1)
            always.run_until(always.settle_cycles(2), max_events=None)
        row["alg2_msgs"] = window.stats.total_messages
        rows.append(row)
    return rows


def e06_concurrent_snapshots(n_values=(4, 6, 8), seed=0):
    """E6 (Figure 3 lower): all nodes snapshot at once.

    Paper claim: Algorithm 2 handles one task at a time at O(n²) messages
    each; Algorithm 3 batches all concurrent tasks (many-jobs stealing),
    so the total message count and completion time grow far slower.
    """
    rows = []
    for n in n_values:
        row = {"n": n}
        for label, algorithm in (("alg2", "dgfr-always"), ("alg3", "ss-always")):
            cluster = _cluster(algorithm, n, seed, delta=0)
            cluster.write_sync(0, value_of_size(32))
            start = cluster.kernel.now

            async def all_snapshot(cluster=cluster):
                snaps = [
                    cluster.spawn(cluster.snapshot(node))
                    for node in range(cluster.config.n)
                ]
                await cluster.kernel.gather(snaps)

            with cluster.metrics.window() as window:
                cluster.run_until(all_snapshot(), max_events=None)
            row[f"{label}_msgs"] = window.stats.total_messages
            row[f"{label}_time"] = round(cluster.kernel.now - start, 1)
        row["msg_ratio"] = round(row["alg2_msgs"] / max(row["alg3_msgs"], 1), 1)
        rows.append(row)
    return rows


def e15_message_sizes(nu_values=(16, 64, 256, 1024), n_values=(4, 12), seed=0):
    """E15 (Contribution 1): operation messages are O(n·ν) bits, gossip O(ν).

    Measured as serialized bytes per message while sweeping the object
    size ν and the cluster size n.  The gossip is a timestamp digest, a
    constant size below the paper's O(ν) bound.  A request ships the
    entries some receiver may lack — here all n, since the writer's only
    acks answered its first write, before the others wrote — and its ack
    ships only the entries that are news to the writer, so an
    uncontended write's ack is n bare timestamps.
    """
    rows = []
    for n in n_values:
        for nu in nu_values:
            cluster = _cluster("ss-nonblocking", n, seed)
            for node in range(n):
                cluster.write_sync(node, value_of_size(nu, tag=node))
            with cluster.metrics.window() as window:
                cluster.write_sync(0, value_of_size(nu))
                cluster.run_until(cluster.settle_cycles(2), max_events=None)
            stats = window.stats
            write_count = stats.messages("WRITE") or 1
            ack_count = stats.messages("WRITEack") or 1
            gossip_count = stats.messages("GOSSIP") or 1
            rows.append(
                {
                    "n": n,
                    "nu_bytes": nu,
                    "write_msg_bytes": stats.bytes_for("WRITE") // write_count,
                    "write_ack_bytes": stats.bytes_for("WRITEack") // ack_count,
                    "gossip_msg_bytes": stats.bytes_for("GOSSIP")
                    // gossip_count,
                    "theory_write": f"~{n}*nu",
                    "theory_ack": f"16+8*{n}",
                    "theory_gossip": "const",
                }
            )
    return rows
