"""Load-generation experiments: E17 (throughput vs n), E18 (δ vs load)
and E19 (throughput vs shard count).

Everything before the load driver measured *unloaded* operation costs —
one client, one round trip at a time.  These experiments measure the
paper's algorithms as deployed systems under saturation:

* **E17** — closed-loop capacity as the cluster grows, serial
  (``depth=1``) vs pipelined (``depth=4``) clients.  The paper's
  one-round-trip write (Algorithm 1) predicts capacity ≈ ``n/2``
  op/unit with default channel delays; pipelining overlaps the client's
  round trips and should approach it even with few clients.
* **E18** — the δ trade-off under real load: Algorithm 3's δ knob delays
  snapshot helping until δ concurrent writes are observed.  E10 measured
  its *message* cost; here we measure what a saturated mixed workload
  actually experiences — aggregate throughput and snapshot tail latency
  as δ grows.
* **E19** — the scaling claim behind the sharded fabric: one n-node
  cluster saturates at ≈1 op/u (the ``load --sweep`` knee at n=4), so K
  *independent* clusters behind the consistent-hash router should
  saturate at ≈K× that — the shards share no quorum, no register and no
  message channel, only the simulated timeline.

All three are backend-aware (``--backend asyncio|udp`` runs the
same workload on live substrates) and, like every registered experiment,
pure functions of their seed.
"""

from __future__ import annotations

from repro.config import scenario_config
from repro.load.driver import CLOSED, LoadSpec, run_load

__all__ = [
    "e17_throughput_vs_n",
    "e18_delta_vs_throughput",
    "e19_throughput_vs_shards",
]


def e17_throughput_vs_n(
    backend=None, ns=(2, 4, 8), duration=30.0, seed=0
):
    """E17 / deployment — saturated throughput vs cluster size.

    For each ``n``, drives ``n`` closed-loop clients (80:20
    write:snapshot mix) three times: serial clients (``depth=1``,
    today's one-round-trip-at-a-time behaviour), pipelined clients
    (``depth=4``), and pipelined clients against the ``amortized``
    variant with a transport batch window of 8 — the PR 10 batched row,
    where concurrent local operations share quorum rounds instead of
    paying full message cost each.  ``pipelining_gain`` is the
    depth-4/serial throughput ratio; ``amortized_gain`` is the
    amortized-batched/depth-4 ratio.
    """
    backend = backend or "sim"
    rows = []
    for n in ns:
        def drive(algorithm, depth, batch=None):
            spec = LoadSpec(
                mode=CLOSED,
                clients=n,
                depth=depth,
                duration=duration,
                write_fraction=0.8,
                seed=seed,
            )
            return run_load(
                backend=backend,
                algorithm=algorithm,
                config=scenario_config(n=n, seed=seed, delta=2, batch=batch),
                spec=spec,
            )

        serial = drive("ss-nonblocking", depth=1)
        pipelined = drive("ss-nonblocking", depth=4)
        amortized = drive("amortized", depth=4, batch=8)
        rows.append(
            {
                "backend": backend,
                "n": n,
                "clients": n,
                "throughput_serial": round(serial.throughput, 2),
                "throughput_depth4": round(pipelined.throughput, 2),
                "pipelining_gain": round(
                    pipelined.throughput / max(serial.throughput, 1e-9), 2
                ),
                "throughput_amortized_b8": round(amortized.throughput, 2),
                "amortized_gain": round(
                    amortized.throughput / max(pipelined.throughput, 1e-9), 2
                ),
                "p50_depth4": round(pipelined.latency["all"]["p50"], 1),
                "p99_depth4": round(pipelined.latency["all"]["p99"], 1),
                "p50_amortized_b8": round(
                    amortized.latency["all"]["p50"], 1
                ),
                "linearizable": serial.ok and pipelined.ok and amortized.ok,
            }
        )
    return rows


def e18_delta_vs_throughput(
    backend=None, deltas=(0, 2, 8), n=5, duration=30.0, seed=0
):
    """E18 / Contribution 2 — δ vs throughput and snapshot tails under load.

    Saturated closed-loop mixed workload (70:30 write:snapshot, ``n``
    pipelined clients) against Algorithm 3 (``ss-always``) at several δ.
    Larger δ lets writes run longer before snapshot helping blocks them —
    higher write throughput, longer snapshot tails — the same trade-off
    E10 showed in messages, now in operations per time unit.

    Each δ also runs with a transport batch window of 8 (the PR 10
    batched row): clients here are FIFO-serialized per node, so the
    window mostly coalesces retransmissions and gossip that share an
    instant with operation traffic — the measurement shows transport
    batching is safe (and roughly neutral) for serialized clients, in
    contrast to the ``amortized`` variant's shared-round win in E17.
    """
    backend = backend or "sim"
    rows = []
    for delta in deltas:
        def drive(batch=None):
            spec = LoadSpec(
                mode=CLOSED,
                clients=n,
                depth=2,
                duration=duration,
                write_fraction=0.7,
                seed=seed,
            )
            return run_load(
                backend=backend,
                algorithm="ss-always",
                config=scenario_config(
                    n=n, seed=seed, delta=delta, batch=batch
                ),
                spec=spec,
            )

        report = drive()
        batched = drive(batch=8)
        rows.append(
            {
                "backend": backend,
                "delta": delta,
                "throughput": round(report.throughput, 2),
                "throughput_batch8": round(batched.throughput, 2),
                "write_p50": round(report.latency["write"]["p50"], 1),
                "snapshot_p50": round(report.latency["snapshot"]["p50"], 1),
                "snapshot_p99": round(report.latency["snapshot"]["p99"], 1),
                "linearizable": report.ok and batched.ok,
            }
        )
    return rows


def e19_throughput_vs_shards(
    backend=None, ks=(1, 2, 4, 8), duration=60.0, seed=0
):
    """E19 / sharding — aggregate saturated throughput vs shard count.

    A saturated closed-loop keyed workload against K-shard fabrics at
    n=4 per shard, with composed cross-shard cuts taken mid-run and the
    full two-layer linearizability check on every run.  Clients scale
    with K (8 per shard, depth 2) so the offered concurrency covers the
    fabric's ``K × n`` register slots at every rung; uniform key
    popularity lets the ring spread them evenly.  ``speedup_vs_k1`` is
    against the first rung of the series — at K=1, the single-cluster
    capacity.
    """
    backend = backend or "sim"
    reports = [
        run_load(
            backend=backend,
            algorithm="ss-nonblocking",
            config=scenario_config(n=4, seed=seed, delta=2),
            spec=LoadSpec(
                mode=CLOSED,
                clients=8 * shards,
                depth=2,
                duration=duration,
                write_fraction=0.8,
                composes=2,
                seed=seed,
            ),
            shards=shards,
        )
        for shards in ks
    ]
    return [
        {
            "shards": report.shards,
            "clients": report.spec.clients,
            "completed": report.completed,
            "throughput": round(report.throughput, 3),
            "speedup_vs_k1": round(
                report.throughput / reports[0].throughput, 2
            ),
            "p50": round(report.latency["all"]["p50"], 2),
            "p99": round(report.latency["all"]["p99"], 2),
            "imbalance": round(report.imbalance, 3),
            "composed_cuts": report.composes,
            "linearizable": report.ok,
        }
        for report in reports
    ]
