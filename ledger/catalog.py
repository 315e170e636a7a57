"""Workload and metric declarations — the ledger's single source of names.

``BENCHMARK.json`` at the repository root mirrors this module
(``ledger/test_ledger.py`` asserts they agree).  Nothing here imports
``repro``: the catalogue must load in a checkout that holds only the
benchmark, so the command can fail cleanly there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "EndToEnd",
    "PerLayer",
    "Workload",
    "END_TO_END",
    "PER_LAYER",
    "WORKLOADS",
    "DRIVER_BOUNDS",
    "DRIVER_WORKLOADS",
    "DRIVER_END_TO_END",
    "RUN_SECONDS",
    "workload",
]

#: ``run_seconds`` in BENCHMARK.json and the default ``--seconds`` budget.
#: The host's speed moves between regimes 20-30 % apart that last ten to
#: thirty seconds; a run has to outlast them for its median to be steady
#: (README, *What BENCHMARK.json registers*).
RUN_SECONDS = 38


@dataclass(frozen=True)
class Workload:
    """One named deployment + load shape (see README for the reasoning)."""

    name: str
    why: str
    driver: str  # "backend" | "client" | "storm" — which runner drives it
    backend: str
    algorithm: str
    n: int
    ops: int
    clients: int
    depth: int
    write_fraction: float
    shards: int = 1
    config: dict = field(default_factory=dict)  # scenario_config keywords
    time_scale: float = 0.002
    #: storm only: epochs the ops are split over
    epochs: int = 1
    #: client only: key universe and composed-snapshot cadence
    keys: int = 0
    compose_every: int = 0

    @property
    def deterministic(self) -> bool:
        return self.backend == "sim"


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="sim-write-heavy",
        why=(
            "paper's common case, 80:20 writes on n=4: kernel dispatch, "
            "channel, size model and write handlers do the work; checker "
            "and fabric do little"
        ),
        driver="backend",
        backend="sim",
        algorithm="ss-nonblocking",
        n=4,
        ops=4000,
        clients=8,
        depth=4,
        write_fraction=0.8,
    ),
    Workload(
        name="sim-scan-heavy",
        why=(
            "same layers the other way round, 20:80 on n=8: snapshots "
            "carry 8-entry register arrays, so size model, merges and the "
            "pairwise checker dominate; a write-path gain that taxes scans "
            "shows here"
        ),
        driver="backend",
        backend="sim",
        algorithm="ss-nonblocking",
        n=8,
        ops=2000,
        clients=8,
        depth=4,
        write_fraction=0.2,
    ),
    Workload(
        name="sim-shard-amortized",
        why=(
            "only path crossing client, fabric route, slot chains, shared "
            "amortized rounds and transport bundles (K=4, batch=8); the "
            "other workloads bypass all of it"
        ),
        driver="client",
        backend="sim",
        algorithm="amortized",
        n=4,
        shards=4,
        ops=2000,
        clients=8,
        depth=4,
        write_fraction=0.8,
        config={"delta": 2, "batch": 8},
        keys=256,
        compose_every=250,
    ),
    Workload(
        name="udp-live",
        why=(
            "zero modelled delay over real loopback sockets: the socket "
            "path, TLV codec and asyncio loop are the bound; the sim kernel "
            "does nothing here and the codec runs nowhere else"
        ),
        driver="backend",
        backend="udp",
        algorithm="ss-nonblocking",
        n=4,
        ops=2000,
        clients=8,
        depth=4,
        write_fraction=0.8,
        config={"fixed_delay": 0.0},
    ),
    Workload(
        name="sim-fault-storm",
        why=(
            "the paper's contribution is recovery: 10 epochs of loss, a "
            "crash and a minority partition, each ending in an "
            "arbitrary-state scramble; retransmission and stabilization "
            "work only here"
        ),
        driver="storm",
        backend="sim",
        algorithm="ss-always",
        n=5,
        ops=3000,
        clients=6,
        depth=2,
        write_fraction=0.7,
        config={"delta": 2, "loss": 0.05},
        epochs=10,
    ),
)


#: The workloads BENCHMARK.json registers with the PR driver.  Its time cap
#: covers every run of every registered workload, so five workloads would
#: leave each run 22 s — too short to be steady on this host — and
#: ``udp-live`` drifts by a third between half-hours.
#: These three reach every layer but the codec and the socket path; the
#: other two stay in the ledger for ``python3 -m ledger`` and
#: ``ledger.compare`` (README, *What BENCHMARK.json registers*).
DRIVER_WORKLOADS: tuple[str, ...] = (
    "sim-write-heavy",
    "sim-shard-amortized",
    "sim-fault-storm",
)


def workload(name: str) -> Workload:
    for entry in WORKLOADS:
        if entry.name == name:
            return entry
    raise KeyError(name)


@dataclass(frozen=True)
class EndToEnd:
    """One end-to-end metric: what a user of the deployment sees.

    ``bound`` is the ledger's own same-seed regression bound used by
    ``ledger.compare`` (``0`` = may never get worse); ``exact`` metrics
    are bit-identical run to run on the deterministic workloads, and
    ``live_bound`` replaces ``bound`` where they are not (on ``udp-live``
    gossip traffic per op depends on how long the run took).
    ``applies`` is ``"all"``, ``"sim"`` (the ``sim-*`` workloads) or one
    workload name.
    """

    name: str
    unit: str
    better: str
    bound: float
    applies: str
    exact: bool
    what: str
    live_bound: float | None = None

    def bound_on(self, w: Workload) -> float:
        if self.live_bound is not None and not w.deterministic:
            return self.live_bound
        return self.bound

    def applies_to(self, w: Workload) -> bool:
        if self.applies == "all":
            return True
        if self.applies == "sim":
            return w.deterministic
        return self.applies == w.name


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, "all", False,
             "imports + warm-up + deployment build, up to the first submission (medians)"),
    EndToEnd("drive_ops_per_s", "1/s", "higher", 0.15, "all", False,
             "completed ops per host second, first submission to last completion"),
    EndToEnd("check_s", "s", "lower", 0.15, "all", False,
             "host seconds to validate and linearizability-check the run's history"),
    EndToEnd("sim_ops_per_u", "1/u", "higher", 0.02, "sim", True,
             "completed ops per simulated time unit"),
    EndToEnd("sim_lat_p50_u", "u", "lower", 0.02, "sim", True,
             "median submit-to-completion latency, simulated units"),
    EndToEnd("sim_lat_p99_u", "u", "lower", 0.02, "sim", True,
             "p99 submit-to-completion latency, simulated units"),
    EndToEnd("wall_lat_p50_ms", "ms", "lower", 0.15, "udp-live", False,
             "median submit-to-completion latency, host milliseconds"),
    EndToEnd("wall_lat_p99_ms", "ms", "lower", 0.15, "udp-live", False,
             "p99 submit-to-completion latency, host milliseconds"),
    EndToEnd("msgs_per_op", "1/op", "lower", 0.01, "all", True,
             "wire messages per completed op (the paper's headline cost)", 0.10),
    EndToEnd("wire_bytes_per_op", "B/op", "lower", 0.01, "all", True,
             "modelled wire bytes per completed op", 0.10),
    EndToEnd("failed_ops_frac", "frac", "lower", 0.0, "all", True,
             "(errored + cancelled + unfinished at the drain deadline) / submitted"),
    EndToEnd("violations", "count", "lower", 0.0, "all", True,
             "well-formedness + linearizability + composed-cut violations"),
    EndToEnd("recovery_cycles_max", "cycles", "lower", 0.0, "sim-fault-storm", True,
             "max asynchronous cycles from scramble to a Definition-1 state"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, "all", False,
             "process peak resident set size"),
)

#: What BENCHMARK.json registers with the PR driver.  The driver needs a
#: non-zero number for every metric on every workload and compares runs
#: made with *different* seeds on a host whose speed wanders, so:
#:
#: * the two always-zero metrics travel as the result line's
#:   ``failed`` / ``correct`` fields, and ``recovery_cycles_max`` (storm
#:   only) moves to the per-layer list;
#: * ``sim_*`` is printed on every workload in the deployment's own clock
#:   — on ``udp-live`` a model unit is ``time_scale`` seconds of wall
#:   clock, so ``sim_lat_*_u`` there *is* the wall latency and the
#:   ``wall_lat_*_ms`` twins are not registered a second time;
#: * bounds are at least three times the spread measured across ten
#:   seeds (README), not sized to same-seed exactness — ``ledger.compare``
#:   keeps the strict ones.
DRIVER_BOUNDS: dict[str, float] = {
    "setup_s": 0.25,
    "drive_ops_per_s": 0.25,
    "check_s": 0.25,
    "sim_ops_per_u": 0.12,
    "sim_lat_p50_u": 0.25,
    "sim_lat_p99_u": 0.25,
    "msgs_per_op": 0.12,
    "wire_bytes_per_op": 0.12,
    "peak_rss_mb": 0.10,
}

#: ``(name, unit, better, bound)`` rows, exactly as BENCHMARK.json lists them.
DRIVER_END_TO_END: tuple[tuple[str, str, str, float], ...] = tuple(
    (m.name, m.unit, m.better, DRIVER_BOUNDS[m.name])
    for m in END_TO_END
    if m.name in DRIVER_BOUNDS
)


@dataclass(frozen=True)
class PerLayer:
    """One per-layer metric and the end-to-end metric it should move."""

    name: str
    unit: str
    better: str
    moves: str  # "end-to-end metric -> workload(s)"
    flat: str  # where the prediction is "no change"

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _pl(name, unit, better, moves, flat="-"):
    return PerLayer(name, unit, better, moves, flat)


PER_LAYER: tuple[PerLayer, ...] = (
    _pl("sim.events_per_op", "count", "lower", "drive_ops_per_s -> every sim-*", "udp-live"),
    _pl("sim.dispatch_self_us_per_op", "us", "lower", "drive_ops_per_s -> every sim-*", "udp-live"),
    _pl("sim.tick_events_per_s", "1/s", "higher", "drive_ops_per_s -> every sim-*", "udp-live"),
    _pl("net.send_self_us_per_op", "us", "lower", "drive_ops_per_s -> sim-scan-heavy, sim-write-heavy", "exact metrics"),
    _pl("net.size_us_per_op", "us", "lower", "drive_ops_per_s -> sim-scan-heavy, sim-write-heavy", "exact metrics"),
    _pl("net.size_us_per_msg", "us", "lower", "drive_ops_per_s -> sim-scan-heavy, sim-write-heavy", "exact metrics"),
    _pl("net.model_bytes_per_msg", "B", "lower", "wire_bytes_per_op -> all", "-"),
    _pl("net.codec_encode_us_per_msg", "us", "lower", "drive_ops_per_s, wall_lat_p50_ms -> udp-live", "every sim-*"),
    _pl("net.codec_decode_us_per_msg", "us", "lower", "drive_ops_per_s, wall_lat_p50_ms -> udp-live", "every sim-*"),
    _pl("net.codec_bytes_per_msg", "B", "lower", "drive_ops_per_s -> udp-live", "every sim-*"),
    _pl("net.codec_over_model_bytes", "ratio", "lower", "drive_ops_per_s -> udp-live", "every sim-*"),
    _pl("net.quorum_rounds_per_op", "count", "lower", "sim_ops_per_u, msgs_per_op -> sim-shard-amortized", "-"),
    _pl("net.quorum_offer_us_per_op", "us", "lower", "drive_ops_per_s -> all", "-"),
    _pl("net.batch_msgs_per_bundle", "count", "higher", "msgs_per_op -> sim-shard-amortized", "batch_window=1 workloads"),
    _pl("net.lost_frac", "frac", "lower", "sim_lat_p99_u -> sim-fault-storm", "loss-free workloads"),
    _pl("net.dup_frac", "frac", "lower", "sim_lat_p99_u -> sim-fault-storm", "loss-free workloads"),
    _pl("core.handler_us_per_op", "us", "lower", "drive_ops_per_s -> all", "-"),
    _pl("core.handler_calls_per_op", "count", "lower", "drive_ops_per_s -> all", "-"),
    _pl("core.client_step_us_per_op", "us", "lower", "drive_ops_per_s -> all", "-"),
    _pl("core.gossip_us_per_op", "us", "lower", "drive_ops_per_s -> all; wall_lat_p50_ms -> udp-live", "-"),
    _pl("backend.submit_us_per_op", "us", "lower", "drive_ops_per_s -> sim-write-heavy", "sim-shard-amortized"),
    _pl("backend.queue_wait_frac", "frac", "lower", "sim_lat_p50_u, sim_ops_per_u -> sim-write-heavy", "sim-shard-amortized"),
    _pl("shard.route_us_per_op", "us", "lower", "drive_ops_per_s -> sim-shard-amortized", "K=1 workloads"),
    _pl("shard.submit_us_per_op", "us", "lower", "drive_ops_per_s -> sim-shard-amortized", "K=1 workloads"),
    _pl("shard.imbalance", "ratio", "lower", "sim_ops_per_u -> sim-shard-amortized", "K=1 workloads"),
    _pl("shard.compose_u_p50", "u", "lower", "sim_lat_p99_u -> sim-shard-amortized", "K=1 workloads"),
    _pl("shard.compose_fenced_frac", "frac", "lower", "sim_lat_p99_u -> sim-shard-amortized", "K=1 workloads"),
    _pl("shard.check_s", "s", "lower", "check_s -> sim-shard-amortized", "K=1 workloads"),
    _pl("analysis.history_us_per_op", "us", "lower", "drive_ops_per_s -> all", "-"),
    _pl("analysis.check_us_per_op", "us", "lower", "check_s -> sim-scan-heavy, sim-write-heavy", "drive_ops_per_s"),
    _pl("analysis.check_scaling_exponent", "log2", "lower", "check_s -> sim-scan-heavy, sim-write-heavy", "drive_ops_per_s"),
    _pl("analysis.invariants_us_per_eval", "us", "lower", "recovery_cycles_max -> sim-fault-storm", "others"),
    _pl("stabilization.recovery_cycles_p50", "cycles", "lower", "recovery_cycles_max -> sim-fault-storm", "others"),
    _pl("stabilization.recovery_cycles_max", "cycles", "lower", "recovery_cycles_max -> sim-fault-storm", "others"),
    _pl("stabilization.post_fault_pair_u_max", "u", "lower", "sim_lat_p99_u -> sim-fault-storm", "others"),
    _pl("stabilization.post_fault_wrong_ops", "count", "lower", "recovery_cycles_max -> sim-fault-storm", "others"),
    _pl("fault.inject_us_per_burst", "us", "lower", "drive_ops_per_s -> sim-fault-storm", "others"),
    _pl("runtime.udp_send_self_us_per_msg", "us", "lower", "wall_lat_p99_ms -> udp-live", "every sim-*"),
    _pl("runtime.datagrams_per_op", "count", "lower", "wall_lat_p99_ms -> udp-live", "every sim-*"),
    _pl("runtime.loop_lag_ms_p99", "ms", "lower", "wall_lat_p99_ms -> udp-live", "every sim-*"),
    _pl("obs.on_overhead_pct", "%", "lower", "guards the <=2% obs-off contract (sim-write-heavy)", "-"),
    _pl("obs.spans_per_op", "count", "lower", "obs.on_overhead_pct (sim-write-heavy)", "-"),
    _pl("verify.explorer_schedules_per_s", "1/s", "higher", "continuity with BENCH_PR1 (sim-write-heavy)", "-"),
    _pl("trace.overhead_pct", "%", "lower", "sanity of the traced run itself", "-"),
    _pl("trace.spans", "count", "lower", "sanity of the traced run itself", "-"),
)
