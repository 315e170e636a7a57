"""Warm-up, timed repetitions, medians and the ledger record.

Untraced pass (:func:`measure`): warm-up at 5 % size, then timed
repetitions on fresh deployments (``gc.collect()`` before each) until
``--seconds`` of wall clock are used — never fewer than
:data:`MIN_REPS`.  Repetitions are short (one to two seconds, see
``catalog``) so that a run holds ten or more of them: the host's speed
wanders in bursts of a few seconds, and a median over many short
repetitions shrugs a burst off where one over two long ones cannot.
Wall-clock metrics are the median of the repetitions; exact metrics must
be identical across them.  Set-up (a fresh interpreter's imports and the
warm-up) is timed again after every second repetition, so its medians
span the run too.

Traced pass (:func:`trace`): warm-up, one untraced repetition (the
overhead baseline), one repetition with the shims installed, then the
replay probes.  It produces per-layer metrics only — end-to-end numbers
are always taken with shims and obs off.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import subprocess
import sys
from statistics import median
from time import perf_counter
from typing import Any

from ledger import probes
from ledger.catalog import DRIVER_END_TO_END, END_TO_END, PER_LAYER, Workload
from ledger.loadgen import percentile
from ledger.trace import Tracer
from ledger.workloads import RunResult, run_once

__all__ = [
    "measure",
    "trace",
    "import_seconds",
    "continuity",
    "host_block",
    "driver_metrics",
    "driver_per_layer",
    "SCHEMA",
]

SCHEMA = "ledger/1"
WARMUP_SCALE = 0.05
#: Set-up is short and noisy: its import and warm-up parts are measured
#: again after every this-many repetitions, so the samples span the whole
#: run rather than its first second, and reported as medians.
SETUP_EVERY = 2
MIN_REPS = 2
MAX_REPS = 60
#: The obs-overhead probe drives this fraction of ``sim-write-heavy``.
OBS_PROBE_SCALE = 0.25

_OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _git_commit() -> str | None:
    """HEAD of the checkout the ledger sits in (None outside a git tree)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=root,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def host_block() -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- end to end ---------------------------------------------------------------


def _raw_metrics(r: RunResult) -> dict:
    """Every end-to-end quantity of one repetition, applicable or not.

    ``setup_s`` is the deployment build only; :func:`measure` adds the
    import and warm-up medians once the run has taken all their samples.
    """
    s = r.stats
    done = max(s.completed, 1)
    lat_u = sorted(s.lat_u)
    lat_ms = sorted(s.lat_ms)
    cycles = r.extras.get("recovery_cycles") or [0]
    return {
        "setup_s": r.setup_s,
        "drive_ops_per_s": s.completed / r.drive_s if r.drive_s else 0.0,
        "check_s": r.check_s,
        "sim_ops_per_u": s.completed / r.elapsed_u if r.elapsed_u else 0.0,
        "sim_lat_p50_u": percentile(lat_u, 0.50),
        "sim_lat_p99_u": percentile(lat_u, 0.99),
        "wall_lat_p50_ms": percentile(lat_ms, 0.50),
        "wall_lat_p99_ms": percentile(lat_ms, 0.99),
        "msgs_per_op": r.traffic.total_messages / done,
        "wire_bytes_per_op": r.traffic.total_bytes / done,
        "failed_ops_frac": s.failed / max(s.submitted, 1),
        "violations": len(r.violations),
        "recovery_cycles_max": max(cycles),
        "peak_rss_mb": _peak_rss_mb(),
    }


def import_seconds() -> float:
    """Process start → program imported, on one fresh interpreter.

    This process's own imports happen once and cannot be re-timed, so
    set-up's import share is measured on a child that imports what the
    ledger imports and exits.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "import ledger; ledger.bootstrap(); import ledger.run"],
        cwd=root, check=True, timeout=120,
    )
    return perf_counter() - start


def measure(
    w: Workload, seed: int, seconds: float, scale: float, imports: bool = True
) -> dict:
    """The untraced pass of one workload → its record block.

    ``imports=False`` leaves the import share of ``setup_s`` out (the
    ledger's own tests do not need a fresh interpreter per pass).
    """
    import_runs: list[float] = []
    warmup_runs: list[float] = []

    def setup_pass() -> None:
        if imports:
            import_runs.append(import_seconds())
        start = perf_counter()
        run_once(w, seed, scale * WARMUP_SCALE)
        warmup_runs.append(perf_counter() - start)

    setup_pass()  # also the warm-up the timed repetitions need

    # Only the reduced numbers of a repetition are kept: holding every
    # repetition's history alive would make each later one pay for a
    # larger heap.
    raws: list[dict] = []
    digests: list[str | None] = []
    deploy_s: list[float] = []
    violations: list[str] = []
    samples: dict[str, int] = {}
    attempted = failed = 0
    began = perf_counter()
    # Stop once the next repetition would overshoot the budget by more
    # than it undershoots now (repetitions of one seed take equal time).
    while len(raws) < MIN_REPS or (
        (perf_counter() - began) * (1 + 0.5 / len(raws)) < seconds
        and len(raws) < MAX_REPS
    ):
        if raws and len(raws) % SETUP_EVERY == 0:
            setup_pass()
        gc.collect()
        result = run_once(w, seed, scale)
        raws.append(_raw_metrics(result))
        digests.append(result.digest)
        deploy_s.append(result.setup_s)
        violations.extend(result.violations)
        attempted += result.stats.submitted
        failed += result.stats.failed
        samples = {
            "submitted_per_rep": result.stats.submitted,
            "completed_per_rep": result.stats.completed,
            "latency_samples_per_rep": len(result.stats.lat_u),
            "beyond_p99": len(result.stats.lat_u) // 100,
        }
        del result

    import_s = median(import_runs) if import_runs else 0.0
    warmup_s = median(warmup_runs)
    for raw in raws:
        raw["setup_s"] += import_s + warmup_s

    block: dict[str, Any] = {
        "why": w.why,
        "deployment": {
            "backend": w.backend,
            "algorithm": w.algorithm,
            "n": w.n,
            "shards": w.shards,
            "clients": w.clients,
            "depth": w.depth,
            "write_fraction": w.write_fraction,
            "config": w.config,
        },
        "samples": {"repetitions": len(raws), **samples},
        "setup_parts_s": {
            "imports": import_s,
            "imports_runs": import_runs,
            "warmup": warmup_s,
            "warmup_runs": warmup_runs,
            "deployment": deploy_s,
        },
        "end_to_end": {},
        "raw": {},
        "digest": digests[0],
        "totals": {"attempted": attempted, "failed": failed},
    }
    for metric in END_TO_END:
        runs = [raw[metric.name] for raw in raws]
        block["raw"][metric.name] = median(runs)
        entry: dict[str, Any] = {
            "what": metric.what,
            "unit": metric.unit,
            "better": metric.better,
            "bound": metric.bound_on(w),
        }
        if not metric.applies_to(w):
            entry.update(value=None, reason=f"applies to {metric.applies} only")
        else:
            exact = metric.exact and w.deterministic
            if exact and len(set(runs)) > 1:
                violations.append(
                    f"nondeterministic: {metric.name} differs across "
                    f"repetitions {runs}"
                )
            entry.update(value=median(runs), runs=runs, exact=exact)
        block["end_to_end"][metric.name] = entry
    if w.deterministic and len(set(digests)) > 1:
        violations.append("nondeterministic: history digest differs across repetitions")
    # Nondeterminism found above counts as a violation like any other.
    block["end_to_end"]["violations"]["value"] = len(violations)
    block["raw"]["violations"] = len(violations)
    block["violation_messages"] = violations[:20]
    return block


def driver_metrics(block: dict) -> dict:
    """The end-to-end metrics of the PR driver's result line.

    Every registered metric is printed on every workload.  Where the
    ledger record says ``null`` (``sim_*`` on ``udp-live``) the line
    carries the same measurement in the deployment's own clock: a model
    unit on a live run is ``time_scale`` seconds of wall clock.
    """
    return {
        name: {"value": block["raw"][name], "unit": unit}
        for name, unit, _better, _bound in DRIVER_END_TO_END
    }


# -- per layer -----------------------------------------------------------------


def _named(*names: str):
    wanted = set(names)
    return lambda name, layer: name in wanted


def trace(w: Workload, seed: int, scale: float) -> dict:
    """The traced pass of one workload → its per-layer block."""
    run_once(w, seed, scale * WARMUP_SCALE)
    gc.collect()
    plain = run_once(w, seed, scale, check=False)
    gc.collect()
    tracer = Tracer()
    with tracer.installed():
        traced = run_once(w, seed, scale, tracer)

    values: dict[str, float | None] = {}
    reasons: dict[str, str] = {}

    def put(name: str, value: float | None, reason: str = "") -> None:
        values[name] = value
        if value is None:
            reasons[name] = reason

    ops = max(traced.stats.completed, 1)
    absent = set(tracer.absent)

    def self_us(*names: str, phase: str | None = "drive") -> float | None:
        count, _total, self_s = tracer.select(phase, _named(*names))
        return self_s / ops * 1e6 if count else None

    def missing(*paths: str) -> str:
        gone = [p for p in paths if p in absent]
        if gone:
            return f"entry point absent: {', '.join(gone)}"
        return "entry point never called on this workload"

    live = not w.deterministic
    sharded = w.shards > 1
    storm = w.driver == "storm"
    headline = w.name == "sim-write-heavy"
    elsewhere = "reported with sim-write-heavy"

    # sim
    put("sim.events_per_op",
        traced.events / ops if traced.events is not None else None,
        "no simulated kernel on a live backend")
    put("sim.dispatch_self_us_per_op", self_us("Kernel.run_until_complete"),
        "no simulated kernel on a live backend" if live
        else missing("repro.sim.kernel.Kernel.run_until_complete"))
    put("sim.tick_events_per_s",
        probes.tick_events_per_s() if headline else None, elsewhere)

    # net
    put("net.send_self_us_per_op", self_us("Network.send", "UdpNetwork.send"),
        missing("repro.net.network.Network.send", "repro.runtime.udp.UdpNetwork.send"))
    size_count, size_total, _ = tracer.select("drive", _named("Message.wire_size"))
    put("net.size_us_per_op", size_total / ops * 1e6 if size_count else None,
        missing("repro.net.message.Message.wire_size"))
    size = probes.replay_size_model(tracer.captured)
    put("net.size_us_per_msg", size.get("size_us_per_msg"), "no messages captured")
    put("net.model_bytes_per_msg", size.get("model_bytes_per_msg"), "no messages captured")
    codec = probes.replay_codec(tracer.captured)
    for key in ("encode_us_per_msg", "decode_us_per_msg"):
        put(f"net.codec_{key}", codec.get(key), "no encodable messages captured")
    put("net.codec_bytes_per_msg", codec.get("codec_bytes_per_msg"),
        "no encodable messages captured")
    put("net.codec_over_model_bytes", codec.get("codec_over_model_bytes"),
        "no encodable messages captured")
    rounds, _, _ = tracer.select("drive", _named("AckCollector.__enter__"))
    put("net.quorum_rounds_per_op", rounds / ops if rounds else None,
        missing("repro.net.quorum.AckCollector.__enter__"))
    put("net.quorum_offer_us_per_op", self_us("AckCollector.offer"),
        missing("repro.net.quorum.AckCollector.offer"))
    t = traced.traffic
    packets = t.total_messages - t.batched_messages + t.batches
    put("net.batch_msgs_per_bundle", t.total_messages / packets if packets else None,
        "no packets sent")
    put("net.lost_frac", t.dropped_loss / packets if packets else None, "no packets sent")
    put("net.dup_frac", t.duplicated / packets if packets else None, "no packets sent")

    # core
    handlers, _, handler_self = tracer.select(
        "drive", lambda name, layer: name.startswith("handler:") and layer == "core")
    put("core.handler_us_per_op", handler_self / ops * 1e6 if handlers else None,
        missing("repro.net.node.Process.register_handler"))
    put("core.handler_calls_per_op", handlers / ops if handlers else None,
        missing("repro.net.node.Process.register_handler"))
    steps, _, step_self = tracer.select(
        "drive", lambda name, layer: layer == "core"
        and name.endswith((".write", ".snapshot")))
    put("core.client_step_us_per_op", step_self / ops * 1e6 if steps else None,
        missing("repro.core.cluster.ALGORITHMS"))
    gossips, _, gossip_self = tracer.select(
        "drive", lambda name, layer: name.endswith(".do_forever_iteration"))
    put("core.gossip_us_per_op", gossip_self / ops * 1e6 if gossips else None,
        missing("repro.core.cluster.ALGORITHMS"))

    # backend
    put("backend.submit_us_per_op",
        self_us("ClusterBackend.submit_write", "ClusterBackend.submit_snapshot"),
        "the fabric calls ClusterBackend.write directly" if sharded
        else missing("repro.backend.base.ClusterBackend.submit_write"))
    waited = sum(traced.stats.lat_u)
    put("backend.queue_wait_frac",
        1.0 - traced.service_u / waited if waited else None, "no completed ops")

    # shard
    if sharded:
        put("shard.route_us_per_op", self_us("ShardedFabric.slot_of"),
            missing("repro.shard.fabric.ShardedFabric.slot_of"))
        put("shard.submit_us_per_op",
            self_us("ShardedFabric.submit_write", "ShardedFabric.submit_scan"),
            missing("repro.shard.fabric.ShardedFabric.submit_write"))
        per_shard = traced.extras["per_shard_ops"]
        put("shard.imbalance", max(per_shard) / (sum(per_shard) / len(per_shard)))
        compose_u = sorted(traced.extras["compose_u"])
        put("shard.compose_u_p50", percentile(compose_u, 0.5) if compose_u else None,
            "no composed snapshot at this scale")
        put("shard.compose_fenced_frac",
            traced.extras["compose_fenced"] / len(compose_u) if compose_u else None,
            "no composed snapshot at this scale")
        _, _, fabric_check = tracer.select("check", _named("SnapshotClient.check"))
        put("shard.check_s", fabric_check or None,
            missing("repro.client.SnapshotClient.check"))
    else:
        for name in ("route_us_per_op", "submit_us_per_op", "imbalance",
                     "compose_u_p50", "compose_fenced_frac", "check_s"):
            put(f"shard.{name}", None, "single cluster (K=1): no fabric on the path")

    # analysis
    put("analysis.history_us_per_op",
        self_us("HistoryRecorder.invoke", "HistoryRecorder.respond"),
        missing("repro.analysis.history.HistoryRecorder.invoke"))
    checks, check_total, _ = tracer.select(
        None, _named("linearizability.check_snapshot_history"))
    put("analysis.check_us_per_op", check_total / ops * 1e6 if checks else None,
        missing("repro.analysis.linearizability.check_snapshot_history"))
    scaling = probes.check_scaling_exponent(traced.histories)
    put("analysis.check_scaling_exponent", scaling.get("exponent"),
        "history too small to time")
    evals, eval_total, _ = tracer.select(
        None, _named("invariants.definition1_consistent"))
    put("analysis.invariants_us_per_eval",
        eval_total / evals * 1e6 if evals else None,
        "no scramble on this workload" if not storm
        else missing("repro.analysis.invariants.definition1_consistent"))

    # stabilization + fault
    if storm:
        cycles = sorted(traced.extras["recovery_cycles"])
        put("stabilization.recovery_cycles_p50", percentile(cycles, 0.5))
        put("stabilization.recovery_cycles_max", cycles[-1])
        put("stabilization.post_fault_pair_u_max", max(traced.extras["post_fault_pair_u"]))
        put("stabilization.post_fault_wrong_ops", traced.extras["post_fault_wrong_ops"])
        bursts, burst_total, _ = tracer.select(
            None, _named("TransientFaultInjector.scramble_everything"))
        put("fault.inject_us_per_burst", burst_total / bursts * 1e6 if bursts else None,
            missing("repro.fault.transient.TransientFaultInjector.scramble_everything"))
    else:
        for name in ("stabilization.recovery_cycles_p50",
                     "stabilization.recovery_cycles_max",
                     "stabilization.post_fault_pair_u_max",
                     "stabilization.post_fault_wrong_ops",
                     "fault.inject_us_per_burst"):
            put(name, None, "no scramble on this workload")

    # runtime
    if live:
        sends, _, send_self = tracer.select("drive", _named("UdpNetwork.send"))
        put("runtime.udp_send_self_us_per_msg", send_self / sends * 1e6 if sends else None,
            missing("repro.runtime.udp.UdpNetwork.send"))
        put("runtime.datagrams_per_op",
            (packets - t.dropped_loss - t.dropped_capacity + t.duplicated) / ops)
        lags = sorted(traced.extras.get("loop_lag_ms") or [])
        put("runtime.loop_lag_ms_p99", percentile(lags, 0.99) if lags else None,
            "heartbeat collected no samples")
    else:
        for name in ("udp_send_self_us_per_msg", "datagrams_per_op", "loop_lag_ms_p99"):
            put(f"runtime.{name}", None, "simulated backend: no sockets, no event loop")

    # obs + verify (workload-independent probes ride with the headline workload)
    if headline:
        obs = probes.obs_overhead(w, seed, scale * OBS_PROBE_SCALE)
        put("obs.on_overhead_pct", obs["on_overhead_pct"])
        put("obs.spans_per_op", obs["spans_per_op"])
        put("verify.explorer_schedules_per_s", probes.explorer_schedules_per_s())
    else:
        put("obs.on_overhead_pct", None, elsewhere)
        put("obs.spans_per_op", None, elsewhere)
        put("verify.explorer_schedules_per_s", None, elsewhere)

    # trace
    put("trace.overhead_pct", (traced.drive_s / plain.drive_s - 1.0) * 100.0)
    put("trace.spans", tracer.span_count)

    violations = list(traced.violations)
    if w.deterministic and plain.digest != traced.digest:
        violations.append("shims perturbed the schedule: traced digest differs")

    os.makedirs(_OUT_DIR, exist_ok=True)
    trace_path = os.path.join(_OUT_DIR, f"trace-{w.name}.json")
    tracer.write_chrome_trace(
        trace_path, {"workload": w.name, "seed": seed, "scale": scale}
    )

    phases = {}
    for phase, root_s in tracer.root_s.items():
        layers = tracer.layer_self(phase)
        phases[phase] = {
            "root_s": root_s,
            "layer_self_s": layers,
            "sum_error_frac": abs(sum(layers.values()) - root_s) / root_s,
        }
    per_layer = {}
    for metric in PER_LAYER:
        entry = {
            "unit": metric.unit,
            "better": metric.better,
            "moves": metric.moves,
            "flat_on": metric.flat,
            "value": values[metric.name],
        }
        if values[metric.name] is None:
            entry["reason"] = reasons[metric.name]
        per_layer[metric.name] = entry
    return {
        "per_layer": per_layer,
        "phases": phases,
        "samples": {
            "completed": traced.stats.completed,
            "spans": tracer.span_count,
            "spans_kept": len(tracer.spans),
            "messages_replayed": size.get("messages", 0),
            "check_scaling_records": scaling.get("records", 0),
        },
        "untraced_drive_s": plain.drive_s,
        "traced_drive_s": traced.drive_s,
        "absent": tracer.absent,
        "trace_file": os.path.relpath(trace_path),
        "violation_messages": violations[:20],
        "totals": {
            "attempted": traced.stats.submitted,
            "failed": traced.stats.failed,
        },
    }


def driver_per_layer(block: dict) -> dict:
    """Per-layer metrics of the PR driver's result line (numbers only).

    The ledger record keeps ``null`` + a reason for a layer that is not
    on a workload's path; the driver's line needs a number, and the
    layer's cost on that workload is zero, so that is what it carries.
    """
    return {
        name: {"value": entry["value"] if entry["value"] is not None else 0.0,
               "unit": entry["unit"]}
        for name, entry in block["per_layer"].items()
    }


#: BENCH_PR1.json's figures (1-CPU host, PR 1 tree), frozen here so the
#: map survives that file's removal.
_BENCH_PR1 = {
    "kernel_events_per_sec": 1889052.7222255634,
    "model_checker_schedules_per_sec": 2595.5474214467663,
    "write_op_cost_n4": 0.00013706576499998845,
}


def continuity(workloads: dict) -> dict:
    """Map BENCH_PR1's metrics onto the ledger's, with today's values."""
    headline = workloads.get("sim-write-heavy", {})
    per_layer = headline.get("per_layer", {})
    end_to_end = headline.get("end_to_end", {})

    def layer_value(name: str) -> float | None:
        return per_layer.get(name, {}).get("value")

    drive = end_to_end.get("drive_ops_per_s", {}).get("value")
    return {
        "kernel_events_per_sec": {
            "ledger_metric": "sim.tick_events_per_s (traced pass, sim-write-heavy)",
            "bench_pr1": _BENCH_PR1["kernel_events_per_sec"],
            "now": layer_value("sim.tick_events_per_s"),
        },
        "model_checker_schedules_per_sec": {
            "ledger_metric": "verify.explorer_schedules_per_s (traced pass, sim-write-heavy)",
            "bench_pr1": _BENCH_PR1["model_checker_schedules_per_sec"],
            "now": layer_value("verify.explorer_schedules_per_s"),
        },
        "write_op_cost_n4": {
            "ledger_metric": "1 / drive_ops_per_s (untraced pass, sim-write-heavy)",
            "bench_pr1": _BENCH_PR1["write_op_cost_n4"],
            "now": 1.0 / drive if drive else None,
            "caveat": (
                "BENCH_PR1 timed one serial client writing to an idle cluster; "
                "the ledger figure is host seconds per op under 8x4 closed-loop "
                "mixed load, so the two are comparable in trend only"
            ),
        },
    }
