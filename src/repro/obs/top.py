"""``python -m repro top``: a live terminal health dashboard.

Drives a closed-loop workload against any backend and refreshes a
terminal frame while it runs: per-node health states (from the
:class:`~repro.obs.health.HealthMonitor`), the blame table (slowest
quorum responders, from :mod:`repro.obs.attribution`), and the active
alerts (from :class:`~repro.obs.alerts.AlertEngine`).  With
``--throttle NODE:FACTOR`` the dashboard doubles as a gray-failure
demo: the throttled node drifts to ``limping`` and tops the blame
table within a few refresh intervals.

The workload's latencies go to the session registry's ``load.latency``
and ``load.<kind>_latency`` quantile histograms (bounded memory however
long the run): the frame header shows their p50/p99, ``--metrics-port``
serves them as summaries, and an ``SloRule("load.latency", "p99", …)``
reads them.

Rendering is split so it stays testable: :func:`render_frame` is a pure
function of the session state (golden-testable, no terminal involved);
:func:`run_top` owns the workload, the refresh loop, and the screen.

On the ``sim`` backend the refresh interval is *simulated* time — the
whole run completes in milliseconds of wall clock and frames print as
the virtual clock passes each tick, fully deterministic for a seed.  On
the live backends (``asyncio``/``udp``) frames track the wall clock
through the kernel's ``time_scale``, and ``--metrics-port`` additionally
serves the registry as Prometheus text exposition
(:mod:`repro.obs.promtext`) for the duration of the run.
"""

from __future__ import annotations

import sys
from argparse import Namespace
from typing import Any

from repro.errors import ConfigurationError
from repro.obs.alerts import AlertEngine, default_rules
from repro.obs.attribution import blame_rows
from repro.obs.observe import Observability, session

__all__ = ["render_frame", "run_top", "parse_throttle"]

#: ANSI clear-screen + cursor-home, used between frames on a tty.
_CLEAR = "\x1b[2J\x1b[H"


def render_frame(
    obs: Observability,
    engine: AlertEngine | None = None,
    *,
    time: float = 0.0,
    backend: str = "",
) -> str:
    """Render one dashboard frame from the session's current state.

    Pure with respect to the terminal: samples the health monitors and
    blame aggregate, formats the tables, and returns the frame as a
    string (the caller decides how to display it).
    """
    from repro.harness.report import format_table

    values = obs.collect()
    header = (
        f"repro top — backend={backend or '?'} t={time:.2f} "
        f"ops={int(values.get('ops.completed', 0))}"
        f"/{int(values.get('ops.total', 0))} "
        f"msgs={int(values.get('net.messages_total', 0))} "
        f"retransmits={int(values.get('ops.retransmits', 0))}"
    )
    latency = values.get("load.latency")
    if latency:
        header += f" p50={latency['p50']:.2f} p99={latency['p99']:.2f}"
    parts = [header, "=" * len(header)]
    health_rows = []
    for index, nodes in obs.health_reports():
        for health in nodes:
            health_rows.append(
                {
                    "cluster": index,
                    "node": health["node"],
                    "state": health["state"],
                    "service_ewma": health["service_ewma"],
                    "replies": health["replies"],
                    "retransmit_rate": health["retransmit_rate"],
                    "queue_depth": health["queue_depth"],
                    "detections": health["detections"],
                }
            )
    parts.append("")
    parts.append(format_table(health_rows, title="node health"))
    rows = blame_rows(obs.blame())
    if any(row["replies"] or row["blamed"] for row in rows):
        parts.append("")
        parts.append(
            format_table(rows, title="blame (slowest quorum responder)")
        )
    parts.append("")
    if engine is not None:
        active = engine.active()
        if active:
            parts.append("alerts:")
            for alert in active:
                parts.append(
                    f"  [{alert.severity.upper():8s}] {alert.rule} "
                    f"node={alert.node} — {alert.message}"
                )
        else:
            parts.append("alerts: (none)")
    return "\n".join(parts)


def parse_throttle(value: str) -> tuple[int, float]:
    """Parse one ``NODE:FACTOR`` throttle flag value."""
    try:
        node_str, factor_str = value.split(":")
        return int(node_str), float(factor_str)
    except ValueError:
        raise ConfigurationError(
            f"--throttle wants NODE:FACTOR (e.g. '3:12'), got {value!r}"
        ) from None


def run_top(args: Namespace) -> int:
    """The ``python -m repro top`` command body, on its parsed flags."""
    from repro.backend.base import run_on_backend
    from repro.config import scenario_config
    from repro.load.driver import LoadSpec, LoadGenerator

    backend, duration, refresh = args.backend, args.budget, args.refresh
    clear = sys.stdout.isatty() and not args.plain
    obs = Observability(trace_messages=False)
    engine = AlertEngine(default_rules())
    spec = LoadSpec(
        clients=args.clients, depth=2, duration=duration, seed=args.seed
    )

    def record(kind: str, latency: float) -> None:
        obs.registry.quantile_histogram("load.latency").observe(latency)
        obs.registry.quantile_histogram(f"load.{kind}_latency").observe(latency)

    async def body(cluster: Any) -> None:
        kernel = cluster.kernel
        for node_id, factor in args.throttles:
            cluster.throttle(node_id, factor)
        exposition = None
        if args.metrics_port is not None:
            from repro.obs.promtext import MetricsExposition, prometheus_text

            exposition = MetricsExposition(
                lambda: prometheus_text(obs.collect())
            )
            host, port = await exposition.start(port=args.metrics_port)
            print(f"serving metrics at http://{host}:{port}/metrics")
        generator = LoadGenerator(cluster, spec, record=record)
        workload = kernel.create_task(generator.run(), name="top-load")
        try:
            deadline = kernel.now + duration
            while kernel.now < deadline:
                await kernel.sleep(min(refresh, deadline - kernel.now))
                engine.evaluate_session(obs)
                frame = render_frame(
                    obs, engine, time=kernel.now, backend=backend
                )
                print((_CLEAR if clear else "") + frame, flush=True)
            await workload
        finally:
            if exposition is not None:
                await exposition.stop()
        engine.evaluate_session(obs)
        frame = render_frame(obs, engine, time=kernel.now, backend=backend)
        print((_CLEAR if clear else "") + frame, flush=True)

    with session(obs):
        run_on_backend(
            backend,
            args.algorithm,
            scenario_config(n=args.n, seed=args.seed),
            body,
            max_events=None,
        )
    raised = engine.history
    if raised:
        print()
        print(f"{len(raised)} alert(s) raised over the run:")
        for alert in raised:
            resolved = (
                f" (resolved t={alert.resolved_at:.2f})"
                if alert.resolved_at is not None
                else ""
            )
            print(
                f"  t={alert.time:.2f} [{alert.severity}] {alert.rule} "
                f"node={alert.node}{resolved}"
            )
    return 0
