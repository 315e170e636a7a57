"""``repro.load``: saturation load generation for snapshot deployments.

One open-/closed-loop workload driver
(:class:`~repro.load.driver.LoadSpec`, :func:`~repro.load.driver.run_load`)
runs concurrent multi-writer/multi-scanner clients against a single
cluster — or, with ``shards=K``, against a K-shard fabric — on any
backend, with per-operation latency quantiles, a writers:scanners
contention dial, and pipelined clients that keep ``depth`` operations in
flight.  :func:`~repro.load.sweep.sweep_rates` ladders the offered rate
to locate the saturation knee, and E17/E18/E19 turn the measurements
into registered experiments.  See ``docs/benchmarking.md`` for the load
model and how to read the outputs.

Quick start::

    from repro.load import LoadSpec, run_load

    report = run_load("sim", "ss-nonblocking", spec=LoadSpec(clients=4, depth=4))
    print(report.summary())          # throughput, p50/p99, linearizable?

or, from the CLI::

    python -m repro load --backend sim --clients 8 --depth 4
    python -m repro load --backend sim --sweep     # offered-rate ladder + knee
    python -m repro load --shards 4                # the same driver, keyed
"""

from repro.load.driver import (
    CLOSED,
    OPEN,
    LoadGenerator,
    LoadReport,
    LoadSpec,
    parse_mix,
    run_load,
    run_load_campaigns,
)
from repro.load.experiments import (
    e17_throughput_vs_n,
    e18_delta_vs_throughput,
    e19_throughput_vs_shards,
)
from repro.load.sweep import (
    KNEE_EFFICIENCY,
    SweepResult,
    default_rate_ladder,
    sweep_rates,
)

__all__ = [
    "CLOSED",
    "OPEN",
    "KNEE_EFFICIENCY",
    "LoadGenerator",
    "LoadReport",
    "LoadSpec",
    "SweepResult",
    "default_rate_ladder",
    "e17_throughput_vs_n",
    "e18_delta_vs_throughput",
    "e19_throughput_vs_shards",
    "parse_mix",
    "run_load",
    "run_load_campaigns",
    "sweep_rates",
]
