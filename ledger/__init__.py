"""The perf ledger: five named workloads, end-to-end and per-layer metrics.

Run with ``python3 -m ledger`` from the repository root (``src/`` is put
on ``sys.path`` automatically; ``PYTHONPATH=src python -m ledger`` works
too).  See ``ledger/README.md`` for the metric catalogue, the workloads
and why each exists, and how to compare two records.

Module map:

* :mod:`ledger.catalog`   — workload and metric declarations (the single
  source ``BENCHMARK.json`` mirrors);
* :mod:`ledger.loadgen`   — the seeded closed-loop load generator;
* :mod:`ledger.workloads` — one deployment + drive + check per workload;
* :mod:`ledger.run`       — warm-up, timed repetitions, medians, records;
* :mod:`ledger.layers` / :mod:`ledger.trace` — the outside-in timing shims;
* :mod:`ledger.probes`    — replay and micro probes for per-layer metrics;
* :mod:`ledger.compare`   — ``python3 -m ledger.compare A.json B.json``.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def bootstrap() -> None:
    """Make ``repro`` importable from a bare checkout (no install step)."""
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)
