"""Shared helpers for the benchmark suite.

Each ``bench_eXX_*.py`` regenerates one experiment from DESIGN.md §4:
it benchmarks the experiment runner, prints the measured table (run
pytest with ``-s`` to see it), and asserts the paper's qualitative claim
so the benchmarks double as reproduction regression checks.
"""

from repro.harness.report import format_table


def run_and_report(benchmark, runner, title, rounds=3, **kwargs):
    """Benchmark ``runner`` and print its result table."""
    rows = benchmark.pedantic(
        lambda: runner(**kwargs), rounds=rounds, iterations=1
    )
    print()
    print(format_table(rows, title=title))
    return rows


def cycle_columns(row):
    """An E7/E8 row's recovery-cycle cells (not its labels or detection count)."""
    return {k: v for k, v in row.items() if k not in ("variant", "n", "detections")}
