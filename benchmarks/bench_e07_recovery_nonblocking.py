"""E7 (Theorem 1): Algorithm 1 recovers within O(1) asynchronous cycles.

Arbitrary corruption of ts/ssn/registers/channels; the measured
cycles-to-consistency must be a small constant, flat in n.
"""

from conftest import cycle_columns, run_and_report

from repro.harness.recovery import e07_recovery_nonblocking


def test_e07_recovery_nonblocking(benchmark):
    rows = run_and_report(
        benchmark,
        e07_recovery_nonblocking,
        "E7 / Theorem 1 — Algorithm 1 recovery cycles",
    )
    # The theorem is about the unbounded algorithm; the bounded rows'
    # reset cost is gated by check_recovery_series.py.
    unbounded = [cycle_columns(row) for row in rows if row["variant"] == "unbounded"]
    for row in unbounded:
        for column, value in row.items():
            assert isinstance(value, int) and value <= 6, (column, value)
    # Flat in n: largest n no worse than smallest + 2.
    worst_small = max(unbounded[0].values())
    worst_large = max(unbounded[-1].values())
    assert worst_large <= worst_small + 2
