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
    # The theorem is about the unbounded algorithm.  The bounded rows
    # time a consensus-decided global reset (wild corrupted indices
    # overflow MAXINT): every cell must recover, and at n=4 within 8
    # cycles.  They grow with n (10 cycles at n=12), so the bound is
    # not extended to the larger rows.
    unbounded = [cycle_columns(row) for row in rows if row["variant"] == "unbounded"]
    for row in unbounded:
        for column, value in row.items():
            assert isinstance(value, int) and value <= 6, (column, value)
    for row in rows:
        if row["variant"] != "bounded+consensus":
            continue
        for column, value in cycle_columns(row).items():
            assert isinstance(value, int), (row["n"], column, value)
            assert row["n"] > 4 or value <= 8, (column, value)
    # Flat in n: largest n no worse than smallest + 2.
    worst_small = max(unbounded[0].values())
    worst_large = max(unbounded[-1].values())
    assert worst_large <= worst_small + 2
