"""E8 (Theorem 2): Algorithm 3 reaches a Definition-1 consistent state
within O(1) asynchronous cycles from an arbitrary state (including
corrupted pndTsk entries and vector clocks)."""

from conftest import cycle_columns, run_and_report

from repro.harness.recovery import e08_recovery_always


def test_e08_recovery_always(benchmark):
    rows = run_and_report(
        benchmark,
        e08_recovery_always,
        "E8 / Theorem 2 — Algorithm 3 recovery cycles",
    )
    # The theorem is about the unbounded algorithm.  The bounded rows
    # time a consensus-decided global reset (wild corrupted indices
    # overflow MAXINT): every cell must recover, and at n=4 within 8
    # cycles.  They grow with n (9 cycles at n=12), so the bound is
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
