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
    # The theorem is about the unbounded algorithm; the bounded rows'
    # reset cost is gated by check_recovery_series.py.
    unbounded = [cycle_columns(row) for row in rows if row["variant"] == "unbounded"]
    for row in unbounded:
        for column, value in row.items():
            assert isinstance(value, int) and value <= 6, (column, value)
