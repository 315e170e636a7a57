"""E1 (Figure 1, upper): DGFR non-blocking per-operation costs.

Paper claim: each write and each uncontended snapshot completes in one
round trip of ≈2n messages (2(n−1) over the wire; the self-loopback is
free).  Each request is O(n·ν) bits; each ack ships only the entries
that are news to the requester (E15 measures both sides).
"""

from conftest import run_and_report

from repro.harness.costs import e01_nonblocking_op_costs


def test_e01_fig1_messages(benchmark):
    rows = run_and_report(
        benchmark,
        e01_nonblocking_op_costs,
        "E1 / Fig.1 upper — DGFR non-blocking per-op costs",
    )
    for row in rows:
        assert row["write_msgs"] == row["theory_2(n-1)"]
        assert row["snapshot_msgs"] == row["theory_2(n-1)"]
        assert row["write_rtts"] == 1
        assert row["snapshot_rtts"] == 1
