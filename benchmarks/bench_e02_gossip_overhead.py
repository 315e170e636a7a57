"""E2 (Figure 1, lower / Contribution 1): self-stabilizing gossip overhead.

Paper claim: the SS variant adds O(n²) gossip messages of O(ν) bits per
asynchronous cycle, while per-operation costs stay those of the baseline.
"""

from conftest import run_and_report

from repro.harness.costs import e02_gossip_overhead


def test_e02_gossip_overhead(benchmark):
    rows = run_and_report(
        benchmark,
        e02_gossip_overhead,
        "E2 / Fig.1 lower — SS gossip overhead",
    )
    for row in rows:
        n = row["n"]
        # n(n-1) gossip messages per cycle (±1 cycle-boundary slack).
        assert abs(row["gossip_msgs_per_cycle"] - n * (n - 1)) <= n * (n - 1) * 0.4
        # Gossip is a constant-size digest: much smaller than a write
        # payload and independent of n; write payload grows with n.
        assert row["gossip_bytes_each"] < row["write_bytes_each"]
        # Operation cost unchanged vs the baseline's 2(n-1).
        assert row["write_msgs"] == 2 * (n - 1)
