"""E2 (Figure 1, lower / Contribution 1): self-stabilizing gossip overhead.

Paper claim: the SS variant adds O(n²) gossip messages of O(ν) bits per
asynchronous cycle, while per-operation costs stay those of the baseline.
The n(n−1) bound is met exactly when idle, and undercut under load.
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
        # Idle: every cycle gossips all n(n-1) digests, the paper's bound.
        assert row["gossip_msgs_per_cycle"] == n * (n - 1)
        # Under load a request that carried reg[k].ts to or from p_k
        # since the last tick stands in for that tick's digest to p_k.
        assert row["loaded_gossip_per_cycle"] < row["gossip_msgs_per_cycle"]
        # Gossip is a constant-size digest: much smaller than a write
        # payload and independent of n; write payload grows with n.
        assert row["gossip_bytes_each"] < row["write_bytes_each"]
        # Operation cost unchanged vs the baseline's 2(n-1).
        assert row["write_msgs"] == 2 * (n - 1)
