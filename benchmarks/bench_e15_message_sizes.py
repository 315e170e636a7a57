"""E15 (Contribution 1): message sizes — O(n·ν) operations vs O(ν) gossip.

Sweeps the object size ν and cluster size n, measuring serialized bytes
per WRITE (carries the whole register array), per WRITEack (ships only
the entries that are news to the writer: none for an uncontended write)
and per GOSSIP (a timestamp digest: constant, below the paper's O(ν)
bound).
"""

from conftest import run_and_report

from repro.harness.costs import e15_message_sizes


def test_e15_message_sizes(benchmark):
    rows = run_and_report(
        benchmark,
        e15_message_sizes,
        "E15 — message sizes: O(n*nu) ops vs constant gossip",
    )
    by_key = {(row["n"], row["nu_bytes"]): row for row in rows}
    # Gossip is a digest: independent of n and of ν.
    assert len({row["gossip_msg_bytes"] for row in rows}) == 1
    # Write messages are O(n·ν): scale ~3x from n=4 to n=12 at large ν.
    big = 1024
    ratio = (
        by_key[(12, big)]["write_msg_bytes"]
        / by_key[(4, big)]["write_msg_bytes"]
    )
    assert 2.5 <= ratio <= 3.5
    # Both scale linearly in ν at fixed n.
    r4 = by_key[(4, 1024)]["write_msg_bytes"] / by_key[(4, 64)]["write_msg_bytes"]
    assert 10 <= r4 <= 20  # 16x nu growth, minus constant headers
    # The reply side: an uncontended write's ack is n bare timestamps
    # (16 B of framing plus 8 B each), whatever ν is.
    for row in rows:
        assert row["write_ack_bytes"] == 16 + 8 * row["n"]
