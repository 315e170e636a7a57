"""Live reconfiguration: grow the cluster without losing a write.

The paper's discussion points to reconfigurable extensions of its
algorithms.  This example moves a running 3-node snapshot object onto a
6-node configuration (and switches from Algorithm 1 to Algorithm 3 in
the same step).  A reconfiguration is a fabric epoch change, like a
shard split: the epoch is decided by consensus, admissions drain, every
key is re-published on the new cluster, and only then do operations
resume — so every completed write survives and per-key versions
continue.

Run:  python examples/live_reconfiguration.py
"""

from repro import ClusterConfig, SnapshotClient


def main() -> None:
    client = SnapshotClient.local(
        algorithm="ss-nonblocking", config=ClusterConfig(n=3, seed=11)
    )
    client.write_sync("inventory", 42)
    client.write_sync("orders", 17)
    client.write_sync("inventory", 41)
    print("before (n=3, ss-nonblocking):", client.snapshot_sync().items())

    report = client.run(
        client.reconfigure(ClusterConfig(n=6, seed=12, delta=2), "ss-always")
    )
    shard = client.fabric.shard(0)
    print(
        f"reconfigured to n={shard.config.n} ({client.fabric.algorithm_name}) "
        f"at epoch {report.new_epoch}; carried {report.moved_keys} keys"
    )

    # The new nodes take writes at once.
    client.write_sync("replicas", 6)
    print("after (n=6, ss-always):", client.snapshot_sync().items())

    # Per-key versions continue: no version is reused.
    seq = client.write_sync("inventory", 40)
    print(f"the next inventory write is version {seq} (continued from 2)")
    print("linearizable:", client.check() == [])


if __name__ == "__main__":
    main()
