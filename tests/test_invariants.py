"""Tests for the Definition-1 consistency predicates."""

from repro import ClusterConfig, SimBackend
from repro.analysis.invariants import (
    definition1_consistent,
    sns_consistent,
    ssn_consistent,
    ts_consistent,
    vc_consistent,
)
from repro.core.register import TimestampedValue
from repro.core.ss_always import PendingTask


def make(algorithm="ss-always", n=4, **kwargs):
    return SimBackend(algorithm, ClusterConfig(n=n, seed=0, **kwargs))


class TestTsConsistency:
    def test_fresh_cluster_is_consistent(self):
        assert ts_consistent(make()).ok

    def test_detects_stale_low_own_ts(self):
        cluster = make()
        cluster.node(1).reg[0] = TimestampedValue(5, "x")
        report = ts_consistent(cluster)
        assert not report.ok
        assert "reg_1[0].ts=5" in report.failures[0]

    def test_detects_poisoned_in_flight_register(self):
        cluster = make()
        from repro.core.base import WriteMessage
        from repro.core.register import RegisterArray

        poisoned = RegisterArray(4)
        poisoned[2] = TimestampedValue(99, "bad")
        cluster.network.channel(0, 1).send(WriteMessage(reg=poisoned))
        report = ts_consistent(cluster)
        assert not report.ok
        assert "in-flight" in report.failures[0]

    def test_detects_poisoned_gossip_entry(self):
        cluster = make("ss-nonblocking")
        from repro.core.ss_nonblocking import GossipMessage

        cluster.network.channel(0, 1).send(
            GossipMessage(entry=TimestampedValue(42, "bad"))
        )
        report = ts_consistent(cluster)
        assert not report.ok


    def test_detects_poisoned_single_entry_exchange(self):
        """READ(j, entry) and READack(j, ts, …) are about p_j's register,
        whichever two nodes they travel between."""
        from repro.core.base import ReadAckMessage, ReadMessage

        bad = TimestampedValue(42, "bad")
        for poisoned in (
            ReadMessage(j=2, entry=bad, tag=1),
            ReadAckMessage(j=2, ts=42, entry=None, tag=1),
            ReadAckMessage(j=2, ts=0, entry=bad, tag=1),
        ):
            cluster = make("ss-nonblocking")
            cluster.network.channel(0, 1).send(poisoned)
            report = ts_consistent(cluster)
            assert not report.ok
            assert f"in-flight {poisoned.kind} 0->1" in report.failures[0]
            assert "ts_2=0" in report.failures[0]
            cluster.node(2).ts = 42  # the owner has caught up
            assert ts_consistent(cluster).ok
        # A corrupted register index names nobody: not a ts violation.
        cluster = make("ss-nonblocking")
        cluster.network.channel(0, 1).send(ReadMessage(j=9, entry=bad, tag=1))
        assert ts_consistent(cluster).ok


class TestSsnConsistency:
    def test_detects_future_snapshot_ack(self):
        cluster = make("ss-nonblocking")
        from repro.core.dgfr_nonblocking import SnapshotAckMessage

        cluster.network.channel(1, 0).send(
            SnapshotAckMessage(reg=cluster.node(1).reg.copy(), ssn=77)
        )
        report = ssn_consistent(cluster)
        assert not report.ok

    def test_query_ssn_attributed_to_sender(self):
        cluster = make("ss-nonblocking")
        cluster.node(0).ssn = 10
        from repro.core.dgfr_nonblocking import SnapshotMessage

        cluster.network.channel(0, 1).send(
            SnapshotMessage(reg=cluster.node(0).reg.copy(), ssn=10)
        )
        assert ssn_consistent(cluster).ok


class TestSnsConsistency:
    def test_fresh_cluster(self):
        assert sns_consistent(make()).ok

    def test_detects_sns_mismatch(self):
        cluster = make()
        cluster.node(2).sns = 5  # without updating pnd_tsk[2]
        report = sns_consistent(cluster)
        assert not report.ok

    def test_detects_foreign_view_ahead_of_owner(self):
        cluster = make()
        cluster.node(1).pnd_tsk[3] = PendingTask(sns=9)
        report = sns_consistent(cluster)
        assert not report.ok

    def test_skipped_for_algorithms_without_pnd_tsk(self):
        cluster = make("ss-nonblocking")
        assert sns_consistent(cluster).ok


class TestVcConsistency:
    def test_fresh_cluster(self):
        assert vc_consistent(make()).ok

    def test_detects_future_vector_clock(self):
        cluster = make()
        cluster.node(0).pnd_tsk[1] = PendingTask(sns=1, vc=(9, 9, 9, 9))
        report = vc_consistent(cluster)
        assert not report.ok

    def test_accepts_past_vector_clock(self):
        cluster = make()
        cluster.write_sync(0, "x")
        cluster.run_until(cluster.settle_cycles(2))
        owner = cluster.node(1)
        owner.pnd_tsk[1] = PendingTask(sns=1, vc=(0, 0, 0, 0))
        owner.sns = 1
        assert vc_consistent(cluster).ok


class TestCombined:
    def test_definition1_aggregates_failures(self):
        cluster = make()
        cluster.node(1).reg[0] = TimestampedValue(5, "x")
        cluster.node(2).sns = 5
        report = definition1_consistent(cluster)
        assert not report.ok
        assert len(report.failures) >= 2

    def test_bool_protocol(self):
        cluster = make()
        assert definition1_consistent(cluster)
        cluster.node(1).reg[0] = TimestampedValue(5, "x")
        assert not definition1_consistent(cluster)
