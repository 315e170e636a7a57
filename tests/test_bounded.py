"""Tests for the bounded-counter variant and global reset (Section 5)."""

import pytest

from repro import ClusterConfig, SimBackend
from repro.analysis.linearizability import check_snapshot_history
from repro.errors import ResetInProgressError
from repro.stabilization.reset import EpochEnvelope, ResetCommitMessage


def make(n=5, seed=0, max_int=12, **kwargs):
    return SimBackend(
        "bounded-ss-nonblocking",
        ClusterConfig(n=n, seed=seed, max_int=max_int, **kwargs),
    )


async def write_all(cluster, rounds, on_abort="retry"):
    """Write from every node for ``rounds``, retrying across resets."""
    aborts = 0
    for round_index in range(rounds):
        for node in range(cluster.config.n):
            while True:
                try:
                    await cluster.write(node, (round_index, node))
                    break
                except ResetInProgressError:
                    aborts += 1
                    if on_abort == "raise":
                        raise
                    await cluster.tracker.wait_cycles(3)
    return aborts


class TestBoundedOperation:
    def test_behaves_normally_below_maxint(self):
        cluster = make(max_int=1000)
        cluster.write_sync(0, "plain")
        result = cluster.snapshot_sync(1)
        assert result.values[0] == "plain"
        assert all(p.resets_completed == 0 for p in cluster.processes)

    def test_overflow_triggers_reset(self):
        cluster = make(max_int=6, seed=1)
        cluster.run_until(write_all(cluster, 8), max_events=None)
        assert all(p.resets_completed >= 1 for p in cluster.processes)

    def test_epochs_agree_after_reset(self):
        cluster = make(max_int=6, seed=2)
        cluster.run_until(write_all(cluster, 8), max_events=None)
        cluster.run_until(cluster.settle_cycles(4), max_events=None)
        epochs = {p.epoch for p in cluster.processes}
        assert len(epochs) == 1
        assert epochs.pop() >= 1

    def test_register_values_survive_reset(self):
        cluster = make(max_int=8, seed=3)

        async def run():
            for node in range(5):
                await cluster.write(node, f"keep-{node}")
            # Force overflow with repeated writes from node 0.
            while cluster.node(0).resets_completed == 0:
                try:
                    await cluster.write(0, "burn")
                except ResetInProgressError:
                    await cluster.tracker.wait_cycles(3)
            await cluster.tracker.wait_cycles(3)
            return await cluster.snapshot(1)

        result = cluster.run_until(run(), max_events=None)
        for node in range(1, 5):
            assert result.values[node] == f"keep-{node}"

    def test_indices_restart_after_reset(self):
        cluster = make(max_int=6, seed=4)
        cluster.run_until(write_all(cluster, 3), max_events=None)
        cluster.run_until(cluster.settle_cycles(4), max_events=None)
        assert all(p.ts < 6 for p in cluster.processes)

    def test_read_rounds_count_toward_maxint(self):
        """``tag`` is an operation index like ``ssn``: reads alone reach
        MAXINT, the reset rebases it, and the value read survives."""
        cluster = make(max_int=6, seed=9)
        cluster.write_sync(2, "keep")

        async def run():
            while cluster.node(0).resets_completed == 0:
                try:
                    await cluster.read(0, 2)
                except ResetInProgressError:
                    await cluster.tracker.wait_cycles(3)
            await cluster.tracker.wait_cycles(3)
            return await cluster.read(0, 2)

        entry = cluster.run_until(run(), max_events=None)
        assert (entry.ts, entry.value) == (0, "keep")
        assert all(p.tag < 6 for p in cluster.processes)

    def test_operations_rejected_during_reset(self):
        cluster = make(max_int=6, seed=5)
        node = cluster.node(0)
        node.resetting = True
        with pytest.raises(ResetInProgressError):
            cluster.write_sync(0, "nope")
        with pytest.raises(ResetInProgressError):
            cluster.snapshot_sync(0)
        with pytest.raises(ResetInProgressError):
            cluster.read_sync(0, 1)
        # The aborted operations are recorded as aborted, keeping the
        # history well-formed and the checker happy.
        cluster.history.validate_well_formed()
        assert all(r.aborted for r in cluster.history.records())

    def test_multiple_resets_keep_system_usable(self):
        cluster = make(max_int=5, seed=6)
        aborts = cluster.run_until(write_all(cluster, 14), max_events=None)
        assert all(p.resets_completed >= 2 for p in cluster.processes)
        result = cluster.snapshot_sync(2)
        assert result.values == tuple((13, node) for node in range(5))
        # The paper's criteria: only a bounded number of aborts per reset.
        assert aborts <= 3 * cluster.node(0).resets_completed + 3

    def test_post_reset_history_linearizable(self):
        cluster = make(max_int=10, seed=7)
        cluster.run_until(write_all(cluster, 4), max_events=None)
        cluster.run_until(cluster.settle_cycles(4), max_events=None)
        from repro.analysis.history import HistoryRecorder

        cluster.history = HistoryRecorder()
        for node in range(5):
            cluster.write_sync(node, f"fresh-{node}")
        cluster.snapshot_sync(0)
        report = check_snapshot_history(cluster.history.records(), 5)
        assert report.ok, report.summary()


class TestEpochHygiene:
    def test_envelope_reports_inner_kind(self):
        from repro.core.base import WriteMessage
        from repro.core.register import RegisterArray

        inner = WriteMessage(reg=RegisterArray(3))
        envelope = EpochEnvelope(epoch=2, inner=inner)
        assert envelope.kind == "WRITE"
        assert envelope.wire_size() > inner.wire_size()

    def test_stale_epoch_messages_dropped(self):
        cluster = make(max_int=1000, seed=8)
        from repro.core.base import WriteMessage
        from repro.core.register import RegisterArray, TimestampedValue

        poisoned = RegisterArray(5)
        poisoned[0] = TimestampedValue(999, "poison")
        node = cluster.node(1)
        node.deliver(
            0, EpochEnvelope(epoch=7, inner=WriteMessage(reg=poisoned))
        )
        assert node.reg[0].ts == 0  # dropped: wrong epoch

    def test_current_epoch_messages_accepted(self):
        cluster = make(max_int=1000, seed=9)
        from repro.core.base import WriteMessage
        from repro.core.register import RegisterArray, TimestampedValue

        fresh = RegisterArray(5)
        fresh[0] = TimestampedValue(1, "ok")
        node = cluster.node(1)
        node.deliver(0, EpochEnvelope(epoch=0, inner=WriteMessage(reg=fresh)))
        assert node.reg[0].value == "ok"

    def test_pre_reset_write_is_dropped_after_the_reset(self):
        """A broadcast request travels in its epoch's envelope too: a
        ``WRITE`` from before the reset, delivered after it, would plant
        a pre-reset index and a value older than an acknowledged write."""
        from repro.core.register import TimestampedValue

        cluster = make(n=4, max_int=1000, seed=11)
        captured = []
        original = cluster.network.send

        def spy(src, dst, message):
            if (src, dst, message.kind) == (0, 1, "WRITE"):
                captured.append(message)
            original(src, dst, message)

        cluster.network.send = spy
        for value in ("v0", "v1", "v2"):
            cluster.write_sync(0, value)
        cluster.node(0)._enter_reset()
        cluster.run_until(cluster.settle_cycles(8), max_events=None)
        assert {p.epoch for p in cluster.processes} == {1}
        node = cluster.node(1)
        assert node.reg[0] == TimestampedValue(0, "v2")
        node.deliver(0, captured[0])
        assert node.reg[0] == TimestampedValue(0, "v2")

    def test_commit_empties_told(self):
        """A resetting node skips the gossip tick that empties ``_told``;
        left alone, a pre-reset entry of 0 would match every restarted
        index and stand in for a digest on a request the new epoch drops."""
        cluster = make(n=4, max_int=1000, seed=13)
        cluster.write_sync(0, "x")
        node = cluster.node(1)
        node._enter_reset()
        node._told = {0: 0, 2: 0, 3: 0}
        node._apply_commit(
            ResetCommitMessage(new_epoch=1, values=node.reg.copy())
        )
        assert node._told == {}

    def test_commit_empties_both_halves_of_the_evidence_on_algorithm_3(self):
        """Algorithm 3's reset takes the same path as Algorithm 1's: the
        ``sns`` evidence of 0 would match every restarted task index."""
        cluster = SimBackend(
            "bounded-ss-always", ClusterConfig(n=4, seed=13, max_int=1000)
        )
        cluster.write_sync(0, "x")
        node = cluster.node(1)
        node._enter_reset()
        node._told = {0: 0, 2: 0, 3: 0}
        node._heard_sns = {0: 0, 2: 0, 3: 0}
        node._apply_commit(
            ResetCommitMessage(new_epoch=1, values=node.reg.copy())
        )
        assert node._told == {} and node._heard_sns == {}

    @pytest.mark.parametrize(
        "algorithm", ["bounded-ss-nonblocking", "bounded-ss-always"]
    )
    def test_commit_empties_peer_clocks(self, algorithm):
        """Pre-reset clocks name pre-reset timestamps, every one too high
        for the restarted indices: the first write after the reset would
        travel as its timestamp alone, and reach each peer only with the
        retransmission that follows that peer's ack."""
        cluster = SimBackend(
            algorithm, ClusterConfig(n=4, seed=13, max_int=1000)
        )
        cluster.write_sync(1, "x")
        node = cluster.node(1)
        assert node.peer_clocks
        node._enter_reset()
        node._apply_commit(
            ResetCommitMessage(new_epoch=1, values=node.reg.copy())
        )
        assert node.peer_clocks == {}

    def test_commit_message_carries_merged_values(self):
        """The decided commit installs the join of a majority's votes, so
        divergent pre-reset replicas cannot survive as irreconcilable
        ts-0 entries."""
        cluster = make(max_int=6, seed=10)
        cluster.run_until(write_all(cluster, 8), max_events=None)
        cluster.run_until(cluster.settle_cycles(4), max_events=None)
        reference = [p.reg.snapshot_values() for p in cluster.processes]
        assert all(values == reference[0] for values in reference)
