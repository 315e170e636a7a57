"""Behaviour specific to the non-blocking algorithms (paper Section 3)."""

from contextlib import ExitStack

import pytest

from repro import ClusterConfig, SimBackend
from repro.core.register import TimestampedValue
from repro.core.ss_nonblocking import GossipMessage, GossipPullMessage
from repro.errors import CancelledError


def make(algorithm, n=5, seed=0, **kwargs):
    return SimBackend(algorithm, ClusterConfig(n=n, seed=seed, **kwargs))


class TestNonBlockingSemantics:
    def test_writes_terminate_despite_concurrent_snapshot(self):
        """Writes never wait for snapshots (the non-blocking property)."""
        cluster = make("dgfr-nonblocking", seed=3)

        async def workload():
            snap_task = cluster.spawn(cluster.snapshot(4))
            for i in range(10):
                await cluster.write(0, f"w{i}")
            await snap_task
            return True

        assert cluster.run_until(workload())

    def test_snapshot_starves_under_continuous_writes(self):
        """With writes in every round, the snapshot loop cannot exit.

        This is the liveness gap of the non-blocking algorithm that the
        always-terminating algorithms close (benchmark E12 quantifies it).
        """
        cluster = make("dgfr-nonblocking", seed=5)
        stop_writing = []

        async def writer(node):
            index = 0
            while not stop_writing:
                await cluster.write(node, f"w{index}")
                index += 1

        async def probe():
            writer_tasks = [cluster.spawn(writer(node)) for node in range(4)]
            snap_task = cluster.spawn(cluster.snapshot(4))
            await cluster.kernel.sleep(300.0)
            starved = not snap_task.done()
            stop_writing.append(True)  # let writes cease
            await snap_task
            await cluster.kernel.gather(writer_tasks)
            return starved

        assert cluster.run_until(probe(), max_events=None)

    def test_snapshot_terminates_after_writes_cease(self):
        cluster = make("dgfr-nonblocking", seed=7)

        async def workload():
            for i in range(3):
                await cluster.write(1, i)
            return await cluster.snapshot(2)

        result = cluster.run_until(workload())
        assert result.vector_clock[1] == 3

    def test_snapshot_single_round_when_uncontended(self):
        """Uncontended snapshot: one query round, ssn bumps by exactly 2.

        (The repeat-until loop needs one extra confirming round only when
        interference occurred; with no writes, ``prev = reg`` immediately —
        the paper's Figure 1 shows a single round trip.)
        """
        cluster = make("dgfr-nonblocking", seed=9)
        cluster.write_sync(0, "x")
        node = cluster.node(4)
        ssn_before = node.ssn
        cluster.snapshot_sync(4)
        assert node.ssn == ssn_before + 1


def tick(node):
    """Run one do-forever iteration to completion (it never awaits)."""
    with pytest.raises(StopIteration):
        node.do_forever_iteration().send(None)


def gossip_spy(cluster, src):
    """Record the receivers of every digest ``src`` sends."""
    receivers = []
    original = cluster.network.send

    def spy(sender, dst, message):
        if sender == src and isinstance(message, GossipMessage):
            receivers.append(dst)
        original(sender, dst, message)

    cluster.network.send = spy
    return receivers


class TestGossip:
    def test_baseline_sends_no_gossip(self):
        cluster = make("dgfr-nonblocking")
        cluster.run_until(cluster.settle_cycles(3))
        assert cluster.metrics.snapshot().messages("GOSSIP") == 0

    def test_ss_gossips_every_cycle(self):
        cluster = make("ss-nonblocking", n=4)
        cluster.run_until(cluster.settle_cycles(3))
        gossip = cluster.metrics.snapshot().messages("GOSSIP")
        # n(n-1) gossip messages per cycle, 3+ cycles.
        assert gossip >= 3 * 4 * 3

    def test_gossip_carries_single_entry(self):
        message = GossipMessage(ts=1, entry=TimestampedValue(1, b"x" * 100))
        # O(ν) bits: one timestamp + one value, independent of n.
        assert message.wire_size() < 200
        # The do-forever digest carries the timestamp alone.
        assert GossipMessage(ts=1, entry=None).wire_size() == 25

    def test_fault_free_run_never_pulls(self):
        """In a legitimate execution the owner's entry is the freshest
        copy, so no digest ever names a newer one."""
        cluster = make("ss-nonblocking", n=4, seed=17)
        sent = []
        original = cluster.network.send

        def spy(src, dst, message):
            sent.append(message)
            original(src, dst, message)

        cluster.network.send = spy
        for i in range(4):
            cluster.write_sync(i % 4, f"v{i}")
            cluster.snapshot_sync((i + 1) % 4)
        cluster.run_until(cluster.settle_cycles(3))
        gossip = [m for m in sent if isinstance(m, GossipMessage)]
        assert gossip and all(m.entry is None for m in gossip)
        assert cluster.metrics.snapshot().messages("GOSSIPpull") == 0
        assert not any(isinstance(m, GossipPullMessage) for m in sent)

    def test_corrupted_low_owner_pulls_the_max_entry(self):
        """Each peer ahead of the owner answers one pull; the owner ends
        holding the largest of their entries.  (Digest, pull and answer
        take three delays of at most 1.5 u, so with a 5 u gossip period
        every answer lands before the next digest; with a shorter period
        a late answer costs one repeated pull.)"""
        cluster = make("ss-nonblocking", n=4, seed=19, gossip_interval=5.0)
        cluster.write_sync(0, "real")
        node = cluster.node(0)
        node.reg[0] = TimestampedValue(0, None)  # corrupted low
        node.ts = 0
        cluster.node(2).reg[0] = TimestampedValue(7, "ahead")
        cluster.node(3).reg[0] = TimestampedValue(9, "furthest")
        # Peer 1 keeps the real entry (ts 1), also ahead of the owner.
        cluster.run_until(cluster.settle_cycles(3))
        assert node.reg[0] == TimestampedValue(9, "furthest")
        assert node.ts == 9
        assert cluster.metrics.snapshot().messages("GOSSIPpull") == 3
        cluster.run_until(cluster.settle_cycles(3))
        assert cluster.metrics.snapshot().messages("GOSSIPpull") == 3

    @pytest.mark.parametrize(
        "algorithm, recovered",
        [("ss-nonblocking", True), ("broken-digest-no-pull", False)],
    )
    def test_restart_recovery_needs_the_pull(self, algorithm, recovered):
        """A restarted owner holds ⊥ for its own entry: a digest restores
        the timestamp, and only the pulled entry restores the value."""
        import broken_algorithms  # noqa: F401  (registers the engine)
        from repro.apps import DistributedCounter

        cluster = make(algorithm, n=4, seed=4)
        DistributedCounter(cluster).increment_sync(1, amount=3)
        cluster.run_until(cluster.settle_cycles(2))
        cluster.crash(1)
        cluster.resume(1, restart=True)
        cluster.run_until(cluster.settle_cycles(3))
        fresh = DistributedCounter(cluster)  # no local cache
        fresh.increment_sync(1, amount=2)
        contribution = fresh.read_sync(0).per_node[1]
        assert (contribution == 5) is recovered

    def test_gossip_heals_corrupted_low_ts(self):
        """Theorem 1's scenario: ts_i below the system's view of p_i."""
        cluster = make("ss-nonblocking", seed=11)
        cluster.write_sync(0, "v1")
        cluster.write_sync(0, "v2")
        node = cluster.node(0)
        node.ts = 0  # transient fault: ts collapses
        cluster.run_until(cluster.settle_cycles(3))
        assert node.ts >= 2

    def test_operation_heals_stale_foreign_entry(self):
        """Gossip only heals a node's *own* entry (line 11 sends reg[k] to
        p_k); a stale-low copy of another node's entry is lattice-safe and
        is healed by the merge of the next operation's majority replies."""
        cluster = make("ss-nonblocking", seed=13)
        cluster.write_sync(2, "good")
        cluster.run_until(cluster.settle_cycles(2))
        from repro.core.register import BOTTOM

        cluster.node(4).reg[2] = BOTTOM
        result = cluster.snapshot_sync(4)
        assert result.values[2] == "good"
        assert cluster.node(4).reg[2].value == "good"

    def test_baseline_never_heals_shadowed_writer(self):
        """The motivating failure: corrupted-high reg entries shadow a
        writer forever in the baseline, while gossip heals the SS variant
        (reproduces the paper's core robustness difference)."""
        outcomes = {}
        for name in ("dgfr-nonblocking", "ss-nonblocking"):
            cluster = make(name, seed=3)
            for j in range(1, 5):
                cluster.node(j).reg[0] = TimestampedValue(500, "GARBAGE")
            cluster.run_until(cluster.settle_cycles(4))
            cluster.write_sync(0, "fresh")
            outcomes[name] = cluster.snapshot_sync(1).values[0]
        assert outcomes["dgfr-nonblocking"] == "GARBAGE"
        assert outcomes["ss-nonblocking"] == "fresh"

    def test_tick_skips_exactly_the_peers_told_the_current_ts(self):
        """While an operation is in flight, a request carrying a peer's
        current ``reg[k].ts`` stands in for that peer's digest at the next
        tick, and only at that one; idle, every digest goes out."""
        from repro.core.base import ReadMessage, WriteMessage

        cluster = make("ss-nonblocking", n=4, seed=21)
        for k in range(4):
            cluster.write_sync(k, f"v{k}")
        cluster.run_until(cluster.settle_cycles(2))
        node = cluster.node(0)
        receivers = gossip_spy(cluster, 0)
        with node.operation("write"):  # a write waiting on its acks
            node.broadcast(WriteMessage(reg=node.reg.copy()))
            assert node._told == {k: node.reg[k].ts for k in (1, 2, 3)}
            # Peer 2's entry moves on after the request: its digest is news.
            node.reg[2] = TimestampedValue(node.reg[2].ts + 1, "newer")
            tick(node)
            assert receivers == [2] and node._told == {}
            tick(node)
            assert receivers == [2, 1, 2, 3]
            # A READ carries reg[j] to p_j only.
            receivers.clear()
            node.broadcast(ReadMessage(j=3, entry=node.reg[3], tag=0))
            tick(node)
            assert receivers == [1, 2]
            # A peer's own request shows its own entry, whatever it carries
            # for the others.
            receivers.clear()
            peer = cluster.node(1)
            node.deliver(1, WriteMessage(reg=peer.reg.copy()))
            node.deliver(2, ReadMessage(j=3, entry=node.reg[3], tag=0))
            assert node._told == {1: node.reg[1].ts}
            tick(node)
            assert receivers == [2, 3]
        # Idle, the requests stand in for nothing.
        receivers.clear()
        node.broadcast(WriteMessage(reg=node.reg.copy()))
        tick(node)
        assert receivers == [1, 2, 3] and node._told == {}
        # A crashed node sends nothing, so it tells nobody anything.
        cluster.crash(0)
        node.broadcast(WriteMessage(reg=node.reg.copy()))
        assert node._told == {}

    def test_scrambled_told_costs_at_most_one_tick(self):
        from repro.fault.transient import TransientFaultInjector

        cluster = make("ss-nonblocking", n=4, seed=23)
        cluster.write_sync(1, "x")
        node = cluster.node(0)
        receivers = gossip_spy(cluster, 0)
        injector = TransientFaultInjector(cluster, seed=5)
        skipped = 0
        with ExitStack() as in_flight:
            for busy in (False, True):
                if busy:
                    in_flight.enter_context(node.operation("snapshot"))
                for _ in range(20):
                    injector.corrupt_told([0])
                    receivers.clear()
                    tick(node)
                    skipped += 3 - len(receivers)
                    assert busy or receivers == [1, 2, 3]
                    receivers.clear()
                    tick(node)
                    assert receivers == [1, 2, 3]
        assert skipped > 0  # busy, the scramble does suppress digests

    def test_owner_corrupted_low_after_load_heals(self):
        """Once requests stop, only digests tell the owner its entry fell
        behind: the digest and the pull restore it within 3 cycles."""
        cluster = make("ss-nonblocking", n=4, seed=25)
        cluster.write_sync(0, "real")
        # Every peer's last request carries the owner's current entry.
        for k in (1, 2, 3):
            cluster.snapshot_sync(k)
        node = cluster.node(0)
        node.reg[0] = TimestampedValue(0, None)  # corrupted low
        node.ts = 0
        cluster.run_until(cluster.settle_cycles(3))
        assert node.reg[0] == TimestampedValue(1, "real")
        assert node.ts == 1

    @pytest.mark.parametrize(
        "algorithm, healed",
        [("ss-nonblocking", True), ("broken-gossip-sticky", False)],
    )
    def test_owner_corrupted_low_heals_while_a_read_waits(
        self, algorithm, healed
    ):
        """Peer 1's last snapshot carried the owner's entry, and its read
        of register 2 waits on two crashed servers, retransmitting a
        ``READ`` that carries nothing of the owner's.  Busy, peer 1 may
        skip one digest on the snapshot's word, not every later one: the
        next digest and the pull restore the owner within 5 cycles."""
        import broken_algorithms  # noqa: F401  (registers the engine)

        cluster = make(algorithm, n=4, seed=25)
        cluster.write_sync(0, "real")
        cluster.snapshot_sync(1)
        cluster.crash(2)
        cluster.crash(3)
        node = cluster.node(0)

        async def scenario():
            read = cluster.spawn(cluster.read(1, 2))
            await cluster.kernel.sleep(0.0)
            assert not read.done()
            cluster.node(1)._told[0] = 1  # what the snapshot showed
            node.reg[0] = TimestampedValue(0, None)  # corrupted low
            node.ts = 0
            await cluster.settle_cycles(5)
            assert not read.done()
            read.cancel()

        cluster.run_until(scenario(), max_events=None)
        assert (node.reg[0] == TimestampedValue(1, "real")) is healed
        assert (node.ts == 1) is healed


class TestSsnHygiene:
    def test_stale_snapshot_acks_ignored(self):
        """Acks with ssn' != ssn never satisfy the collector (line 9/20)."""
        cluster = make("ss-nonblocking", seed=17)
        node = cluster.node(0)
        node.ssn = 7
        from repro.core.dgfr_nonblocking import SnapshotAckMessage

        # Deliver forged stale acks from a majority; they must be dropped.
        for sender in (1, 2, 3):
            node.deliver(
                sender, SnapshotAckMessage(reg=node.reg.vector_clock(), ssn=3)
            )
        result = cluster.snapshot_sync(0)  # must still run its own round
        assert result.vector_clock == (0,) * 5

    def test_corrupted_high_ssn_does_not_block(self):
        cluster = make("ss-nonblocking", seed=19)
        cluster.node(0).ssn = 10**9
        result = cluster.snapshot_sync(0)
        assert result.vector_clock == (0,) * 5


class TestCancellationSafety:
    def test_kernel_cancel_of_pending_snapshot(self):
        """Cancelling an operation task leaves the node reusable."""
        cluster = make("dgfr-nonblocking", seed=23)
        cluster.crash(1)
        cluster.crash(2)
        cluster.crash(3)
        cluster.crash(4)  # no majority: snapshot cannot finish

        async def run():
            snap_task = cluster.spawn(cluster.snapshot(0))
            await cluster.kernel.sleep(50.0)
            assert not snap_task.done()
            snap_task.cancel()
            await cluster.kernel.sleep(1.0)
            return snap_task.cancelled()

        assert cluster.run_until(run())
        for node_id in (1, 2, 3, 4):
            cluster.resume(node_id)
        with pytest.raises(CancelledError):
            # the recorded history op never responded; direct node op works
            raise CancelledError
        assert cluster.node(0).snapshot is not None
