"""Behaviour specific to the always-terminating algorithms (Section 4)."""

import math
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro import ClusterConfig, SimBackend, UNBOUNDED_DELTA
from repro.analysis.linearizability import check_snapshot_history
from repro.config import ChannelConfig
from repro.core.base import WriteDeposit
from repro.core.register import TimestampedValue
from repro.core.ss_always import SelfStabilizingAlwaysTerminating
from repro.errors import NodeCrashedError
from repro.net.node import OpId


def make(algorithm, n=5, seed=0, delta=0, **kwargs):
    if algorithm.startswith("bounded"):
        kwargs.setdefault("max_int", 1000)
    return SimBackend(
        algorithm, ClusterConfig(n=n, seed=seed, delta=delta, **kwargs)
    )


class ContinuousWriters:
    """Drives saturating write load from a set of nodes."""

    def __init__(self, cluster, nodes):
        self.cluster = cluster
        self.nodes = nodes
        self.stopped = []
        self.counts = {node: 0 for node in nodes}
        self.tasks = []

    async def _writer(self, node):
        while not self.stopped:
            await self.cluster.write(node, (node, self.counts[node]))
            self.counts[node] += 1

    def start(self):
        self.tasks = [
            self.cluster.spawn(self._writer(node)) for node in self.nodes
        ]

    async def stop(self):
        self.stopped.append(True)
        await self.cluster.kernel.gather(self.tasks)

    @property
    def total(self):
        return sum(self.counts.values())


@pytest.mark.parametrize("algorithm", ["dgfr-always", "ss-always"])
class TestAlwaysTermination:
    def test_snapshot_terminates_under_continuous_writes(self, algorithm):
        """The headline guarantee that the non-blocking variant lacks."""
        cluster = make(algorithm, seed=1)
        writers = ContinuousWriters(cluster, [0, 1, 2, 3])

        async def probe():
            writers.start()
            await cluster.kernel.sleep(20.0)  # let write load build up
            result = await cluster.snapshot(4)
            await writers.stop()
            return result

        result = cluster.run_until(probe(), max_events=None)
        assert result is not None
        assert writers.total > 0
        report = check_snapshot_history(cluster.history.records(), 5)
        assert report.ok, report.summary()

    def test_repeated_snapshots_under_load(self, algorithm):
        cluster = make(algorithm, seed=2)
        writers = ContinuousWriters(cluster, [0, 1])

        async def probe():
            writers.start()
            results = []
            for _ in range(3):
                results.append(await cluster.snapshot(4))
            await writers.stop()
            return results

        results = cluster.run_until(probe(), max_events=None)
        vcs = [r.vector_clock for r in results]
        for earlier, later in zip(vcs, vcs[1:]):
            assert all(a <= b for a, b in zip(earlier, later))

    def test_all_nodes_snapshot_concurrently(self, algorithm):
        """Figure 2 vs Figure 3 (lower): concurrent snapshot invocations."""
        cluster = make(algorithm, seed=3)

        async def probe():
            cluster.spawn(cluster.write(0, "w"))
            snaps = [cluster.spawn(cluster.snapshot(i)) for i in range(5)]
            return await cluster.kernel.gather(snaps)

        results = cluster.run_until(probe(), max_events=None)
        assert len(results) == 5
        report = check_snapshot_history(cluster.history.records(), 5)
        assert report.ok, report.summary()


class TestDgfrAlwaysSpecifics:
    def test_rep_snap_accumulates_results(self):
        cluster = make("dgfr-always")
        cluster.snapshot_sync(0)
        cluster.snapshot_sync(1)
        cluster.run_until(cluster.settle_cycles(3))
        # Reliable broadcast spread both END results everywhere.
        for node in cluster.processes:
            assert (0, 1) in node.rep_snap
            assert (1, 1) in node.rep_snap

    def test_every_node_serves_every_task(self):
        """The O(n²) job-stealing scheme: all nodes bump ssn per task."""
        cluster = make("dgfr-always")
        before = [node.ssn for node in cluster.processes]
        cluster.snapshot_sync(0)
        cluster.run_until(cluster.settle_cycles(4))
        after = [node.ssn for node in cluster.processes]
        assert all(b > a for a, b in zip(before, after))

    def test_writes_deferred_while_task_pending(self):
        """A write invoked during a snapshot is served by the loop after."""
        cluster = make("dgfr-always", seed=5)

        async def probe():
            snap_task = cluster.spawn(cluster.snapshot(1))
            write_task = cluster.spawn(cluster.write(0, "deferred"))
            await cluster.kernel.gather([snap_task, write_task])
            return await cluster.snapshot(2)

        result = cluster.run_until(probe(), max_events=None)
        assert result.values[0] == "deferred"


class TestSsAlwaysDeltaSemantics:
    def test_delta_zero_all_nodes_help_immediately(self):
        cluster = make("ss-always", delta=0, seed=7)
        cluster.snapshot_sync(0)
        cluster.run_until(cluster.settle_cycles(2))
        # With δ=0 every node adopted and served the task.
        for node in cluster.processes:
            assert node.pnd_tsk[0].sns == 1

    def test_unbounded_delta_only_owner_serves(self):
        cluster = make("ss-always", delta=UNBOUNDED_DELTA, seed=9)
        with cluster.metrics.window() as window:
            cluster.snapshot_sync(0)
        # Only the initiating node ran query rounds: O(n) messages, all
        # SNAPSHOT traffic originating from node 0.
        assert cluster.metrics.sender_messages(1, "SNAPSHOT") == 0
        assert window.stats.messages("SNAPSHOT") <= 2 * (cluster.config.n - 1)

    def test_unbounded_delta_snapshot_starves_like_algorithm1(self):
        """With δ = ∞ nobody helps and termination is *not guaranteed*:
        under this adversarial schedule (saturating writers, write pacing
        faster than a query round) the snapshot is still pending after
        300 time units, exactly the Algorithm 1 liveness gap."""
        from repro import ChannelConfig

        cluster = make(
            "ss-always",
            delta=UNBOUNDED_DELTA,
            seed=1,
            gossip_interval=0.4,
            channel=ChannelConfig(min_delay=1.0, max_delay=1.0),
        )
        writers = ContinuousWriters(cluster, [0, 1, 2, 3])

        async def probe():
            writers.start()
            snap_task = cluster.spawn(cluster.snapshot(4))
            await cluster.kernel.sleep(300.0)
            starved = not snap_task.done()
            await writers.stop()
            await snap_task
            return starved

        assert cluster.run_until(probe(), max_events=None)

    def test_finite_delta_terminates_under_load(self):
        """Theorem 3: with finite δ the snapshot terminates despite load."""
        cluster = make("ss-always", delta=4, seed=13)
        writers = ContinuousWriters(cluster, [0, 1, 2, 3])

        async def probe():
            writers.start()
            await cluster.kernel.sleep(20.0)
            result = await cluster.snapshot(4)
            await writers.stop()
            return result

        result = cluster.run_until(probe(), max_events=None)
        assert result is not None

    def test_vc_sample_set_after_interfered_round(self):
        """Line 93: an interfered round samples VC into pndTsk[i].vc."""
        cluster = make("ss-always", delta=1000, seed=15)
        writers = ContinuousWriters(cluster, [0, 1])

        async def probe():
            writers.start()
            snap_task = cluster.spawn(cluster.snapshot(4))
            await cluster.kernel.sleep(60.0)
            vc = cluster.node(4).pnd_tsk[4].vc
            await writers.stop()
            await snap_task
            return vc

        vc = cluster.run_until(probe(), max_events=None)
        assert vc is not None

    def test_delta_result_delivered_via_save_helping(self):
        """A node holding a finished result forwards it to a late querier
        (line 107's helping path)."""
        cluster = make("ss-always", delta=0, seed=17)
        result = cluster.snapshot_sync(2)
        assert result is not None
        # The initiator's entry holds the final result...
        assert cluster.node(2).pnd_tsk[2].fnl is not None
        # ...and after a couple of cycles a majority stored it too.
        cluster.run_until(cluster.settle_cycles(3))
        holders = sum(
            1 for node in cluster.processes if node.pnd_tsk[2].fnl is not None
        )
        assert holders >= cluster.config.majority

    def test_second_snapshot_resets_own_task(self):
        cluster = make("ss-always", delta=0, seed=19)
        cluster.snapshot_sync(3)
        assert cluster.node(3).pnd_tsk[3].sns == 1
        cluster.snapshot_sync(3)
        assert cluster.node(3).pnd_tsk[3].sns == 2
        assert cluster.node(3).sns == 2

    def test_cheaper_than_algorithm2_per_snapshot(self):
        """Figure 3 (upper) vs Figure 2: at δ=0 both algorithms run O(n²)
        query rounds, but Algorithm 3 replaces Algorithm 2's reliable
        broadcast (SNAP + END dissemination with per-peer retransmission)
        by one majority-acknowledged SAVE — far fewer messages per task."""
        counts = {}
        for name in ("ss-always", "dgfr-always"):
            cluster = make(name, delta=0, seed=21)
            cluster.run_until(cluster.settle_cycles(1))
            with cluster.metrics.window() as window:
                cluster.snapshot_sync(0)
                cluster.run_until(cluster.settle_cycles(2))
            stats = window.stats
            counts[name] = stats.total_messages - stats.messages("GOSSIP")
        assert counts["dgfr-always"] > counts["ss-always"] * 1.5

    def test_math_inf_delta_flag(self):
        cluster = make("ss-always", delta=UNBOUNDED_DELTA)
        assert cluster.node(0).is_unbounded_delta()
        assert math.isinf(cluster.node(0).delta)
        cluster2 = make("ss-always", delta=3)
        assert not cluster2.node(0).is_unbounded_delta()


async def abandon(cluster, node, operation, timeout=20.0):
    """Give up on ``operation`` after ``timeout``, as the fuzz executor does.

    The bounded variant runs an operation as its own task, which its
    caller's cancel leaves running and only an epoch transition ends; the
    helper ends it that way there.
    """
    with pytest.raises(TimeoutError):
        await cluster.kernel.wait_for(operation, timeout=timeout)
    process = cluster.node(node)
    if hasattr(process, "_abort_operations"):
        process._abort_operations()
    await cluster.kernel.sleep(0.01)  # the cancellation lands


def holders(cluster, value):
    """The nodes whose register array holds ``value`` anywhere."""
    return [
        process.node_id
        for process in cluster.processes
        if value in process.reg.snapshot_values()
    ]


@pytest.mark.parametrize(
    "algorithm", ["ss-always", "dgfr-always", "bounded-ss-always"]
)
class TestWriteDeposit:
    """The write hands the do-forever loop a deposit that carries its
    operation's identity; the loop answers that deposit and no other."""

    def test_write_after_an_abandoned_taken_write_gets_its_own_ts(
        self, algorithm
    ):
        cluster = make(algorithm)
        node = cluster.node(0)
        cluster.network.partition({0}, {1, 2, 3, 4})

        async def scenario():
            await abandon(cluster, 0, cluster.write(0, "wA"))
            taken = node.write_pending  # the loop's baseWrite(wA) is under way
            cluster.network.heal()
            ts_b = await cluster.write(0, "wB")
            return taken, ts_b, await cluster.snapshot(3)

        taken, ts_b, result = cluster.run_until(scenario())
        assert (result.values[0], result.vector_clock[0]) == ("wB", ts_b)
        assert taken.value == "wA" and taken.taken and ts_b > taken.ts
        assert check_snapshot_history(cluster.history.records(), 5).ok

    def test_write_withdrawn_before_it_is_taken_is_never_written(
        self, algorithm
    ):
        cluster = make(algorithm)
        node = cluster.node(0)
        cluster.write_sync(0, "w0")
        cluster.crash(0)  # the loop takes nothing while the node is down

        async def scenario():
            await abandon(cluster, 0, cluster.write(0, "wB"), timeout=5.0)
            assert node.write_pending is None and not node.busy
            cluster.resume(0)
            await cluster.settle_cycles(4)
            return await cluster.snapshot(2)

        result = cluster.run_until(scenario())
        assert result.values[0] == "w0"
        assert holders(cluster, "wB") == []

    def test_restart_drops_the_deposit_and_ends_its_writer(self, algorithm):
        cluster = make(algorithm)
        cluster.crash(0)

        async def scenario():
            writer = cluster.spawn(cluster.write(0, "wC"))
            await cluster.kernel.sleep(1.0)
            cluster.resume(0, restart=True)
            with pytest.raises(NodeCrashedError):
                await writer
            await cluster.settle_cycles(4)

        cluster.run_until(scenario())
        (record,) = [r for r in cluster.history.records() if r.argument == "wC"]
        assert record.aborted and record.result is None
        assert not cluster.node(0).busy
        assert holders(cluster, "wC") == []

    def test_no_operation_identity_repeats_across_restarts(self, algorithm):
        cluster = make(algorithm)
        node = cluster.node(0)
        seen = []
        for round_index in range(3):
            cluster.write_sync(0, f"v{round_index}")
            with node.operation("write") as op:
                seen.append(op)
            cluster.crash(0)
            cluster.resume(0, restart=True)
        assert len(set(seen)) == len(seen)
        assert [op.node for op in seen] == [0, 0, 0]


def idle_cluster(algorithm):
    """n=3, a 50 u gossip period and a fixed 1 u delay: one round trip is 2 u."""
    return make(
        algorithm,
        n=3,
        gossip_interval=50.0,
        channel=ChannelConfig(min_delay=1.0, max_delay=1.0),
    )


@pytest.mark.parametrize(
    "algorithm", ["ss-always", "dgfr-always", "bounded-ss-always"]
)
class TestDepositWakesTheLoop:
    """A write deposit ends the do-forever loop's sleep (line 79 is next)."""

    def test_write_into_a_sleeping_loop_takes_one_round_trip(self, algorithm):
        cluster = idle_cluster(algorithm)

        async def scenario():
            await cluster.kernel.sleep(10.0)  # the loop sleeps until t=50
            start = cluster.kernel.now
            await cluster.write(0, "w")
            return cluster.kernel.now - start

        assert cluster.run_until(scenario()) == 2.0

    def test_the_woken_iteration_is_a_whole_one(self, algorithm):
        cluster = idle_cluster(algorithm)
        node = cluster.node(0)
        sent = []
        send = node.send

        def recording_send(dst, message):
            sent.append(getattr(message, "inner", message).KIND)
            send(dst, message)

        async def scenario():
            await cluster.kernel.sleep(10.0)
            node.send = recording_send
            before = node.iterations_completed
            await cluster.write(0, "w")
            return node.iterations_completed - before

        assert cluster.run_until(scenario()) == 1
        assert sent.count("GOSSIP") == (0 if algorithm == "dgfr-always" else 2)


def test_resetting_node_with_a_deposit_still_sleeps():
    """A resetting node's iteration serves nothing; the wake buys one."""
    cluster = idle_cluster("bounded-ss-always")
    node = cluster.node(0)
    cluster.crash(1)
    cluster.crash(2)  # no majority: the reset never ends
    node.resetting = True

    async def scenario():
        await cluster.kernel.sleep(10.0)
        before = node.iterations_completed
        node.write_pending = WriteDeposit(OpId(0, 1), "w")
        node.wake()
        await cluster.kernel.sleep(195.0)
        return node.iterations_completed - before

    # Iterations at t = 10 (woken), 60, 110 and 160.
    assert cluster.run_until(scenario(), max_events=100_000) == 4
    assert cluster.kernel.now == 205.0
    assert node.resetting and not node.write_pending.taken


def record_kinds(process, log):
    """Append ``(time, kind)`` for every message ``process`` sends."""
    send = process.send

    def recording_send(dst, message):
        log.append((process.kernel.now, getattr(message, "inner", message).KIND))
        send(dst, message)

    process.send = recording_send


@pytest.mark.parametrize("algorithm", ["ss-always", "bounded-ss-always"])
class TestSnapshotTaskWakesTheLoop:
    """Registering a snapshot task ends the loop's sleep (line 80 is next)."""

    def test_first_query_round_starts_when_the_task_registers(self, algorithm):
        cluster = idle_cluster(algorithm)
        node = cluster.node(0)
        sent = []

        async def scenario():
            await cluster.kernel.sleep(10.0)  # the loop sleeps until t=50
            record_kinds(node, sent)
            start = cluster.kernel.now
            await cluster.snapshot(0)
            return cluster.kernel.now - start

        # One query round trip; the parent's loop waited until t=50.
        assert cluster.run_until(scenario()) == 2.0
        assert min(t for t, kind in sent if kind == "SNAPSHOT") == 10.0

    def test_the_woken_iteration_is_a_whole_one(self, algorithm):
        cluster = idle_cluster(algorithm)
        node = cluster.node(0)
        sent = []

        async def scenario():
            await cluster.kernel.sleep(10.0)
            record_kinds(node, sent)
            before = node.iterations_completed
            await cluster.snapshot(0)
            return node.iterations_completed - before

        assert cluster.run_until(scenario()) == 1
        # Line 78's digests went out in the woken iteration, before line 80.
        kinds = [kind for _t, kind in sent]
        assert kinds.count("GOSSIP") == 2
        assert kinds.index("GOSSIP") < kinds.index("SNAPSHOT")


def test_resetting_node_with_a_snapshot_task_still_sleeps():
    """Algorithm 3's snapshot wakes a resetting node once; it serves
    nothing and sleeps again rather than spinning."""
    cluster = idle_cluster("bounded-ss-always")
    node = cluster.node(0)
    cluster.crash(1)
    cluster.crash(2)  # no majority: the reset never ends
    node.resetting = True
    ended = []
    node.add_iteration_listener(lambda _node: ended.append(cluster.kernel.now))

    async def scenario():
        await cluster.kernel.sleep(10.0)
        ended.clear()
        # The unbounded snapshot itself: the bounded wrapper refuses a
        # snapshot while resetting, before the task is registered.
        cluster.kernel.create_task(SelfStabilizingAlwaysTerminating.snapshot(node))
        await cluster.kernel.sleep(195.0)

    cluster.run_until(scenario(), max_events=100_000)
    assert ended == [10.0, 60.0, 110.0, 160.0]
    assert node.resetting and node.pnd_tsk[0].sns == 1
    assert node.pnd_tsk[0].fnl is None


def hold_save_acks(cluster, node_id):
    """Drop every SAVEack ``node_id`` receives until ``release()`` is called."""
    process = cluster.node(node_id)
    deliver = process.deliver
    held = [True]

    def filtered(sender, message):
        if held and getattr(message, "inner", message).KIND == "SAVEack":
            return
        deliver(sender, message)

    process.deliver = filtered
    return held.clear  # the release


def record_saves(process):
    """The entries of every SAVE ``process`` sends, as ``(k, s)`` tuples."""
    sent = []
    send = process.send

    def recording_send(dst, message):
        inner = getattr(message, "inner", message)
        if inner.KIND == "SAVE":
            sent.append(tuple((k, s) for k, s, _r in inner.entries))
        send(dst, message)

    process.send = recording_send
    return sent


#: The variants with Algorithm 3's SAVE sender.
SAVE_SENDERS = pytest.mark.parametrize(
    "algorithm", ["ss-always", "bounded-ss-always"]
)


class TestSaveDoesNotHoldTheLoop:
    """Line 71's SAVE goes to a per-node sender; the loop does not wait."""

    @SAVE_SENDERS
    def test_a_write_deposited_as_an_episode_ends_is_served_before_its_save_acks(
        self, algorithm
    ):
        cluster = make(
            algorithm, n=3, channel=ChannelConfig(min_delay=1.0, max_delay=1.0)
        )
        node, kernel = cluster.node(0), cluster.kernel
        first_sent = {}  # kind -> when node 0 first sent it
        save_acks = []  # when a peer's SAVEack reached node 0
        writer = []
        send, deliver = node.send, node.deliver

        def on_send(dst, message):
            kind = getattr(message, "inner", message).KIND
            if kind == "SAVE" and "SAVE" not in first_sent:
                # The episode is done: deposit a write now, and cut node 0
                # off after its SAVE arrived but before the acks come back.
                writer.append(cluster.spawn(cluster.write(0, "w")))
                kernel.call_later(1.5, cluster.network.partition, {0}, {1, 2})
                kernel.call_later(30.0, cluster.network.heal)
            first_sent.setdefault(kind, kernel.now)
            send(dst, message)

        def on_deliver(sender, message):
            if sender != 0 and getattr(message, "inner", message).KIND == "SAVEack":
                save_acks.append(kernel.now)
            deliver(sender, message)

        node.send, node.deliver = on_send, on_deliver

        async def scenario():
            await cluster.snapshot(0)
            ts = await writer[0]
            return ts, await cluster.snapshot(1)

        ts, after = cluster.run_until(scenario())
        saved_at = first_sent["SAVE"]
        assert save_acks[0] >= saved_at + 30.0  # held back until the heal
        assert first_sent["WRITE"] < saved_at + 1.5  # out before the cut
        assert (after.values[0], after.vector_clock[0]) == ("w", ts)
        assert check_snapshot_history(cluster.history.records(), 3).ok

    @SAVE_SENDERS
    def test_a_newer_result_replaces_the_pending_one(self, algorithm):
        cluster = make(algorithm, n=3)
        node = cluster.node(0)
        release = hold_save_acks(cluster, 0)
        sent = record_saves(node)
        cluster.snapshot_sync(0)
        assert [(k, s) for k, s, _r in node.owed_saves()] == [(0, 1)]
        cluster.snapshot_sync(0)  # the loop is free: its next episode runs
        assert [(k, s) for k, s, _r in node.owed_saves()] == [(0, 2)]
        del sent[:]
        cluster.run_until(cluster.kernel.sleep(10.0))  # retransmissions only
        assert sent and set(sent) == {((0, 2),)}
        release()
        cluster.run_until(cluster.kernel.sleep(10.0))
        assert node.owed_saves() == [] and not node.outbox.armed

    @SAVE_SENDERS
    def test_no_save_names_one_owner_twice(self, algorithm):
        cluster = make(algorithm, n=5, seed=4)
        writers = ContinuousWriters(cluster, [0, 1])
        sent = [record_saves(process) for process in cluster.processes]

        async def probe():
            writers.start()
            for node in (2, 3, 4, 2, 3, 4):
                await cluster.snapshot(node)
            await writers.stop()

        cluster.run_until(probe(), max_events=None)
        messages = [entries for node_sent in sent for entries in node_sent]
        assert len(messages) > 20
        for entries in messages:
            owners = [k for k, _s in entries]
            assert len(owners) == len(set(owners)), entries
        assert check_snapshot_history(cluster.history.records(), 5).ok

    @SAVE_SENDERS
    def test_a_detectable_restart_empties_the_sender(self, algorithm):
        cluster = make(algorithm, n=3)
        node = cluster.node(0)
        hold_save_acks(cluster, 0)
        sent = record_saves(node)
        cluster.snapshot_sync(0)
        assert node.owed_saves() and node.outbox.armed
        cluster.crash(1)
        cluster.crash(2)  # no episode can end again: every SAVE is a resend
        cluster.crash(0)
        cluster.resume(0, restart=True)
        assert node.owed_saves() == [] and not node.outbox.armed
        del sent[:]
        cluster.run_until(cluster.kernel.sleep(20.0))
        assert sent == []

    @SAVE_SENDERS
    def test_stop_disarms_the_sender(self, algorithm):
        cluster = make(algorithm, n=3)
        node = cluster.node(0)
        hold_save_acks(cluster, 0)
        sent = record_saves(node)
        cluster.snapshot_sync(0)
        cluster.crash(1)
        cluster.crash(2)  # nobody queries node 0 for a help-SAVE
        node.stop()
        assert node.owed_saves() and not node.outbox.armed
        del sent[:]
        cluster.run_until(cluster.kernel.sleep(20.0))
        assert sent == []

    @pytest.mark.parametrize("n", [4, 6])
    def test_an_uncontended_snapshot_still_costs_4_n_minus_1_messages(self, n):
        """E5's δ=∞ cell on ``ss-always``: one query round trip plus one
        SAVE round trip (the bounded variant's envelopes hide the kinds)."""
        cluster = make("ss-always", n=n, delta=UNBOUNDED_DELTA)
        cluster.write_sync(0, "w")
        cluster.run_until(cluster.settle_cycles(1), max_events=None)
        with cluster.metrics.window() as window:
            cluster.snapshot_sync(1)
            cluster.run_until(cluster.settle_cycles(2), max_events=None)
        stats = window.stats
        assert stats.total_messages - stats.messages("GOSSIP") == 4 * (n - 1)
        assert stats.messages("SAVE") == stats.messages("SAVEack") == n - 1


def test_a_global_reset_empties_the_sender_and_counts_its_indices():
    """No pre-reset ``(k, s)`` crosses an epoch; a pending one can overflow."""
    cluster = make("bounded-ss-always", n=3)
    node = cluster.node(0)
    hold_save_acks(cluster, 0)
    cluster.snapshot_sync(0)
    (key,) = node.outbox.keys("SAVE")
    k, _s, result = node.outbox.entries[key].item
    node.outbox.entries[key].item = (k, 999, result)
    assert node._max_local_index() == 999
    node._apply_index_reset(node.reg.copy())
    assert node.owed_saves() == [] and not node.outbox.armed


def test_a_run_ending_with_a_save_pending_leaves_nothing_unawaited():
    script = textwrap.dedent(
        """
        from repro import ClusterConfig, SimBackend
        cluster = SimBackend("ss-always", ClusterConfig(n=3, seed=0))
        cluster.crash(1)
        cluster.crash(2)
        node = cluster.node(0)
        node.sns += 1
        node.pnd_tsk[0].sns = node.sns
        node.save_results([(0, node.sns, node.reg.copy())])
        assert node.owed_saves()
        """
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert "never awaited" not in result.stderr, result.stderr


def digest_spy(cluster, src):
    """Record the receivers of every do-forever digest ``src`` sends."""
    from repro.core.ss_always import GossipMessage3

    receivers = []
    original = cluster.network.send

    def spy(sender, dst, message):
        if (
            sender == src
            and isinstance(message, GossipMessage3)
            and message.entry is None
        ):
            receivers.append(dst)
        original(sender, dst, message)

    cluster.network.send = spy
    return receivers


def tick(node):
    """Run one do-forever iteration that has nothing to serve."""
    with pytest.raises(StopIteration):
        node.do_forever_iteration().send(None)


class TestRequestsStandInForDigests:
    """Algorithm 3's digest names ``reg[k].ts`` and ``pndTsk[k].sns``;
    its requests name the sender's own ``sns``, so a tick may skip the
    digest to a peer whose requests since the last tick said both."""

    def test_loaded_gossip_per_cycle_falls_below_idle(self):
        """E2's 80:20 closed loop at n=4: 14.5 digests a cycle loaded
        against 11.4 idle while no request stood in for any."""
        from repro.harness.costs import e02_gossip_overhead

        (row,) = e02_gossip_overhead(n_values=(4,), seed=0, algorithm="ss-always")
        assert row["loaded_gossip_per_cycle"] < row["gossip_msgs_per_cycle"]

    def test_a_request_naming_a_lower_sns_does_not_skip_the_digest(self):
        """Busy, ``p_1``'s request carries its current own entry; its digest
        is skipped only if the request's ``sns`` reaches ``pndTsk[1].sns``,
        and idle it is never skipped."""
        from repro.core.ss_always import SnapshotMessage3, WriteMessage3

        cluster = make("ss-always", n=4, seed=21, delta=2)
        for k in range(4):
            cluster.write_sync(k, f"v{k}")
        cluster.snapshot_sync(1)
        cluster.run_until(cluster.settle_cycles(2))
        node, peer = cluster.node(0), cluster.node(1)
        assert node.pnd_tsk[1].sns == peer.sns == 1
        receivers = digest_spy(cluster, 0)

        def request(kind, sns):
            if kind == "WRITE":
                return WriteMessage3(reg=peer.reg.copy(), sns=sns)
            return SnapshotMessage3(tasks=(), reg=peer.reg.copy(), ssn=9, sns=sns)

        with node.operation("snapshot"):
            for kind in ("WRITE", "SNAPSHOT"):
                for sns, skipped in ((0, False), (1, True), (2, True)):
                    receivers.clear()
                    node.deliver(1, request(kind, sns))
                    tick(node)
                    assert receivers == ([2, 3] if skipped else [1, 2, 3])
                    assert node._told == {} and node._heard_sns == {}
            # Both halves, but p_1's entry moved on since: news.
            receivers.clear()
            node.deliver(1, request("WRITE", 1))
            node.reg[1] = TimestampedValue(node.reg[1].ts + 1, "newer")
            tick(node)
            assert receivers == [1, 2, 3]
        receivers.clear()
        node.deliver(1, request("WRITE", 1))
        tick(node)
        assert receivers == [1, 2, 3]

    @pytest.mark.parametrize(
        "algorithm, healed",
        [("ss-always", True), ("broken-always-gossip-sticky", False)],
    )
    def test_owner_corrupted_low_heals_while_a_read_waits(
        self, algorithm, healed
    ):
        """Peer 1 holds evidence that once stood in for its digest to the
        owner, and its read of register 2 waits on two crashed servers.
        Busy, it may skip one digest on that evidence, not every later
        one: the next digest and the pull restore the owner within 5
        cycles."""
        import broken_algorithms  # noqa: F401  (registers the engine)

        cluster = make(algorithm, n=4, seed=25, delta=2)
        cluster.write_sync(0, "real")
        cluster.snapshot_sync(1)
        cluster.crash(2)
        cluster.crash(3)
        node, peer = cluster.node(0), cluster.node(1)

        async def scenario():
            read = cluster.spawn(cluster.read(1, 2))
            await cluster.kernel.sleep(0.0)
            assert not read.done()
            peer._told[0] = 1  # what the owner's write showed
            peer._heard_sns[0] = node.sns
            node.reg[0] = TimestampedValue(0, None)  # corrupted low
            node.ts = 0
            await cluster.settle_cycles(5)
            assert not read.done()
            read.cancel()

        cluster.run_until(scenario(), max_events=None)
        # A digest crashed p3 had in flight may still raise ``ts``; only
        # a live peer's digest draws the pull that brings the value back.
        assert (node.reg[0] == TimestampedValue(1, "real")) is healed
