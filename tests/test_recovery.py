"""Transient-fault recovery tests: Theorems 1 and 2, Definition 1.

The paper's claims: starting from an *arbitrary* state, a fair execution
of the self-stabilizing algorithms reaches a consistent state (Definition
1) within O(1) asynchronous cycles, after which behaviour is legal
(operations terminate and histories are linearizable).
"""

import pytest

from repro import ChannelConfig, ClusterConfig, SimBackend
from repro.analysis.history import HistoryRecorder
from repro.analysis.invariants import (
    definition1_consistent,
    sns_consistent,
    ssn_consistent,
    ts_consistent,
    vc_consistent,
)
from repro.analysis.linearizability import check_snapshot_history
from repro.core.register import BOTTOM
from repro.fault import TransientFaultInjector
from repro.harness.experiments import RECOVERY_CYCLE_BOUND

#: Cycle budget we allow for "O(1) cycles"; the measured value in
#: E7/E8 is ~2-3 and flat in n.
RECOVERY_CYCLES = 8


def make(algorithm, n=5, seed=0, delta=2, **kwargs):
    return SimBackend(
        algorithm, ClusterConfig(n=n, seed=seed, delta=delta, **kwargs)
    )


def recover(cluster, cycles=RECOVERY_CYCLES):
    cluster.tracker.reset()
    cluster.run_until(cluster.tracker.wait_cycles(cycles), max_events=None)


@pytest.mark.parametrize("algorithm", ["ss-nonblocking", "ss-always"])
class TestTheoremRecovery:
    def test_ts_consistency_after_index_corruption(self, algorithm):
        cluster = make(algorithm)
        cluster.write_sync(0, "pre")
        injector = TransientFaultInjector(cluster, seed=1)
        injector.corrupt_write_indices()
        recover(cluster)
        report = ts_consistent(cluster)
        assert report.ok, report.failures

    def test_ts_consistency_after_register_corruption(self, algorithm):
        cluster = make(algorithm)
        injector = TransientFaultInjector(cluster, seed=2)
        injector.corrupt_registers()
        recover(cluster)
        report = ts_consistent(cluster)
        assert report.ok, report.failures

    def test_ssn_consistency_after_corruption(self, algorithm):
        cluster = make(algorithm)
        injector = TransientFaultInjector(cluster, seed=3)
        injector.corrupt_snapshot_indices()
        recover(cluster)
        report = ssn_consistent(cluster)
        assert report.ok, report.failures

    def test_full_scramble_reaches_definition1(self, algorithm):
        cluster = make(algorithm)
        cluster.write_sync(0, "pre")
        cluster.snapshot_sync(1)
        injector = TransientFaultInjector(cluster, seed=4)
        injector.scramble_everything()
        recover(cluster)
        report = definition1_consistent(cluster)
        assert report.ok, report.failures

    def test_operations_work_after_recovery(self, algorithm):
        cluster = make(algorithm)
        injector = TransientFaultInjector(cluster, seed=5)
        injector.scramble_everything()
        recover(cluster)
        cluster.history = HistoryRecorder()  # fresh post-recovery history
        for node in range(5):
            cluster.write_sync(node, f"post-{node}")
        result = cluster.snapshot_sync(0)
        assert result.values == tuple(f"post-{k}" for k in range(5))
        report = check_snapshot_history(cluster.history.records(), 5)
        assert report.ok, report.summary()

    def test_recovery_under_lossy_channels(self, algorithm):
        cluster = make(
            algorithm,
            seed=6,
            channel=ChannelConfig(
                loss_probability=0.2, duplication_probability=0.1
            ),
        )
        injector = TransientFaultInjector(cluster, seed=6)
        injector.scramble_everything()
        recover(cluster, cycles=12)
        report = definition1_consistent(cluster)
        assert report.ok, report.failures

    def test_recovery_is_cycle_bounded_across_sizes(self, algorithm):
        """O(1) cycles: the budget does not grow with n."""
        for n in (3, 5, 9):
            cluster = make(algorithm, n=n, seed=7)
            injector = TransientFaultInjector(cluster, seed=7)
            injector.scramble_everything()
            recover(cluster)
            report = definition1_consistent(cluster)
            assert report.ok, (n, report.failures)

    def test_monotone_indices_never_decrease(self, algorithm):
        """Self-stabilization argument (1): ts values never decrement."""
        cluster = make(algorithm, seed=8)
        injector = TransientFaultInjector(cluster, seed=8)
        injector.corrupt_write_indices(value=1000)
        observed = []

        def sample(_cycle):
            observed.append([p.ts for p in cluster.processes])

        cluster.tracker.add_boundary_listener(sample)
        recover(cluster)
        for earlier, later in zip(observed, observed[1:]):
            assert all(a <= b for a, b in zip(earlier, later))
        assert all(ts >= 1000 for ts in observed[-1])

    def test_writes_win_over_corrupted_registers(self, algorithm):
        """After recovery a fresh write dominates corrupted-high entries
        (Theorem 1's point: the next write's ts+1 is globally maximal)."""
        cluster = make(algorithm, seed=9)
        injector = TransientFaultInjector(cluster, seed=9)
        injector.corrupt_registers(entries=[0])
        recover(cluster)
        cluster.write_sync(0, "authoritative")
        result = cluster.snapshot_sync(1)
        assert result.values[0] == "authoritative"


class TestAlgorithm3SpecificRecovery:
    def test_sns_invariant_after_pnd_tsk_corruption(self):
        cluster = make("ss-always")
        injector = TransientFaultInjector(cluster, seed=10)
        injector.corrupt_pending_tasks()
        recover(cluster)
        report = sns_consistent(cluster)
        assert report.ok, report.failures

    def test_vc_invariant_after_pnd_tsk_corruption(self):
        cluster = make("ss-always")
        injector = TransientFaultInjector(cluster, seed=11)
        injector.corrupt_pending_tasks()
        recover(cluster)
        report = vc_consistent(cluster)
        assert report.ok, report.failures

    def test_snapshot_terminates_despite_prior_corruption(self):
        """Theorem 3 under Theorem 2's precondition: after the consistent
        state is reached, a pending snapshot task completes."""
        cluster = make("ss-always", delta=2, seed=12)
        injector = TransientFaultInjector(cluster, seed=12)
        injector.corrupt_pending_tasks()
        injector.corrupt_snapshot_indices()
        recover(cluster)
        result = cluster.snapshot_sync(3)
        assert result is not None

    def test_phantom_task_entries_cleared(self):
        """Line 77: a corrupted own-task entry is re-asserted from sns."""
        cluster = make("ss-always", seed=13)
        node = cluster.node(2)
        from repro.core.ss_always import PendingTask

        node.pnd_tsk[2] = PendingTask(sns=77, vc=None, fnl=None)
        recover(cluster)
        assert node.sns >= 77
        assert node.pnd_tsk[2].sns == node.sns

    def test_illogical_vector_clock_reset(self):
        """Line 76: vc entries exceeding the current VC are cleared."""
        cluster = make("ss-always", seed=14)
        node = cluster.node(1)
        node.pnd_tsk[3].vc = (10**6,) * 5
        recover(cluster, cycles=2)
        assert node.pnd_tsk[3].vc is None

    def test_corrupted_fnl_does_not_wedge_future_snapshots(self):
        """A garbage fnl for a stale index is superseded by the next
        operation's higher sns."""
        cluster = make("ss-always", seed=15)
        from repro.core.register import RegisterArray, TimestampedValue

        garbage = RegisterArray(5)
        garbage[0] = TimestampedValue(999, "junk")
        node = cluster.node(0)
        node.pnd_tsk[0].fnl = garbage
        recover(cluster)
        result = cluster.snapshot_sync(0)
        # The new task (higher sns) got a real result; values may include
        # healed-but-arbitrary timestamps, never a wedged wait.
        assert result is not None


def leave_a_save_pending_everywhere(cluster):
    """Each node snapshots while every SAVEack is dropped, then acks flow."""
    held = [True]
    for process in cluster.processes:
        deliver = process.deliver

        def filtered(sender, message, deliver=deliver):
            if not (held and message.KIND == "SAVEack"):
                deliver(sender, message)

        process.deliver = filtered
    for node in range(cluster.config.n):
        cluster.snapshot_sync(node)
    assert all(process.owed_saves() for process in cluster.processes)
    held.clear()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scrambled_pending_saves_heal_within_e8s_cycle_bound(seed):
    """A wild ``sns`` in a pending SAVE breaks Definition 1(iii); a forged
    ack set or a dropped entry costs only the delivery the help-SAVE
    makes up for.  Either way the state is consistent again, and the
    senders empty, within E8's bound."""
    cluster = make("ss-always", seed=seed)
    leave_a_save_pending_everywhere(cluster)
    TransientFaultInjector(cluster, seed=seed).corrupt_outbox()
    assert not sns_consistent(cluster).ok
    cluster.tracker.reset()

    async def cycles_to_consistent():
        for _ in range(RECOVERY_CYCLE_BOUND + 1):
            if definition1_consistent(cluster).ok:
                return cluster.tracker.cycles_elapsed
            await cluster.tracker.wait_cycles(1)
        return None

    cycles = cluster.run_until(cycles_to_consistent(), max_events=None)
    assert cycles is not None and cycles <= RECOVERY_CYCLE_BOUND
    recover(cluster)
    assert all(not process.owed_saves() for process in cluster.processes)
    assert cluster.snapshot_sync(0) is not None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_scrambled_outbox_mid_reset_still_decides(seed):
    """``corrupt_outbox`` on ``bounded-ss-always`` while the global reset's
    consensus still owes reliable-broadcast messages: forged ack sets may
    end their re-sending early, yet every node applies the decided reset,
    and the state is Definition-1 consistent within the cycle bound."""
    cluster = make("bounded-ss-always", seed=seed, max_int=8)
    cluster.write_sync(0, "pre")
    cluster.node(0).ts = 8  # an overflow: node 0 starts a global reset

    def rb_owed():
        return [
            key
            for process in cluster.processes
            for key in process.outbox.entries
            if key[0] != "SAVE"
        ]

    async def until_rb_owed():
        while not rb_owed():
            await cluster.kernel.sleep(0.1)

    cluster.run_until(until_rb_owed(), max_events=None)
    TransientFaultInjector(cluster, seed=seed).corrupt_outbox()
    cluster.tracker.reset()

    async def cycles_to_reset_and_consistent():
        for _ in range(RECOVERY_CYCLE_BOUND + 1):
            if all(
                process.resets_completed >= 1 for process in cluster.processes
            ) and definition1_consistent(cluster).ok:
                return cluster.tracker.cycles_elapsed
            await cluster.tracker.wait_cycles(1)
        return None

    cycles = cluster.run_until(cycles_to_reset_and_consistent(), max_events=None)
    assert cycles is not None and cycles <= RECOVERY_CYCLE_BOUND
    assert len({process.epoch for process in cluster.processes}) == 1
    cluster.write_sync(3, "post")
    assert cluster.snapshot_sync(4).values[3] == "post"


def clock_errors(cluster):
    """``(too_high, too_low)``: peer clocks above / below what the peer holds."""
    high = low = 0
    for process in cluster.processes:
        for k, clock in process.peer_clocks.items():
            truth = cluster.node(k).reg.vector_clock()
            high += any(c > t for c, t in zip(clock, truth))
            low += any(c < t for c, t in zip(clock, truth))
    return high, low


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("algorithm", ["ss-nonblocking", "ss-always"])
def test_scrambled_peer_clocks_heal_within_the_cycle_bound(algorithm, seed):
    """Peer clocks drawn too high (entries elided that a peer lacks) and
    too low (entries shipped that every peer holds), on top of a server
    lowered below entries every clock names.  While every node keeps
    snapshotting, each too-high clock is replaced by the peer's next ack,
    and the lowered server gets its entries back, within the cycle bound
    of Theorems 1–2."""
    cluster = make(algorithm, seed=seed)
    for node in range(5):
        cluster.write_sync(node, f"pre{node}")
    cluster.run_until(cluster.settle_cycles(2))
    held = [cluster.node(k).reg[k] for k in range(5)]
    for k in (3, 4):
        cluster.node(2).reg[k] = BOTTOM
    TransientFaultInjector(cluster, seed=seed).corrupt_peer_clocks()
    high, low = clock_errors(cluster)
    assert high and low
    cluster.tracker.reset()

    def healed():
        return (
            clock_errors(cluster)[0] == 0
            and all(cluster.node(2).reg[k] == held[k] for k in (3, 4))
            and definition1_consistent(cluster).ok
        )

    async def cycles_to_heal():
        while cluster.tracker.cycles_elapsed <= RECOVERY_CYCLE_BOUND:
            if healed():
                return cluster.tracker.cycles_elapsed
            await cluster.kernel.gather(
                [cluster.snapshot(node) for node in range(5)]
            )
        return None

    cycles = cluster.run_until(cycles_to_heal(), max_events=None)
    assert cycles is not None and cycles <= RECOVERY_CYCLE_BOUND
    assert all(result is not None for result in cluster.snapshot_sync(0).values)


def digest_receivers(cluster, src):
    """Record the receivers of every do-forever digest ``src`` sends."""
    receivers = []
    original = cluster.network.send

    def spy(sender, dst, message):
        if sender == src and message.kind == "GOSSIP" and message.entry is None:
            receivers.append(dst)
        original(sender, dst, message)

    cluster.network.send = spy
    return receivers


def node_tick(node):
    """One do-forever iteration with nothing to serve (it never awaits)."""
    with pytest.raises(StopIteration):
        node.do_forever_iteration().send(None)


def scramble_evidence(injector, node_ids=None):
    """Both halves of the digest-skip evidence (a no-op where absent)."""
    injector.corrupt_told(node_ids)
    injector.corrupt_heard_sns(node_ids)


@pytest.mark.parametrize("algorithm", ["ss-nonblocking", "ss-always"])
def test_scrambled_evidence_suppresses_at_most_one_digest_per_peer(algorithm):
    """Busy, a scrambled evidence map skips at most the next tick's digest
    to each peer, and the tick after it gossips to every peer; idle, it
    skips nothing."""
    from contextlib import ExitStack

    cluster = make(algorithm, n=4, seed=23)
    cluster.write_sync(1, "x")
    cluster.snapshot_sync(2)
    node = cluster.node(0)
    receivers = digest_receivers(cluster, 0)
    injector = TransientFaultInjector(cluster, seed=5)
    skipped = 0
    with ExitStack() as in_flight:
        for busy in (False, True):
            if busy:
                in_flight.enter_context(node.operation("snapshot"))
            for _ in range(20):
                scramble_evidence(injector, [0])
                receivers.clear()
                node_tick(node)
                skipped += 3 - len(receivers)
                assert busy or receivers == [1, 2, 3]
                receivers.clear()
                node_tick(node)
                assert receivers == [1, 2, 3]
    assert skipped > 0  # busy, the scramble does suppress digests


@pytest.mark.parametrize("algorithm", ["ss-nonblocking", "ss-always"])
def test_a_tick_that_detects_corruption_skips_no_digest(algorithm):
    """Busy, with evidence naming every peer's current state, a tick skips
    every digest; the same tick after a fault pushed ``ts`` below the
    node's own entry heals it and gossips to every peer, since the fault
    may have written the evidence too."""
    cluster = make(algorithm, n=4, seed=23)
    cluster.write_sync(0, "x")
    node = cluster.node(0)
    receivers = digest_receivers(cluster, 0)

    def evidence_naming_every_peer():
        node._told = {k: node.reg[k].ts for k in (1, 2, 3)}
        if algorithm == "ss-always":
            node._heard_sns = {k: node.pnd_tsk[k].sns for k in (1, 2, 3)}

    with node.operation("snapshot"):
        evidence_naming_every_peer()
        node_tick(node)
        assert receivers == []
        evidence_naming_every_peer()
        node.ts = 0  # below reg[0].ts = 1: a detected corruption
        node_tick(node)
        assert receivers == [1, 2, 3] and node.ts == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("algorithm", ["ss-nonblocking", "ss-always"])
def test_scrambled_evidence_heals_within_the_cycle_bound(algorithm, seed):
    """Indices, registers, pending tasks and the digest-skip evidence
    scrambled while every node keeps snapshotting, so every tick may skip
    digests: the evidence costs at most one digest per peer, and the state
    is Definition-1 consistent again within the cycle bound of Theorems
    1–2."""
    cluster = make(algorithm, seed=seed)
    for node in range(5):
        cluster.write_sync(node, f"pre{node}")
    cluster.snapshot_sync(0)
    injector = TransientFaultInjector(cluster, seed=seed)
    injector.corrupt_write_indices()
    injector.corrupt_snapshot_indices()
    injector.corrupt_registers()
    injector.corrupt_pending_tasks()
    scramble_evidence(injector)
    assert not definition1_consistent(cluster).ok
    stopped = []

    async def keep_snapshotting(node):
        while not stopped:
            await cluster.snapshot(node)

    async def cycles_to_consistent():
        busy = [cluster.spawn(keep_snapshotting(node)) for node in range(5)]
        cluster.tracker.reset()
        cycles = None
        for _ in range(RECOVERY_CYCLE_BOUND + 1):
            if definition1_consistent(cluster).ok:
                cycles = cluster.tracker.cycles_elapsed
                break
            await cluster.tracker.wait_cycles(1)
        stopped.append(True)
        await cluster.kernel.gather(busy)
        return cycles

    cycles = cluster.run_until(cycles_to_consistent(), max_events=None)
    assert cycles is not None and cycles <= RECOVERY_CYCLE_BOUND
    cluster.write_sync(3, "post")
    assert cluster.snapshot_sync(4).values[3] == "post"


class TestFaultInjectorMechanics:
    def test_targets_specific_nodes(self):
        cluster = make("ss-nonblocking")
        injector = TransientFaultInjector(cluster, seed=0)
        injector.corrupt_write_indices(node_ids=[2], value=42)
        assert cluster.node(2).ts == 42
        assert cluster.node(0).ts == 0

    def test_scramble_channels_counts(self):
        cluster = make("ss-nonblocking")
        cluster.node(0).broadcast(
            __import__(
                "repro.core.base", fromlist=["WriteMessage"]
            ).WriteMessage(reg=cluster.node(0).reg.copy())
        )
        injector = TransientFaultInjector(cluster, seed=0)
        assert injector.scramble_channels(drop_probability=0.0) >= 1

    def test_flush_channels(self):
        cluster = make("ss-nonblocking")
        cluster.node(0).broadcast(
            __import__(
                "repro.core.base", fromlist=["WriteMessage"]
            ).WriteMessage(reg=cluster.node(0).reg.copy())
        )
        assert injector_total_in_flight(cluster) >= 1
        injector = TransientFaultInjector(cluster, seed=0)
        assert injector.flush_channels() >= 1
        assert injector_total_in_flight(cluster) == 0

    def test_reproducible_corruption(self):
        values = []
        for _ in range(2):
            cluster = make("ss-nonblocking")
            injector = TransientFaultInjector(cluster, seed=99)
            injector.corrupt_write_indices()
            values.append([p.ts for p in cluster.processes])
        assert values[0] == values[1]


def injector_total_in_flight(cluster):
    return sum(ch.in_flight_count for ch in cluster.network.channels())
