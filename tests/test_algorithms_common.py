"""Behavioural tests shared across the snapshot algorithms."""

from dataclasses import replace

import pytest

from repro import ChannelConfig, ClusterConfig, SimBackend
from repro.analysis.history import HistoryRecorder
from repro.analysis.linearizability import check_snapshot_history
from repro.core.base import (
    ReadAckMessage,
    ReadMessage,
    WriteAckMessage,
    WriteMessage,
)
from repro.core.dgfr_always import TaskSnapshotAckMessage, TaskSnapshotMessage
from repro.core.dgfr_nonblocking import SnapshotAckMessage, SnapshotMessage
from repro.core.register import BOTTOM, RegisterArray, TimestampedValue
from repro.core.ss_always import SnapshotAckMessage3, SnapshotMessage3
from repro.errors import ConfigurationError, ReproError
from repro.fault import TransientFaultInjector
from repro.sim.kernel import TieBreak

ALL = ["dgfr-nonblocking", "ss-nonblocking", "dgfr-always", "ss-always"]


def make(algorithm, n=5, seed=0, delta=2, **kwargs):
    return SimBackend(
        algorithm, ClusterConfig(n=n, seed=seed, delta=delta, **kwargs)
    )


@pytest.mark.parametrize("algorithm", ALL)
class TestBasicSemantics:
    def test_empty_snapshot(self, algorithm):
        cluster = make(algorithm)
        result = cluster.snapshot_sync(0)
        assert result.values == (None,) * 5
        assert result.vector_clock == (0,) * 5

    def test_write_then_snapshot(self, algorithm):
        cluster = make(algorithm)
        ts = cluster.write_sync(2, b"hello")
        assert ts == 1
        result = cluster.snapshot_sync(0)
        assert result.values[2] == b"hello"
        assert result.vector_clock[2] == 1

    def test_successive_writes_bump_timestamps(self, algorithm):
        cluster = make(algorithm)
        assert cluster.write_sync(0, "a") == 1
        assert cluster.write_sync(0, "b") == 2
        assert cluster.write_sync(0, "c") == 3
        result = cluster.snapshot_sync(1)
        assert result.values[0] == "c"
        assert result.vector_clock[0] == 3

    def test_every_node_can_write_and_snapshot(self, algorithm):
        cluster = make(algorithm)
        for node in range(5):
            cluster.write_sync(node, f"value-{node}")
        for node in range(5):
            result = cluster.snapshot_sync(node)
            assert result.values == tuple(f"value-{k}" for k in range(5))

    def test_snapshot_reflects_only_own_writer_order(self, algorithm):
        cluster = make(algorithm)
        cluster.write_sync(0, "x1")
        cluster.write_sync(1, "y1")
        cluster.write_sync(0, "x2")
        result = cluster.snapshot_sync(3)
        assert result.values[0] == "x2"
        assert result.values[1] == "y1"
        assert result.vector_clock[:2] == (2, 1)

    def test_history_linearizable_sequential(self, algorithm):
        cluster = make(algorithm)
        for i, node in enumerate([0, 3, 1, 4, 2]):
            cluster.write_sync(node, f"v{i}")
            cluster.snapshot_sync((node + 1) % 5)
        cluster.history.validate_well_formed()
        report = check_snapshot_history(cluster.history.records(), 5)
        assert report.ok, report.summary()


@pytest.mark.parametrize("algorithm", ALL)
class TestConcurrency:
    def test_concurrent_writers_all_visible(self, algorithm):
        cluster = make(algorithm, seed=13)

        async def workload():
            writes = [cluster.spawn(cluster.write(i, i * 11)) for i in range(5)]
            await cluster.kernel.gather(writes)
            return await cluster.snapshot(0)

        result = cluster.run_until(workload())
        assert result.values == tuple(i * 11 for i in range(5))
        report = check_snapshot_history(cluster.history.records(), 5)
        assert report.ok, report.summary()

    def test_concurrent_snapshots_comparable(self, algorithm):
        cluster = make(algorithm, seed=17)

        async def workload():
            cluster.spawn(cluster.write(0, "w"))
            snaps = [cluster.spawn(cluster.snapshot(i)) for i in range(1, 5)]
            return await cluster.kernel.gather(snaps)

        results = cluster.run_until(workload())
        vcs = sorted(r.vector_clock for r in results)
        for earlier, later in zip(vcs, vcs[1:]):
            assert all(a <= b for a, b in zip(earlier, later))

    def test_linearizable_under_loss_and_duplication(self, algorithm):
        cluster = make(
            algorithm,
            seed=23,
            channel=ChannelConfig(
                loss_probability=0.25, duplication_probability=0.15
            ),
        )

        async def workload():
            tasks = []
            for round_index in range(3):
                for node in range(5):
                    tasks.append(
                        cluster.spawn(
                            cluster.write(node, (round_index, node))
                        )
                    )
                tasks.append(cluster.spawn(cluster.snapshot(round_index)))
                await cluster.kernel.gather(tasks)
                tasks = []

        cluster.run_until(workload())
        report = check_snapshot_history(cluster.history.records(), 5)
        assert report.ok, report.summary()


@pytest.mark.parametrize("algorithm", ALL)
class TestCrashTolerance:
    def test_operations_complete_with_minority_crashed(self, algorithm):
        cluster = make(algorithm, seed=29)
        cluster.crash(3)
        cluster.crash(4)
        cluster.write_sync(0, "survives")
        result = cluster.snapshot_sync(1)
        assert result.values[0] == "survives"

    def test_resume_without_restart_rejoins(self, algorithm):
        cluster = make(algorithm, seed=31)
        cluster.write_sync(0, "before")
        cluster.crash(2)
        cluster.write_sync(0, "during")
        cluster.resume(2)
        cluster.run_for(30.0)
        result = cluster.snapshot_sync(2)
        assert result.values[0] == "during"

    def test_alive_nodes_tracking(self, algorithm):
        cluster = make(algorithm)
        assert cluster.alive_nodes() == [0, 1, 2, 3, 4]
        cluster.crash(1)
        assert cluster.alive_nodes() == [0, 2, 3, 4]
        cluster.resume(1)
        assert cluster.alive_nodes() == [0, 1, 2, 3, 4]


class TestClusterFacade:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            SimBackend("no-such-algorithm")

    @pytest.mark.parametrize(
        "algorithm", ["dgfr-nonblocking", "stacked", "ss-always"]
    )
    def test_concurrent_same_node_ops_rejected(self, algorithm):
        cluster = make(algorithm)

        async def misuse():
            first = cluster.spawn(cluster.write(0, "a"))
            await cluster.kernel.sleep(0.1)  # let the first write start
            with pytest.raises(ReproError):
                await cluster.write(0, "b")
            await first

        cluster.run_until(misuse())

    def test_repr(self):
        cluster = make("ss-always")
        assert "ss-always" in repr(cluster)
        assert "n=5" in repr(cluster)

    def test_settle_cycles(self):
        cluster = make("ss-nonblocking")
        cluster.run_until(cluster.settle_cycles(3))
        assert cluster.tracker.cycles_elapsed >= 3

    def test_quiescent_registers_converge(self):
        cluster = make("ss-nonblocking")
        cluster.write_sync(0, "x")
        cluster.run_until(cluster.settle_cycles(4))
        vcs = cluster.quiescent_registers()
        assert all(vc == vcs[0] for vc in vcs)


#: ``read(j)`` lives in the base class, so every engine has it — the
#: five variants, and the bounded pair through the mixin's reset guard.
READERS = ALL + ["amortized", "bounded-ss-nonblocking", "bounded-ss-always"]


def read_rounds(cluster):
    """One-entry rounds run so far (every round takes one fresh tag)."""
    return sum(process.tag for process in cluster.processes)


def read_requests(cluster):
    """READ packets put on the wire (a broadcast's loopback copy is not one)."""
    return cluster.metrics.snapshot().messages_by_kind.get("READ", 0)


@pytest.mark.parametrize("algorithm", READERS)
class TestRegisterRead:
    def test_read_returns_the_entry_and_bottom(self, algorithm):
        cluster = make(algorithm)
        assert cluster.read_sync(1, 3).is_bottom
        ts = cluster.write_sync(3, b"hello")
        entry = cluster.read_sync(1, 3)
        assert (entry.ts, entry.value) == (ts, b"hello")
        with pytest.raises(ConfigurationError):
            cluster.read_sync(1, 5)

    def test_concurrent_with_writes_and_snapshots(self, algorithm):
        cluster = make(
            algorithm,
            seed=41,
            channel=ChannelConfig(
                loss_probability=0.15, duplication_probability=0.1
            ),
        )
        reads = 0

        async def workload():
            nonlocal reads
            for round_index in range(4):
                tasks = [
                    cluster.submit_write(node, (round_index, node))
                    for node in range(5)
                ]
                tasks += [
                    cluster.submit_read(node, (node + shift) % 5)
                    for node in range(5)
                    for shift in (0, 2)
                ]
                reads += 10
                tasks.append(cluster.submit_snapshot(round_index))
                await cluster.kernel.gather(tasks)

        cluster.run_until(workload())
        cluster.history.validate_well_formed(
            sequential=not cluster.concurrent_clients
        )
        report = check_snapshot_history(cluster.history.records(), 5)
        assert report.ok, report.summary()
        # One round, two at worst — never a retry loop.  (``amortized``
        # also stores a scan-free group commit with a one-entry round:
        # at most one per write.)
        commits = 20 if algorithm == "amortized" else 0
        assert reads <= read_rounds(cluster) <= 2 * reads + commits

    def test_own_register_is_one_round(self, algorithm):
        cluster = make(algorithm, seed=43)
        cluster.write_sync(2, "mine")
        before = read_rounds(cluster)
        assert cluster.read_sync(2, 2).value == "mine"
        assert read_rounds(cluster) == before + 1

    def test_non_writer_during_inflight_write_writes_back(self, algorithm):
        """Node 0's WRITE reaches node 3 only, so reader 1's majority
        {1, 2, 3} disagrees: two rounds, and the entry it returned is at
        node 2 before the read responds."""
        cluster = make(algorithm, seed=47)
        for src, dst in [(0, 1), (0, 2), (0, 4), (1, 4)]:
            cluster.network.channel(src, dst).blocked = True

        async def scenario():
            cluster.spawn(cluster.write(0, "new"))  # cannot reach a majority
            await cluster.kernel.sleep(6.0)
            entry = await cluster.read(1, 0)
            held = cluster.node(2).reg[0]
            for channel in cluster.network.channels():
                channel.blocked = False
            await cluster.kernel.sleep(1.0)
            return entry, held, await cluster.snapshot(4)

        entry, held, snap = cluster.run_until(scenario())
        assert (entry.ts, entry.value) == (1, "new")
        assert cluster.node(1).tag == 2
        assert held == entry
        assert snap.vector_clock[0] >= entry.ts and snap.values[0] == "new"
        report = check_snapshot_history(cluster.history.records(), 5)
        assert report.ok, report.summary()

    def test_completes_with_minority_crashed(self, algorithm):
        cluster = make(algorithm, seed=53)
        cluster.write_sync(0, "survives")
        cluster.crash(3)
        cluster.crash(4)
        assert cluster.read_sync(1, 0).value == "survives"
        assert cluster.read_sync(0, 0).value == "survives"


def sent_ack(cluster, server, requester, request, ack_class=ReadAckMessage):
    """The ``ack_class`` reply ``server`` sends for ``request``, kept off
    the wire so the test decides when (and whether) it arrives."""
    channel = cluster.network.channel(server, requester)
    channel.drop_all_in_flight()
    cluster.node(server).deliver(requester, request)
    [ack] = [
        message
        for message in channel.in_flight_messages()
        if isinstance(message, ack_class)
    ]
    channel.drop_all_in_flight()
    return ack


@pytest.mark.parametrize("algorithm", ALL + ["amortized"])
class TestEntryExchange:
    """READ ships one entry; READack ships one back only when it is news."""

    def test_ack_leaves_out_what_the_request_said(self, algorithm):
        cluster = make(algorithm, seed=61)
        ts = cluster.write_sync(3, b"v" * 32)
        request = ReadMessage(j=3, entry=TimestampedValue(ts, b"v" * 32), tag=9)
        ack = sent_ack(cluster, 3, 1, request)
        assert ack == ReadAckMessage(j=3, ts=ts, entry=None, tag=9)
        # The value travels one way only.
        assert request.wire_size() - ack.wire_size() == 32 - 1

    def test_server_ahead_replies_in_full_and_the_reader_returns_it(
        self, algorithm
    ):
        cluster = make(algorithm, seed=67)
        ts = cluster.write_sync(3, "v")
        ack = sent_ack(cluster, 3, 1, ReadMessage(j=3, entry=BOTTOM, tag=4))
        assert ack == ReadAckMessage(
            j=3, ts=ts, entry=TimestampedValue(ts, "v"), tag=4
        )
        # A server behind the request adopts it and has nothing to add.
        ahead = TimestampedValue(ts, "v")
        cluster.node(1).reg[3] = BOTTOM
        assert sent_ack(
            cluster, 1, 0, ReadMessage(j=3, entry=ahead, tag=5)
        ).entry is None
        assert cluster.node(1).reg[3] == ahead
        # End to end: a reader that holds nothing returns the servers' entry.
        cluster.node(2).reg[3] = BOTTOM
        assert cluster.read_sync(2, 3) == ahead

    @pytest.mark.parametrize(
        "forge",
        [
            lambda ack: replace(ack, ts=ack.ts + 6, entry=None),
            lambda ack: replace(ack, ts=ack.ts - 1, entry=None),
            lambda ack: replace(
                ack, entry=TimestampedValue(ack.ts + 6, "forged")
            ),
            lambda ack: replace(
                ack, ts=ack.ts + 6, entry=TimestampedValue(ack.ts, "forged")
            ),
        ],
        ids=["elided-above", "elided-below", "entry-above-ts", "ts-above-entry"],
    )
    def test_rewritten_ack_is_rejected_and_the_round_still_ends(
        self, algorithm, forge
    ):
        """Every ack of the first wave is rewritten in flight into a shape
        no server sends; the reader ignores them all and the answers to
        its retransmission end the round with the written entry."""
        cluster = make(algorithm, seed=71)
        ts = cluster.write_sync(0, "kept")
        cluster.run_until(cluster.settle_cycles(2))  # everyone holds it
        reader = cluster.node(1)
        rounds, sent = reader.tag, read_requests(cluster)
        task = cluster.spawn(cluster.read(1, 0))
        forged = 0

        def mutate(message):
            nonlocal forged
            if not isinstance(message, ReadAckMessage):
                return message
            forged += 1
            return forge(message)

        while read_requests(cluster) <= sent + 4:  # until it retransmits
            for server in (0, 2, 3, 4):
                cluster.network.channel(server, 1).corrupt_in_flight(mutate)
            cluster.run_for(0.25)
        entry = cluster.run_until(task)
        assert forged >= 4
        assert (entry.ts, entry.value) == (ts, "kept")
        assert reader.reg[0] == entry
        assert reader.tag == rounds + 1  # one round, retransmitted once
        assert read_requests(cluster) == sent + 8


def snapshot_query(algorithm, reg):
    """A ``SNAPSHOT`` carrying ``reg`` in the shape ``algorithm`` serves."""
    if algorithm == "ss-always":
        return SnapshotMessage3(tasks=(), reg=reg, ssn=5, sns=0), SnapshotAckMessage3
    if algorithm == "dgfr-always":
        return (
            TaskSnapshotMessage(source=1, sn=1, reg=reg, ssn=5),
            TaskSnapshotAckMessage,
        )
    return SnapshotMessage(reg=reg, ssn=5), SnapshotAckMessage


class TestAckElision:
    """WRITEack and SNAPSHOTack ship an entry only where it is news."""

    @pytest.mark.parametrize("algorithm", ALL + ["amortized"])
    def test_server_elides_exactly_the_equal_timestamp_entries(self, algorithm):
        news = TimestampedValue(7, b"v" * 32)
        for kind in ("WRITE", "SNAPSHOT"):
            cluster = make(algorithm, seed=73)
            cluster.node(2).reg[3] = news  # the requester is behind here
            reg = RegisterArray(5)
            reg[1] = TimestampedValue(4, "mine")  # and ahead here
            if kind == "WRITE":
                request, ack_class = WriteMessage(reg=reg), WriteAckMessage
            else:
                request, ack_class = snapshot_query(algorithm, reg)
            ack = sent_ack(cluster, 2, 1, request, ack_class)
            assert ack.reg == (0, 4, 0, news, 0)
            assert cluster.node(2).reg[1] == reg[1]  # merged, not echoed
            # Five timestamps and one 32-byte value come back, nothing else;
            # Algorithm 3's query names the sender's sns, which no ack echoes.
            extra = request.wire_size() - WriteMessage(reg=reg).wire_size()
            extra -= 8 * hasattr(request, "sns")
            assert ack.wire_size() == 16 + 5 * 8 + 32 + extra

    @pytest.mark.parametrize("algorithm", ALL + ["amortized"])
    def test_uncontended_write_acks_carry_no_value(self, algorithm):
        """Every server already holds what the request says, so each ack
        is n bare timestamps: 16 + 8n bytes whatever ν is.  ``amortized``
        takes the WRITE path only with a scan pending, and the scan then
        resolves in the same round: every reply equals the query."""
        cluster = make(algorithm, seed=83)
        value = b"x" * 200
        if algorithm == "amortized":

            async def together():
                return await cluster.kernel.gather(
                    [cluster.submit_write(0, value), cluster.submit_snapshot(0)]
                )

            _, snap = cluster.run_until(together())
            assert snap.values[0] == value
        else:
            cluster.write_sync(0, value)
        stats = cluster.metrics.snapshot()
        acks = stats.messages_by_kind["WRITEack"]
        assert acks >= 2
        assert stats.bytes_by_kind["WRITEack"] == acks * (16 + 8 * 5)
        assert stats.bytes_by_kind["WRITE"] >= acks * len(value)
        assert "SNAPSHOT" not in stats.messages_by_kind

    @pytest.mark.parametrize(
        "algorithm, counted",
        [(name, False) for name in ALL] + [("broken-ack-trust-current", True)],
    )
    def test_previous_rounds_ack_is_not_counted(self, algorithm, counted):
        """Node 0's second WRITE reaches nobody, and two WRITEacks of its
        first round arrive late.  They elide node 0's entry at ts 1, so
        they stand for ts 1 and cannot complete the round at ts 2; read as
        "whatever you hold now" they would, with no peer holding ts 2."""
        import broken_algorithms  # noqa: F401  (registers the engine)

        cluster = make(algorithm, seed=79)
        writer = cluster.node(0)
        assert cluster.write_sync(0, "first") == 1
        first = WriteMessage(reg=writer.reg.copy())
        stale = [sent_ack(cluster, k, 0, first, WriteAckMessage) for k in (3, 4)]
        assert [ack.reg[0] for ack in stale] == [1, 1]
        for k in range(1, 5):
            cluster.network.channel(0, k).blocked = True
        task = cluster.spawn(cluster.write(0, "second"))
        cluster.run_for(3.0)
        assert writer.reg[0].ts == 2 and not task.done()
        for k, ack in zip((3, 4), stale):
            writer.deliver(k, ack)
        cluster.run_for(3.0)
        assert task.done() is counted
        assert all(cluster.node(k).reg[0].ts == 1 for k in range(1, 5))
        for k in range(1, 5):
            cluster.network.channel(0, k).blocked = False
        assert cluster.run_until(task) == 2
        # Acknowledged at ts 2 either way; held by a majority only if right.
        holders = sum(cluster.node(k).reg[0].ts == 2 for k in range(5))
        assert (holders >= 3) is not counted


#: Every variant whose WRITE and SNAPSHOT requests carry a register array.
REQUESTERS = ALL + ["amortized", "bounded-ss-nonblocking", "bounded-ss-always"]


def requests_sent(node, kind):
    """Every ``kind`` request ``node`` broadcasts from now on, in order."""
    sent = []
    broadcast = node.broadcast

    def recording(message, include_self=True):
        if message.kind == kind:
            sent.append(message)
        broadcast(message, include_self)

    node.broadcast = recording
    return sent


def fifo(algorithm, seed):
    """``make``, with same-instant events in the order they were scheduled."""
    return SimBackend(
        algorithm, ClusterConfig(n=5, seed=seed, delta=2), tie_break=TieBreak.FIFO
    )


def acked_write(cluster, node, value):
    """A write by ``node`` that takes the WRITE path, then two cycles for
    the acks beyond the majority to land.  ``amortized`` sends WRITE only
    with a scan pending at the round's start, so it submits the write and
    a scan together (on a FIFO cluster, both are pending when the round
    starts)."""
    if cluster.algorithm_name == "amortized":

        async def together():
            return await cluster.kernel.gather(
                [cluster.submit_write(node, value), cluster.submit_snapshot(node)]
            )

        ts, _ = cluster.run_until(together())
    else:
        ts = cluster.write_sync(node, value)
    cluster.run_until(cluster.settle_cycles(2))
    return ts


class TestRequestElision:
    """WRITE and SNAPSHOT ship an entry only where some peer may lack it."""

    @pytest.mark.parametrize("algorithm", REQUESTERS)
    def test_after_a_write_every_peer_acked_a_snapshot_request_ships_no_entry(
        self, algorithm
    ):
        cluster = fifo(algorithm, seed=89)
        value = b"x" * 200
        acked_write(cluster, 0, value)
        node = cluster.node(0)
        assert set(node.peer_clocks) == {1, 2, 3, 4}
        assert node.floor() == node.reg.vector_clock() == (1, 0, 0, 0, 0)
        queries = requests_sent(node, "SNAPSHOT")
        assert cluster.snapshot_sync(0).values[0] == value
        assert queries
        for query in queries:
            assert query.reg == (1, 0, 0, 0, 0)
            # Eight bytes per entry on top of the same message with no array.
            assert query.wire_size() == replace(query, reg=()).wire_size() + 8 * 5
            if isinstance(query, SnapshotMessage):
                assert query.wire_size() == 16 + 8 * 5 + 8

    @pytest.mark.parametrize("algorithm", REQUESTERS)
    def test_a_server_lowered_below_an_elided_entry_gets_it_whole(self, algorithm):
        """Node 3's entry is elided from node 0's next WRITE, since every
        peer's ack named it; a fault then lowers server 2's copy.  Nodes 3
        and 4 are down, so the round needs server 2: its first ack names
        its lower timestamp, the retransmission ships the entry, and the
        round ends with server 2 holding it."""
        cluster = fifo(algorithm, seed=97)
        acked_write(cluster, 3, "three")
        acked_write(cluster, 0, "first")
        entry = cluster.node(0).reg[3]
        assert entry.ts == 1
        cluster.node(2).reg[3] = BOTTOM
        cluster.crash(3)
        cluster.crash(4)
        writes = requests_sent(cluster.node(0), "WRITE")
        acked_write(cluster, 0, "second")
        assert writes[0].reg[3] == 1
        assert entry in writes[-1].reg
        assert cluster.node(2).reg[3] == entry
        assert cluster.node(0).reg[0].ts == 2
        assert cluster.node(0).peer_clocks[2][3] == 1

    @pytest.mark.parametrize(
        "garbage", [(1, 0, 0), ("x", 0, 0, 0, 0), 7, None], ids=repr
    )
    def test_a_garbage_ack_sets_no_clock(self, garbage):
        """Every array ack reaches the clock sink, in a round or not; one
        whose items are not n timestamps and pairs changes nothing."""
        cluster = fifo("ss-nonblocking", seed=103)
        acked_write(cluster, 0, "v")
        node = cluster.node(0)
        clocks = dict(node.peer_clocks)
        node.deliver(1, WriteAckMessage(reg=garbage))
        node.deliver(2, SnapshotAckMessage(reg=garbage, ssn=1))
        assert node.peer_clocks == clocks

    @pytest.mark.parametrize("algorithm", ["ss-nonblocking", "bounded-ss-always"])
    def test_peer_clocks_restart_empty(self, algorithm):
        cluster = fifo(algorithm, seed=101)
        acked_write(cluster, 0, "v")
        assert cluster.node(0).peer_clocks
        cluster.crash(0)
        cluster.resume(0, restart=True)
        assert cluster.node(0).peer_clocks == {}
        assert cluster.node(0).floor() == (0,) * 5


@pytest.mark.parametrize("algorithm", ["ss-nonblocking", "ss-always", "amortized"])
def test_reads_converge_after_scramble(algorithm):
    """Arbitrary state — ``tag`` and in-flight READ/READack included —
    heals within the recovery-cycle cap the other indices get."""
    cluster = make(algorithm, seed=59)
    cluster.write_sync(0, "pre")
    for node in range(5):
        cluster.spawn(cluster.read(node, 0))
    cluster.run_for(0.3)  # the READs are on the wire
    in_flight = [
        message
        for channel in cluster.network.channels()
        for message in channel.in_flight_messages()
    ]
    assert any(isinstance(m, (ReadMessage, ReadAckMessage)) for m in in_flight)
    TransientFaultInjector(cluster, seed=59).scramble_everything()
    assert len({process.tag for process in cluster.processes}) > 1
    cluster.tracker.reset()
    cluster.run_until(cluster.tracker.wait_cycles(8), max_events=None)
    cluster.history = HistoryRecorder()
    for node in range(5):
        cluster.write_sync(node, f"post-{node}")
    for node in range(5):
        for j in range(5):
            assert cluster.read_sync(node, j).value == f"post-{j}"
    report = check_snapshot_history(cluster.history.records(), 5)
    assert report.ok, report.summary()
