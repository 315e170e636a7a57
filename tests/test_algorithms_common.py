"""Behavioural tests shared across the snapshot algorithms."""

from dataclasses import replace

import pytest

from repro import ChannelConfig, ClusterConfig, SimBackend
from repro.analysis.history import HistoryRecorder
from repro.analysis.linearizability import check_snapshot_history
from repro.core.base import ReadAckMessage, ReadMessage
from repro.core.register import BOTTOM, TimestampedValue
from repro.errors import ConfigurationError, ReproError
from repro.fault import TransientFaultInjector

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

    def test_concurrent_same_node_ops_rejected(self):
        cluster = make("dgfr-nonblocking")

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


def sent_ack(cluster, server, reader, request):
    """The READack ``server`` puts on the wire for ``request``."""
    cluster.node(server)._on_read(reader, request)
    [ack] = [
        message
        for message in cluster.network.channel(server, reader).in_flight_messages()
        if isinstance(message, ReadAckMessage)
    ]
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
