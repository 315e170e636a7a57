"""Behaviour of the ``amortized`` variant (Garg et al.-style batching).

Concurrent local operations share quorum rounds: a group-commit write
round installs every pending write with one broadcast (the writer's one
entry when no scan is pending, ``WRITE(lReg)`` when the round is also a
collect), and a shared scan round resolves every pending snapshot
together.  The variant inherits Algorithm 1's merge/gossip recovery
unchanged, so it keeps the self-stabilization claim — the fuzz executor
corrupts it like any other ``ss-`` algorithm.
"""

import random

import pytest

from repro import ClusterConfig, SimBackend
from repro.analysis.linearizability import check_snapshot_history
from repro.config import ChannelConfig, scenario_config
from repro.core.amortized import AmortizedSnapshot
from repro.core.cluster import ALGORITHMS
from repro.core.register import TimestampedValue
from repro.sim.kernel import TieBreak


def make(n=4, seed=0, **kwargs):
    return SimBackend("amortized", ClusterConfig(n=n, seed=seed, **kwargs))


def requests(cluster):
    """Round requests sent so far, by the kind that carried them."""
    sent = cluster.metrics.snapshot().messages_by_kind
    return {kind: sent.get(kind, 0) for kind in ("WRITE", "READ", "SNAPSHOT")}


class TestRegistration:
    def test_registered_in_algorithms(self):
        assert ALGORITHMS["amortized"] is AmortizedSnapshot

    def test_claims_self_stabilization_and_concurrent_clients(self):
        assert AmortizedSnapshot.SELF_STABILIZING
        assert AmortizedSnapshot.CONCURRENT_CLIENTS


class TestBasicSemantics:
    def test_write_then_snapshot(self):
        cluster = make()
        assert cluster.write_sync(0, "hello") == 1
        result = cluster.snapshot_sync(1)
        assert result.values[0] == "hello"

    def test_sequential_writes_get_increasing_timestamps(self):
        cluster = make()
        for expected in (1, 2, 3):
            assert cluster.write_sync(2, f"v{expected}") == expected


class TestGroupCommit:
    def test_concurrent_writes_all_get_distinct_timestamps(self):
        cluster = make(seed=3)

        async def workload():
            tasks = [cluster.write(0, f"w{i}") for i in range(8)]
            return await cluster.kernel.gather(tasks)

        timestamps = cluster.run_until(workload())
        assert sorted(timestamps) == list(range(1, 9))
        # Only the batch's final value is installed and observable.
        final = cluster.snapshot_sync(1)
        assert final.values[0] == f"w{timestamps.index(8)}"

    def test_concurrent_writes_share_broadcast_rounds(self):
        """8 pipelined writes cost far fewer round requests than 8 serial,
        whichever kind carries a round."""

        def write_messages(cluster):
            return sum(requests(cluster).values())

        serial = make(seed=5)
        for i in range(8):
            serial.write_sync(0, f"w{i}")

        batched = make(seed=5)

        async def workload():
            await batched.kernel.gather(
                [batched.write(0, f"w{i}") for i in range(8)]
            )

        batched.run_until(workload())
        assert write_messages(batched) < write_messages(serial) / 2

    def test_scan_free_commit_ships_one_entry_and_no_write(self):
        """No scan pending: the batch travels as READ(i, reg[i]) alone,
        and every write still gets its own timestamp."""
        cluster = make(seed=23)

        async def workload():
            return await cluster.kernel.gather(
                [cluster.write(2, f"w{i}") for i in range(5)]
            )

        timestamps = cluster.run_until(workload())
        assert sorted(timestamps) == [1, 2, 3, 4, 5]
        sent = requests(cluster)
        assert sent["WRITE"] == 0 and sent["READ"] > 0
        # The store left the final entry at a majority.
        final = TimestampedValue(5, f"w{timestamps.index(5)}")
        holders = sum(process.reg[2] == final for process in cluster.processes)
        assert holders >= cluster.node(2).majority
        assert cluster.read_sync(0, 2) == final
        report = check_snapshot_history(cluster.history.records(), 4)
        assert report.ok, report.summary()

    def test_scan_free_commit_absorbs_a_server_ahead_of_it(self):
        """A corrupted-high own entry at a server comes back in full and
        heals ``ts``, as a WRITEack would have."""
        cluster = make(seed=29)
        cluster.node(1).reg[0] = TimestampedValue(40, "residue")
        cluster.node(2).reg[0] = TimestampedValue(40, "residue")
        assert cluster.write_sync(0, "mine") == 1
        assert cluster.node(0).ts == 40
        assert cluster.write_sync(0, "healed") == 41

    def test_concurrent_scans_share_query_rounds(self):
        cluster = make(seed=7)
        cluster.write_sync(0, "x")
        node = cluster.node(1)
        ssn_before = node.ssn

        async def workload():
            tasks = [cluster.snapshot(1) for _ in range(6)]
            return await cluster.kernel.gather(tasks)

        results = cluster.run_until(workload())
        assert all(r.values == results[0].values for r in results)
        # One shared scan round (plus at most one confirming re-run)
        # serves the whole batch — not one round per scan.
        assert node.ssn - ssn_before < 6


class TestRestartSafety:
    def test_detectable_restart_does_not_wedge_the_node(self):
        """``initialize_state`` re-runs on restart; the op queues survive
        in ``__init__`` so later operations still find a working engine."""
        cluster = make(seed=11)
        cluster.write_sync(0, "before")
        cluster.crash(0)
        cluster.resume(0, restart=True)

        async def after_recovery():
            # Give gossip its absorption window so the restarted node's
            # ts recovers before the next write (standard ss behaviour).
            await cluster.tracker.wait_cycles(4)
            ts = await cluster.write(0, "after")
            assert ts > 1
            return await cluster.snapshot(2)

        result = cluster.run_until(after_recovery())
        assert result.values[0] == "after"


class TestLinearizability:
    def test_concurrent_mixed_workload_under_loss_is_linearizable(self):
        cluster = make(
            n=4,
            seed=13,
            channel=ChannelConfig(
                loss_probability=0.1, duplication_probability=0.05
            ),
        )

        async def workload():
            tasks = []
            for node in range(4):
                for i in range(3):
                    tasks.append(cluster.write(node, f"n{node}w{i}"))
                tasks.append(cluster.snapshot(node))
            await cluster.kernel.gather(tasks)

        cluster.run_until(workload())
        cluster.history.validate_well_formed(sequential=False)
        report = check_snapshot_history(cluster.history.records(), 4)
        assert report.ok, report.summary()

    def test_history_rejects_sequential_validation(self):
        """The backend flags concurrent clients so the load driver skips
        the per-node overlap check — overlap is the whole point here."""
        cluster = make(seed=17)
        assert cluster.concurrent_clients

        async def workload():
            await cluster.kernel.gather(
                [cluster.write(0, f"w{i}") for i in range(4)]
            )

        cluster.run_until(workload())
        cluster.history.validate_well_formed(sequential=False)  # passes


class TestEquivalenceQuorum:
    """A round succeeds iff its majority reported exactly the broadcast view."""

    def pending(self, cluster):
        from repro.core.amortized import _PendingOp

        return _PendingOp(cluster.kernel)

    def test_unanimous_replies_return_the_broadcast_view(self):
        cluster = make()
        node = cluster.node(0)
        view = node.reg.copy()
        view[1] = TimestampedValue(3, "x")
        # A delivery during the round moved ``reg`` past the view: the
        # equivalence quorum ignores it, the paper's ``prev = reg`` retried.
        node.reg[2] = TimestampedValue(9, "late")
        op = self.pending(cluster)
        node._settle_scans([op], view, [view.copy() for _ in range(3)])
        assert op.event.is_set()
        assert op.result.vector_clock == (0, 3, 0, 0)

    def test_one_differing_reply_requeues_the_batch_at_the_front(self):
        cluster = make()
        node = cluster.node(0)
        view = node.reg.copy()
        ahead = view.copy()
        ahead[3] = TimestampedValue(1, "unseen")
        first, later = self.pending(cluster), self.pending(cluster)
        node._pending_scans = [later]
        node._settle_scans([first], view, [view.copy(), ahead, view.copy()])
        assert not first.event.is_set()
        assert node._pending_scans == [first, later]

    def test_write_round_resolves_the_scans_pending_at_its_start(self):
        """The acks of a group commit are a collect: no SNAPSHOT round."""
        cluster = SimBackend(
            "amortized", ClusterConfig(n=4, seed=19), tie_break=TieBreak.FIFO
        )
        node = cluster.node(0)

        async def workload():
            return await cluster.kernel.gather(
                [cluster.write(0, "v"), cluster.snapshot(0)]
            )

        ts, result = cluster.run_until(workload())
        assert (ts, result.values[0], result.vector_clock[0]) == (1, "v", 1)
        assert node.ssn == 0
        sent = requests(cluster)
        assert sent["WRITE"] > 0 and sent["READ"] == sent["SNAPSHOT"] == 0
        report = check_snapshot_history(cluster.history.records(), 4)
        assert report.ok, report.summary()


def stress(algorithm, n, loss, seed, clients=12, depth=4, ops=40):
    """12 closed-loop clients x depth 4 against one cluster, 50:50 mix,
    delays spread 60:1 so rounds of different nodes interleave freely."""
    cluster = SimBackend(
        algorithm,
        scenario_config(n=n, seed=seed, min_delay=0.05, max_delay=3.0, loss=loss),
    )
    rng = random.Random(seed)

    async def client(index):
        pipe = cluster.pipeline(depth)
        for op in range(ops):
            node = rng.randrange(n)
            if rng.random() < 0.5:
                await pipe.write(node, (index, op))
            else:
                await pipe.snapshot(node)
        await pipe.drain()

    async def workload():
        await cluster.kernel.gather([client(i) for i in range(clients)])

    cluster.run_until(workload(), max_events=5_000_000)
    cluster.history.validate_well_formed(sequential=False)
    return check_snapshot_history(cluster.history.records(), n)


class TestEngineAtomicityStress:
    """The equivalence-quorum engine under real concurrency, with teeth:
    the same seeds must reject an engine whose success test is always
    true (the ledger workload caught that one on 1 seed of 20)."""

    SEEDS = range(5)

    @pytest.mark.parametrize("loss", [0.0, 0.1])
    @pytest.mark.parametrize("n", [3, 5])
    def test_linearizable_and_rejects_the_always_true_engine(self, n, loss):
        import broken_algorithms  # noqa: F401  (registers the engine)

        rejected = 0
        for seed in self.SEEDS:
            report = stress("amortized", n, loss, seed)
            assert report.ok, (seed, report.summary())
            broken = stress("broken-always-equivalent", n, loss, seed)
            rejected += not broken.ok
        assert rejected > len(self.SEEDS) // 2


class TestFuzzRegressionSeeds:
    """Pinned generated seeds that exercise batching + corruption bursts.

    Seeds 0 and 3 both draw ``batch_window=8`` with channel loss, and
    their event programs include corruption bursts.  Both must stay
    green — they are the checked-in regression evidence that the
    amortized engine survives the fuzz event mix.
    """

    @pytest.mark.parametrize("seed", [0, 3])
    def test_pinned_seed_runs_clean(self, seed):
        from repro.fuzz import generate_spec, run_spec

        spec = generate_spec(seed, algorithm="amortized", events=25)
        assert spec.batch_window == 8
        outcome = run_spec(spec)
        assert outcome.ok, outcome.failures
