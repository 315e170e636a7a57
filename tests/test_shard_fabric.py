"""Tests for the sharded snapshot fabric: routing, cuts, online splits.

Everything runs on the deterministic simulator, so each test is a pure
function of its seed; the full two-layer checker (`fabric.check()`)
closes every test that generates history.
"""

import pytest

from repro import ClusterConfig
from repro.shard import ShardedFabric, build_sim_fabric

pytestmark = pytest.mark.shard


def drive(fabric, coro):
    return fabric.kernel.run_until_complete(coro, max_events=2_000_000)


def make(shards=2, seed=0, algorithm="ss-nonblocking", **kwargs):
    return build_sim_fabric(
        shards, algorithm, ClusterConfig(n=4, seed=seed), **kwargs
    )


#: The two submission disciplines a backend can own: FIFO per node, and
#: immediate dispatch into shared rounds.
DISCIPLINES = pytest.mark.parametrize(
    "algorithm", ["ss-nonblocking", "amortized"]
)


def keys_of_one_slot(fabric, count):
    """``count`` distinct keys that all route to one register slot."""
    by_slot = {}
    for i in range(64 * count):
        keys = by_slot.setdefault(fabric.slot_of(f"k{i}"), [])
        keys.append(f"k{i}")
        if len(keys) == count:
            return keys
    raise AssertionError("ring never filled a slot")


def writes_across_a_split(fabric):
    """Ops in flight across a split all execute exactly once."""

    async def body():
        for i in range(16):
            await fabric.write(f"k{i}", 0)
        # Submit writes concurrently with the split: some are admitted
        # before it and drain, the rest route under the new epoch.
        handles = [fabric.submit_write(f"k{i}", 1) for i in range(16)]
        await fabric.split()
        return [await handle for handle in handles]

    # Exactly once: every key reaches seq 2, never 3.
    assert drive(fabric, body()) == [2] * 16
    by_key = {}
    for record in fabric.writes:
        by_key.setdefault(record.key, []).append(record.seq)
    assert all(seqs == [1, 2] for seqs in by_key.values())
    assert {record.epoch for record in fabric.writes} == {0, 1}
    assert fabric.check() == []


class TestKeyedOperations:
    def test_write_returns_per_key_versions(self):
        fabric = make()

        async def body():
            first = await fabric.write("a", b"1")
            second = await fabric.write("a", b"2")
            other = await fabric.write("b", b"1")
            return first, second, other

        assert drive(fabric, body()) == (1, 2, 1)
        assert fabric.check() == []

    def test_scan_projects_one_key(self):
        fabric = make()

        async def body():
            await fabric.write("a", b"v")
            hit = await fabric.scan("a")
            miss = await fabric.scan("nope")
            return hit, miss

        hit, miss = drive(fabric, body())
        assert hit.found and hit.value == b"v" and hit.seq == 1
        assert not miss.found
        assert fabric.check() == []

    def test_keys_spread_over_shards(self):
        fabric = make(shards=4)
        shards_hit = {fabric.slot_of(f"k{i}")[0] for i in range(64)}
        assert shards_hit == set(fabric.shard_ids)


class TestComposedSnapshot:
    def test_cut_merges_all_shards(self):
        fabric = make(shards=3)

        async def body():
            for i in range(12):
                await fabric.write(f"k{i}", i)
            return await fabric.compose_snapshot()

        cut = drive(fabric, body())
        assert {k: v for k, (_, v) in cut.items().items()} == {
            f"k{i}": i for i in range(12)
        }
        assert not cut.fenced and cut.rounds >= 1
        assert fabric.check() == []

    def test_concurrent_writers_still_linearizable(self):
        fabric = make(shards=2, seed=5)

        async def writer(i):
            for j in range(3):
                await fabric.write(f"w{i}", j)

        async def body():
            tasks = [
                fabric.kernel.create_task(writer(i), name=f"w{i}")
                for i in range(4)
            ]
            cuts = [await fabric.compose_snapshot() for _ in range(3)]
            await fabric.kernel.gather(tasks)
            cuts.append(await fabric.compose_snapshot())
            return cuts

        cuts = drive(fabric, body())
        assert fabric.check() == []
        # Cuts are totally ordered: later cuts never lose writes.
        for earlier, later in zip(cuts, cuts[1:]):
            for key, (seq, _) in earlier.items().items():
                later_seq, _ = later.items().get(key, (0, None))
                assert later_seq >= seq

    def test_fenced_fallback_still_produces_a_cut(self):
        fabric = make()

        async def body():
            await fabric.write("a", 1)
            # Drive the fenced path directly (optimistic rounds are
            # trivially stable on a quiet fabric).
            cut = await fabric._admin(
                lambda: fabric._fenced_compose(fabric.kernel.now, 0)
            )
            after = await fabric.write("b", 2)  # gate reopened
            return cut, after

        cut, after = drive(fabric, body())
        assert cut.fenced
        assert cut.get("a") == 1
        assert after == 1
        assert fabric.check() == []

    def test_max_rounds_defaults_bound_the_optimistic_loop(self):
        fabric = make()

        async def body():
            await fabric.write("a", 1)
            return await fabric.compose_snapshot()

        cut = drive(fabric, body())
        assert 1 <= cut.rounds <= ShardedFabric.MAX_OPTIMISTIC_ROUNDS


@DISCIPLINES
class TestOneSubmissionDiscipline:
    """The fabric keeps no queue: the backend orders, the slot map merges."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_instant_writes_to_one_slot_all_reach_the_next_cut(
        self, algorithm, seed
    ):
        """The slot map's read-modify-write and the algorithm's enqueue are
        one step; with a task hop between them, whichever write started
        last would publish a map missing the others' keys."""
        fabric = make(shards=2, seed=seed, algorithm=algorithm)
        keys = keys_of_one_slot(fabric, 8)

        async def body():
            handles = [fabric.submit_write(key, key) for key in keys]
            for handle in handles:
                await handle
            return await fabric.compose_snapshot()

        cut = drive(fabric, body())
        assert {key: cut.get(key) for key in keys} == {k: k for k in keys}
        assert fabric.check() == []

    @pytest.mark.parametrize("seed", range(6))
    def test_pipelined_writes_to_one_key_keep_program_order(
        self, algorithm, seed
    ):
        fabric = make(shards=2, seed=seed, algorithm=algorithm)

        async def body():
            first = fabric.submit_write("k", 1)
            second = fabric.submit_write("k", 2)
            seqs = (await first, await second)
            return seqs, await fabric.scan("k"), await fabric.compose_snapshot()

        seqs, view, cut = drive(fabric, body())
        assert seqs == (1, 2)
        assert view.value == 2 and view.seq == 2
        assert cut.get("k") == 2
        assert fabric.check() == []

    def test_compose_fences_at_once_when_writes_are_in_flight(self, algorithm):
        fabric = make(algorithm=algorithm)

        async def body():
            handle = fabric.submit_write("a", 1)
            await fabric.kernel.sleep(0.1)  # admitted, round trip pending
            cut = await fabric.compose_snapshot()
            return cut, handle.done()

        cut, write_done = drive(fabric, body())
        assert cut.fenced and cut.rounds == 1
        assert write_done and cut.get("a") == 1
        assert fabric.check() == []

    def test_keyed_reads_flow_while_a_fence_holds_writes(self, algorithm):
        fabric = make(algorithm=algorithm)

        async def body():
            await fabric.write("a", 1)
            await fabric._writes.drain()  # a fenced compose, held by hand
            try:
                held = fabric.submit_write("a", 2)
                view = await fabric.scan("a")
                assert not held.done()
            finally:
                fabric._writes.open()
            return view, await held

        view, seq = drive(fabric, body())
        assert view.value == 1 and seq == 2
        assert fabric.check() == []


    def test_keyed_read_is_one_round_whatever_other_slots_do(self, algorithm):
        """A read is ``read(node)`` at the slot's own node — one quorum
        round, not a shard scan that the shard's other writers restart."""
        fabric = make(shards=1, algorithm=algorithm, seed=5)
        key = "k0"
        _, node = fabric.slot_of(key)
        others = [
            f"k{i}" for i in range(1, 200)
            if fabric.slot_of(f"k{i}")[1] != node
        ][:24]
        reader = fabric.shard(0).node(node)

        async def body():
            await fabric.write(key, "v")
            rounds_before = reader.tag
            writes = [fabric.submit_write(k, i) for i, k in enumerate(others)]
            reads = [fabric.submit_scan(key) for _ in range(6)]
            views = [await handle for handle in reads]
            assert not all(handle.done() for handle in writes)
            for handle in writes:
                await handle
            return views, reader.tag - rounds_before

        views, rounds = drive(fabric, body())
        assert all(view.found and view.value == "v" for view in views)
        assert rounds == len(views)
        kinds = {record.kind for record in fabric.shard(0).history.records()}
        assert kinds == {"write", "read"}
        assert fabric.check() == []

    def test_keyed_reads_flow_across_a_split(self, algorithm):
        fabric = make(shards=1, algorithm=algorithm, seed=6)

        async def body():
            for i in range(16):
                await fabric.write(f"k{i}", i)
            handles = [fabric.submit_scan(f"k{i}") for i in range(16)]
            report = await fabric.split()
            views = [await handle for handle in handles]
            return report, views + [await fabric.scan("k3")]

        report, views = drive(fabric, body())
        assert report.moved_keys > 0
        assert [view.value for view in views] == list(range(16)) + [3]
        assert {view.epoch for view in views} <= {0, 1}
        assert fabric.check() == []


def test_same_seed_same_history_behind_a_k4_amortized_fabric():
    def digest():
        fabric = make(shards=4, seed=9, algorithm="amortized")

        async def client(i):
            for j in range(6):
                await fabric.write(f"k{(5 * i + j) % 16}", (i, j))
                await fabric.scan(f"k{(3 * i + j) % 16}")

        async def body():
            tasks = [
                fabric.kernel.create_task(client(i), name=f"c{i}")
                for i in range(6)
            ]
            await fabric.compose_snapshot()
            await fabric.kernel.gather(tasks)

        drive(fabric, body())
        assert fabric.check() == []
        return [
            [
                (r.node_id, r.kind, r.invoked_at, r.responded_at, repr(r.result))
                for r in backend.history.records()
            ]
            for backend in fabric.backends()
        ]

    assert digest() == digest()


class TestOnlineSplit:
    def test_split_moves_keys_without_losing_them(self):
        fabric = make(shards=2, seed=3)

        async def body():
            for i in range(24):
                await fabric.write(f"k{i}", i)
            report = await fabric.split()
            cut = await fabric.compose_snapshot()
            return report, cut

        report, cut = drive(fabric, body())
        assert report.new_epoch == report.old_epoch + 1
        assert fabric.map.shards == 3
        assert {k: v for k, (_, v) in cut.items().items()} == {
            f"k{i}": i for i in range(24)
        }
        assert fabric.check() == []

    def test_epoch_routing_no_lost_or_duplicated_ops(self):
        writes_across_a_split(make(shards=2, seed=7))

    def test_epoch_routing_under_concurrent_dispatch(self):
        writes_across_a_split(make(shards=2, seed=7, algorithm="amortized"))

    def test_migrated_keys_resume_their_seq(self):
        fabric = make(shards=1, seed=11)

        async def body():
            await fabric.write("a", "x")
            await fabric.write("a", "y")
            await fabric.split()
            return await fabric.write("a", "z")

        assert drive(fabric, body()) == 3
        assert fabric.check() == []

    def test_writes_after_split_route_by_new_map(self):
        fabric = make(shards=1, seed=2)

        async def body():
            await fabric.split()
            for i in range(12):
                await fabric.write(f"n{i}", i)

        drive(fabric, body())
        recorded_slots = {record.slot for record in fabric.writes}
        expected = {fabric.slot_of(f"n{i}") for i in range(12)}
        assert recorded_slots == expected
        assert len({shard for shard, _ in recorded_slots}) == 2


class TestFabricLifecycle:
    def test_shards_get_observability_labels(self):
        from repro.obs import session

        with session():
            fabric = make(shards=2)
        labels = [shard.obs.label for shard in fabric.backends()]
        assert labels == ["shard0", "shard1"]

    def test_validates_shard_map_agreement(self):
        from repro.errors import ConfigurationError
        from repro.shard import ShardMap

        fabric = make(shards=2)
        with pytest.raises(ConfigurationError):
            ShardedFabric(
                {9: fabric.shard(0)},
                ShardMap(epoch=0, shard_ids=(0,)),
                backend_name="sim",
                algorithm="ss-nonblocking",
                base_config=ClusterConfig(n=4),
            )

    def test_check_reports_per_shard_prefixes(self):
        fabric = make(shards=2)

        async def body():
            await fabric.write("a", 1)

        drive(fabric, body())
        assert fabric.check() == []
        # Sabotage one shard's history to prove the prefix wiring:
        # two open invocations at one node violate well-formedness.
        fabric.shard(1).history.invoke(0, "write", "x", now=1.0)
        fabric.shard(1).history.invoke(0, "write", "y", now=1.5)
        failures = fabric.check()
        assert failures and all(f.startswith("shard1: ") for f in failures)
