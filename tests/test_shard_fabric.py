"""Tests for the sharded snapshot fabric: routing, cuts, online splits.

Everything runs on the deterministic simulator, so each test is a pure
function of its seed; the full two-layer checker (`fabric.check()`)
closes every test that generates history.
"""

import pytest

from repro import ClusterConfig
from repro.core.base import SnapshotResult
from repro.core.register import KeyMap, TimestampedValue
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

    async def split():
        await fabric.split()
        return fabric.kernel.now  # the new map is installed

    async def body():
        for i in range(16):
            await fabric.write(f"k{i}", 0)
        # Submit writes throughout the split, whose epoch decision is a
        # consensus round: some are admitted before the drain, the rest
        # wait at the gate and route under the new epoch.
        installed = fabric.kernel.create_task(split(), name="split")
        handles = []
        for i in range(16):
            handles.append(fabric.submit_write(f"k{i}", 1))
            await fabric.kernel.sleep(0.5)
        return [await handle for handle in handles], await installed

    # Exactly once: every key reaches seq 2, never 3.
    acked, installed = drive(fabric, body())
    assert acked == [2] * 16
    by_key = {}
    for record in fabric.history.writes():
        by_key.setdefault(record.node_id, []).append(record.result)
    assert all(seqs == [1, 2] for seqs in by_key.values())
    # Some second writes completed under epoch 0, the rest after the
    # new map was installed.
    second = [r for r in fabric.history.writes() if r.result == 2]
    assert {r.responded_at > installed for r in second} == {False, True}
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

    def test_compose_and_split_complete_with_node_0_crashed(self):
        """Regression: composed collects and the split's transfer
        snapshot ran at node 0, so both wedged once any shard's node 0
        crashed.  They run at each shard's lowest live node; the event
        cap turns a wedge into a failure, not a hang."""
        fabric = make(shards=2, seed=4)
        for i in range(8):
            drive(fabric, fabric.write(f"k{i}", i))
        fabric.shard(0).crash(0)

        def capped(coro):
            return fabric.kernel.run_until_complete(coro, max_events=100_000)

        assert len(capped(fabric.compose_snapshot()).items()) == 8
        assert capped(fabric.split()).new_epoch == 1
        assert len(capped(fabric.compose_snapshot()).items()) == 8
        assert fabric.check() == []

    def test_writes_after_split_route_by_new_map(self):
        fabric = make(shards=1, seed=2)

        async def body():
            await fabric.split()
            for i in range(12):
                await fabric.write(f"n{i}", i)

        drive(fabric, body())
        recorded_slots = {
            (sid, record.node_id)
            for sid in fabric.shard_ids
            for record in fabric.shard(sid).history.writes()
        }
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


class TestKeyHistory:
    """``fabric.check()`` runs the one snapshot checker over the keys:
    keyed reads, cut values and the ⪯-order of cuts across epochs."""

    def test_rejects_a_read_below_a_write_that_preceded_it(self, monkeypatch):
        fabric = make()
        drive(fabric, fabric.write("a", "old"))
        drive(fabric, fabric.write("a", "new"))
        drive(fabric, fabric.kernel.sleep(1.0))  # strictly after, not concurrent
        shard_id, _ = fabric.slot_of("a")

        async def stale_read(node, j):
            return TimestampedValue(1, KeyMap([("a", (1, "old"))]))

        # The slot serves the map it held before the second write.
        monkeypatch.setattr(
            fabric.shard(shard_id),
            "submit_read",
            lambda node, j: fabric.kernel.create_task(stale_read(node, j)),
        )
        assert drive(fabric, fabric.scan("a")).value == "old"
        failures = fabric.check()
        assert failures and all(f.startswith("keys: read ") for f in failures)
        assert "misses write" in failures[0]
        assert "(key 'a', ts 2)" in failures[0]  # the key, not its index

    def test_rejects_a_cut_value_that_was_never_written(self):
        fabric = make()
        key, other = keys_of_one_slot(fabric, 2)
        drive(fabric, fabric.write(key, "written"))
        slot = fabric.slot_of(key)
        # A fault in the writer's copy of the slot's map keeps the seq
        # and changes the value; the slot's next write publishes it.
        fabric._slots[slot] = fabric._slots[slot].apply(((key, (1, "forged")),))
        drive(fabric, fabric.write(other, 1))
        assert drive(fabric, fabric.compose_snapshot()).get(key) == "forged"
        failures = fabric.check()
        assert failures and all(f.startswith("keys: snapshot ") for f in failures)
        assert "'forged' != written 'written'" in failures[0]

    def test_rejects_concurrent_cuts_of_two_epochs_that_are_incomparable(self):
        fabric = make(shards=1)

        async def body():
            await fabric.write("a", "a1")
            await fabric.write("b", "b1")
            first = await fabric.compose_snapshot()
            await fabric.split()
            await fabric.write("a", "a2")
            return first, await fabric.compose_snapshot()

        first, second = drive(fabric, body())
        assert (first.epoch, second.epoch) == (0, 1)
        assert fabric.check() == []
        # Stretch the second cut back over the whole run, so it is
        # concurrent with every operation, and let it miss "b": it is
        # then ahead of the first cut on "a" and behind it on "b".
        cut = fabric.history.snapshots()[-1]
        a, b = fabric.key_index["a"], fabric.key_index["b"]
        seqs, values = list(cut.result.vector_clock), list(cut.result.values)
        seqs[b], values[b] = 0, None
        cut.invoked_at = 0.0
        cut.result = SnapshotResult(tuple(values), tuple(seqs))
        assert seqs[a] == 2
        failures = fabric.check()
        assert len(failures) == 1 and failures[0].startswith("keys: snapshots ")
        assert "⪯-incomparable" in failures[0]

    def test_a_regressed_shard_vector_fails_its_shards_history(self):
        """A cut's shard vectors are snapshots its shards recorded, so
        the shard's own history is where a regressed one shows."""
        fabric = make()

        async def body():
            for i in range(4):
                await fabric.write(f"k{i}", i)
            return await fabric.compose_snapshot()

        cut = drive(fabric, body())
        sid, vc = next((s, vc) for s, vc in cut.shard_vectors.items() if any(vc))
        record = [
            r
            for r in fabric.shard(sid).history.snapshots()
            if r.result.vector_clock == vc
        ][-1]
        node = next(k for k, ts in enumerate(vc) if ts)
        regressed = list(vc)
        regressed[node] -= 1
        record.result = SnapshotResult(record.result.values, tuple(regressed))
        failures = fabric.check()
        assert failures and all(f.startswith(f"shard{sid}: ") for f in failures)
        assert any("misses write" in f for f in failures)
