"""Key-map deltas: a keyed write ships the keys it changed, not the map.

A fabric slot's register value is a :class:`~repro.core.register.KeyMap`.
Its writer sends its own entry as a :class:`~repro.core.register.KeyDelta`
against the value before its latest write, and a server applies it only
to a copy with the base's digest.  These tests pin the map type, the
digest check (against an engine that skips it), the shrunk map a split
leaves behind, and the injector's reach into deltas and maps.
"""

import pickle

import pytest

from broken_algorithms import BrokenDeltaByTs  # noqa: F401  (registers it)
from repro.config import scenario_config
from repro.core.base import ReadMessage
from repro.core.register import EMPTY_KEY_MAP, KeyDelta, KeyMap, TimestampedValue
from repro.fault.transient import TransientFaultInjector
from repro.shard import build_sim_fabric

pytestmark = pytest.mark.shard

#: Every channel delay is exactly this, so a round trip is twice it.
DELAY = 1.0


def drive(fabric, coro):
    return fabric.kernel.run_until_complete(coro, max_events=2_000_000)


def make(algorithm="amortized", shards=1, seed=5):
    config = scenario_config(n=4, seed=seed, fixed_delay=DELAY)
    return build_sim_fabric(shards, algorithm, config)


def keys_of_one_slot(fabric, count):
    by_slot = {}
    for i in range(64 * count):
        keys = by_slot.setdefault(fabric.slot_of(f"k{i}"), [])
        keys.append(f"k{i}")
        if len(keys) == count:
            return keys
    raise AssertionError("ring never filled a slot")


class TestKeyMap:
    def test_digest_is_content_only(self):
        one = KeyMap({"a": (1, "x"), "b": (2, "y")})
        other = KeyMap({"b": (2, "y"), "a": (1, "x")})
        assert one.digest == other.digest
        assert one.digest != KeyMap({"a": (1, "x"), "b": (3, "y")}).digest
        assert EMPTY_KEY_MAP.digest == 0

    def test_apply_carries_the_digest_a_fresh_map_computes(self):
        base = KeyMap({"a": (1, "x"), "b": (2, "y")})
        new = base.apply([("b", (3, "z")), ("c", (1, "w")), ("c", (2, "v"))])
        assert new == {"a": (1, "x"), "b": (3, "z"), "c": (2, "v")}
        assert new.digest == KeyMap(dict(new)).digest

    def test_a_delta_rebuilds_the_map_in_its_own_order(self):
        base = KeyMap({"a": (1, "x"), "b": (2, "y")})
        new = base.apply([("c", (1, "w")), ("a", (2, "x2"))])
        delta = new.delta_since(base, ts=7)
        assert delta == KeyDelta(7, base.digest, (("a", (2, "x2")), ("c", (1, "w"))))
        rebuilt = base.apply_delta(delta)
        assert list(rebuilt.items()) == list(new.items())
        assert rebuilt.digest == new.digest
        # A receiver in another process hashes the items itself.
        fresh = KeyDelta(delta.ts, delta.base, delta.changes)
        assert fresh.item_hashes() == delta.item_hashes()

    def test_a_shrunk_map_has_no_delta(self):
        base = KeyMap({"a": (1, "x"), "b": (2, "y")})
        assert KeyMap({"a": (1, "x"), "c": (1, "z")}).delta_since(base, 3) is None

    def test_frozen_yet_a_dict_to_every_reader(self):
        value = KeyMap({"a": (1, "x")})
        with pytest.raises(TypeError):
            value["b"] = (1, "y")
        with pytest.raises(TypeError):
            value.update(b=(1, "y"))
        assert value == {"a": (1, "x")} and repr(value) == "{'a': (1, 'x')}"
        thawed = pickle.loads(pickle.dumps(value))
        assert type(thawed) is KeyMap and thawed.digest == value.digest

    def test_bottom_is_the_empty_map(self):
        assert KeyMap.of(None) is EMPTY_KEY_MAP
        assert KeyMap.of(b"bytes") is None


def settle(fabric, slot):
    """Run until every node of ``slot``'s shard holds the writer's entry."""
    shard, writer = slot
    backend = fabric.backends()[shard]

    async def wait():
        for _ in range(100):
            entry = backend.node(writer).reg[writer]
            if all(backend.node(k).reg[writer] == entry for k in range(4)):
                return
            await fabric.kernel.sleep(DELAY)
        raise AssertionError("slot never settled")

    drive(fabric, wait())


def heals_same_ts_corruption(algorithm):
    """Corrupt one key's seq in a server's copy; one keyed write later,
    within one round trip of it, is that copy the writer's again?"""
    fabric = make(algorithm)
    keys = keys_of_one_slot(fabric, 4)
    slot = shard, writer = fabric.slot_of(keys[0])
    backend = fabric.backends()[shard]

    async def fill():
        for i, key in enumerate(keys[:3]):
            await fabric.write(key, i)

    drive(fabric, fill())
    settle(fabric, slot)
    server = next(k for k in range(4) if k != writer)
    copy = backend.node(server).reg[writer]
    bad = copy.value.apply([(keys[0], (99, copy.value[keys[0]][1]))])
    backend.node(server).reg[writer] = TimestampedValue(copy.ts, bad)

    async def one_write():
        await fabric.write(keys[3], "new")
        await fabric.kernel.sleep(2 * DELAY)

    drive(fabric, one_write())
    mine = backend.node(writer).reg[writer]
    assert mine.value == fabric._slots[slot]
    return backend.node(server).reg[writer] == mine


class TestDigestCheck:
    def test_a_same_ts_corruption_heals_at_the_next_write(self):
        """Today's heal: the next write's entry replaces the copy.  The
        delta cannot apply to a copy without the base's digest, so the
        server gets the whole entry, one message pair later."""
        assert heals_same_ts_corruption("amortized")

    def test_rejects_an_engine_that_applies_deltas_by_ts_alone(self):
        assert not heals_same_ts_corruption("broken-delta-by-ts")

    def test_fault_free_writes_send_no_whole_entry(self):
        """Each server holds the base when the delta arrives, so no
        server asks for the whole entry."""
        fabric = make()
        keys = keys_of_one_slot(fabric, 6)
        shard, writer = fabric.slot_of(keys[0])
        backend = fabric.backends()[shard]
        sent = []
        original = backend.node(writer).send

        def spy(dst, message):
            sent.append(message)
            original(dst, message)

        backend.node(writer).send = spy

        async def body():
            for i, key in enumerate(keys * 2):
                await fabric.write(key, i)

        drive(fabric, body())
        reads = [m for m in sent if isinstance(m, ReadMessage)]
        assert reads and all(isinstance(m.entry, KeyDelta) for m in reads)
        assert fabric.check() == []


class TestShrunkMap:
    def test_split_source_ships_its_shrunk_map_whole(self):
        fabric = make(shards=2, seed=3)

        async def body():
            for i in range(24):
                await fabric.write(f"k{i}", i)
            before = dict(fabric._slots)
            await fabric.split()
            return before

        before = drive(fabric, body())
        slot = next(
            slot
            for slot, value in fabric._slots.items()
            if slot in before and len(value) < len(before[slot])
        )
        key = next(iter(fabric._slots[slot]))
        assert fabric.slot_of(key) == slot
        moved = set(before[slot]) - set(fabric._slots[slot])
        drive(fabric, fabric.write(key, "after"))
        settle(fabric, slot)
        shard, writer = slot
        backend = fabric.backends()[shard]
        for k in range(4):
            copy = backend.node(k).reg[writer].value
            assert copy == fabric._slots[slot]
            assert not moved & set(copy)
        assert fabric.check() == []


class TestInjector:
    def test_scramble_reaches_the_delta_fields(self):
        fabric = make()
        keys = keys_of_one_slot(fabric, 2)
        shard, writer = fabric.slot_of(keys[0])
        backend = fabric.backends()[shard]

        async def body():
            await fabric.write(keys[0], "a")
            task = fabric.submit_write(keys[1], "b")
            await fabric.kernel.sleep(DELAY / 2)  # the delta is in flight
            scrambled = []
            for channel in backend.network.channels():
                scrambled += [
                    m for m in channel.in_flight_messages()
                    if isinstance(m, ReadMessage)
                ]
            injector = TransientFaultInjector(backend, seed=1)
            injector.scramble_channels(drop_probability=0.0)
            after = []
            for channel in backend.network.channels():
                after += [
                    m for m in channel.in_flight_messages()
                    if isinstance(m, ReadMessage)
                ]
            await task
            return scrambled, after

        before, after = drive(fabric, body())
        assert before and all(isinstance(m.entry, KeyDelta) for m in before)
        assert len(after) == len(before)
        for old, new in zip(before, after):
            assert isinstance(new.entry, KeyDelta)
            assert new.entry.base != old.entry.base
            assert [k for k, _ in new.entry.changes] == [
                k for k, _ in old.entry.changes
            ]
            assert all(
                item[0] != old_item[0]
                for (_, item), (_, old_item) in zip(
                    new.entry.changes, old.entry.changes
                )
            )

    def test_corrupt_key_maps_keeps_the_ts(self):
        fabric = make()
        keys = keys_of_one_slot(fabric, 3)
        shard, writer = fabric.slot_of(keys[0])
        backend = fabric.backends()[shard]

        async def body():
            for key in keys:
                await fabric.write(key, key)

        drive(fabric, body())
        settle(fabric, (shard, writer))
        before = [backend.node(k).reg[writer] for k in range(4)]
        TransientFaultInjector(backend, seed=2).corrupt_key_maps()
        after = [backend.node(k).reg[writer] for k in range(4)]
        for old, new in zip(before, after):
            assert new.ts == old.ts and new.value != old.value
            assert new.value.keys() == old.value.keys()
            differing = [k for k in old.value if old.value[k] != new.value[k]]
            assert len(differing) == 1
        assert backend.node(writer).base != fabric._slots[shard, writer]

    def test_no_key_map_means_no_draw(self):
        """Without a key map the corruption draws nothing, so the
        injector's stream — and every run built on it — is unchanged."""
        fabric = make()
        backend = fabric.backends()[0]
        injector = TransientFaultInjector(backend, seed=4)
        state = injector._rng.getstate()
        injector.corrupt_key_maps()
        assert injector._rng.getstate() == state
