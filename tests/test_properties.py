"""Property-based tests (hypothesis) for core invariants.

Covers: the register join-semilattice laws, channel non-forgery, checker
cross-validation (specialized vs exhaustive), end-to-end linearizability
of randomized executions, and recovery from arbitrary corruption.
"""

import collections
import dataclasses
import enum
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_sizer import reference_measure_size

from repro import ChannelConfig, ClusterConfig, SimBackend
from repro.analysis.history import SNAPSHOT, WRITE, HistoryRecorder
from repro.analysis.invariants import definition1_consistent
from repro.analysis.linearizability import (
    check_exhaustive,
    check_snapshot_history,
)
from repro.core.base import SnapshotResult
from repro.core.register import RegisterArray, TimestampedValue
from repro.fault import TransientFaultInjector
from repro.net import codec
from repro.net.message import HEADER_BYTES, measure_size

# Simulation-heavy properties get fewer, deadline-free examples.
SIM_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

entries = st.builds(
    TimestampedValue,
    ts=st.integers(min_value=0, max_value=50),
    value=st.integers(min_value=0, max_value=5),
)


def register_arrays(size=4):
    return st.builds(
        lambda es: RegisterArray(es),
        st.lists(entries, min_size=size, max_size=size),
    )


class TestLatticeLaws:
    @given(register_arrays(), register_arrays())
    def test_merge_commutative_on_timestamps(self, a, b):
        left = a.copy()
        left.merge_from(b)
        right = b.copy()
        right.merge_from(a)
        # Values may differ on ts ties (left bias) but clocks agree.
        assert left.vector_clock() == right.vector_clock()

    @given(register_arrays(), register_arrays(), register_arrays())
    def test_merge_associative(self, a, b, c):
        one = a.copy()
        one.merge_from(b)
        one.merge_from(c)
        bc = b.copy()
        bc.merge_from(c)
        two = a.copy()
        two.merge_from(bc)
        assert one.vector_clock() == two.vector_clock()

    @given(register_arrays())
    def test_merge_idempotent(self, a):
        merged = a.copy()
        merged.merge_from(a)
        assert merged == a

    @given(register_arrays(), register_arrays())
    def test_merge_is_upper_bound(self, a, b):
        merged = a.copy()
        merged.merge_from(b)
        assert a.precedes_or_equals(merged)
        assert b.precedes_or_equals(merged)

    @given(register_arrays(), register_arrays())
    def test_order_antisymmetric_on_clocks(self, a, b):
        if a.precedes_or_equals(b) and b.precedes_or_equals(a):
            assert a.vector_clock() == b.vector_clock()

    @given(register_arrays(), register_arrays(), register_arrays())
    def test_order_transitive(self, a, b, c):
        if a.precedes_or_equals(b) and b.precedes_or_equals(c):
            assert a.precedes_or_equals(c)

    @given(entries, entries)
    def test_pair_max_is_commutative_on_ts(self, x, y):
        assert x.max_with(y).ts == y.max_with(x).ts == max(x.ts, y.ts)

    @given(st.one_of(st.integers(), st.binary(), st.text(), st.none(),
                     st.lists(st.integers(), max_size=5)))
    def test_measure_size_non_negative(self, obj):
        assert measure_size(obj) >= 0


class _Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


_Point = collections.namedtuple("_Point", "x y")

_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(_Colour),
    st.floats(allow_nan=False),
    st.binary(max_size=12),
    st.text(max_size=8),
)


def _timestamped(values):
    return st.builds(TimestampedValue, st.integers(0, 50), values)


#: Values that may sit in a set or be a dict key.
_hashables = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.builds(_Point, inner, inner),
        st.frozensets(inner, max_size=3),
        _timestamped(inner),
    ),
    max_leaves=6,
)

_payloads = st.recursive(
    _hashables,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.sets(_hashables, max_size=3),
        st.dictionaries(_hashables, inner, max_size=3),
        st.dictionaries(_hashables, inner, max_size=3).map(
            collections.OrderedDict
        ),
        _timestamped(inner),
        st.lists(_timestamped(inner), min_size=1, max_size=4).map(RegisterArray),
    ),
    max_leaves=12,
)

codec._ensure_registry()
MESSAGE_CLASSES = sorted(codec._MESSAGE_TYPES.values(), key=lambda c: c.__name__)


class TestSizerEquivalence:
    """``measure_size`` prices exactly what the recursive model priced."""

    @given(_payloads)
    def test_payloads_match_reference_cold_and_warm(self, payload):
        expected = reference_measure_size(payload)
        assert measure_size(payload) == expected  # entry memos cold
        assert measure_size(payload) == expected  # ... and warm

    @pytest.mark.parametrize(
        "message_cls", MESSAGE_CLASSES, ids=lambda c: c.__name__
    )
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_message_class_matches_reference(self, message_cls, data):
        message = message_cls(
            **{
                field.name: data.draw(_payloads, label=field.name)
                for field in dataclasses.fields(message_cls)
            }
        )
        expected = reference_measure_size(message)
        assert measure_size(message) == expected
        assert message.wire_size() == HEADER_BYTES + expected
        assert message.wire_size() == HEADER_BYTES + expected
        # A copy shares the (now measured) entries but not the message cache.
        assert dataclasses.replace(message).wire_size() == HEADER_BYTES + expected

    def test_subclasses_fall_through_in_ladder_order(self):
        @dataclasses.dataclass(frozen=True)
        class Tagged(TimestampedValue):
            tag: str = "t"

        class Wide(RegisterArray):
            pass

        entry = Tagged(3, b"abc")
        samples = [
            _Colour.RED,
            _Point(True, "é"),
            collections.OrderedDict(a=_Colour.BLUE),
            collections.defaultdict(list, {1: [2.0]}),
            entry,  # priced as a pair, not field by field
            Wide([entry, TimestampedValue(0)]),
            Tagged,  # a class object is opaque, dataclass or not
            object(),
        ]
        for sample in samples:
            assert measure_size(sample) == reference_measure_size(sample), sample


class TestCheckerCrossValidation:
    """The specialized checker must agree with the exhaustive one."""

    @staticmethod
    def random_history(rng, n=3, ops=6):
        """Generate a random *plausible* history (valid or subtly not)."""
        history = HistoryRecorder()
        now = 0.0
        state = [0] * n
        writer_ts = [0] * n
        for _ in range(ops):
            now += rng.uniform(0.1, 2.0)
            node = rng.randrange(n)
            duration = rng.uniform(0.1, 3.0)
            if rng.random() < 0.5:
                writer_ts[node] += 1
                op = history.invoke(node, WRITE, f"v{writer_ts[node]}", now=now)
                history.respond(op, result=writer_ts[node], now=now + duration)
                state[node] = writer_ts[node]
            else:
                vc = list(state)
                if rng.random() < 0.3 and max(state) > 0:
                    # Perturb: maybe-wrong snapshot (stale or future entry)
                    k = rng.randrange(n)
                    vc[k] = max(0, vc[k] + rng.choice([-1, 1]))
                op = history.invoke(node, SNAPSHOT, now=now)
                result = SnapshotResult(
                    values=tuple(f"v{t}" if t else None for t in vc),
                    vector_clock=tuple(vc),
                )
                history.respond(op, result=result, now=now + duration)
        return history.records()

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_agreement_on_sequential_histories(self, seed):
        rng = random.Random(seed)
        records = self.random_history(rng)
        specialized = check_snapshot_history(records, n=3, check_values=False)
        exhaustive = check_exhaustive(records, n=3)
        if exhaustive:
            # Exhaustive-accepted histories must pass the specialized
            # checker (it verifies necessary conditions only).
            assert specialized.ok, specialized.summary()

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_specialized_rejection_implies_exhaustive_rejection(self, seed):
        rng = random.Random(seed)
        records = self.random_history(rng)
        specialized = check_snapshot_history(records, n=3, check_values=False)
        if not specialized.ok:
            assert not check_exhaustive(records, n=3), specialized.summary()


class TestEndToEndLinearizability:
    @given(
        algorithm=st.sampled_from(
            ["dgfr-nonblocking", "ss-nonblocking", "ss-always", "stacked"]
        ),
        seed=st.integers(min_value=0, max_value=10_000),
        loss=st.sampled_from([0.0, 0.15]),
    )
    @SIM_SETTINGS
    def test_random_concurrent_runs_linearizable(self, algorithm, seed, loss):
        config = ClusterConfig(
            n=4,
            seed=seed,
            delta=2,
            channel=ChannelConfig(
                loss_probability=loss, duplication_probability=loss / 2
            ),
        )
        cluster = SimBackend(algorithm, config)
        rng = random.Random(seed)

        async def workload():
            pending = []
            for _ in range(3):
                batch = []
                for node in range(4):
                    if rng.random() < 0.6:
                        batch.append(
                            cluster.spawn(
                                cluster.write(node, rng.randrange(100))
                            )
                        )
                    else:
                        batch.append(cluster.spawn(cluster.snapshot(node)))
                pending.extend(batch)
                await cluster.kernel.gather(batch)
            await cluster.kernel.gather(pending)

        cluster.run_until(workload(), max_events=None)
        cluster.history.validate_well_formed()
        report = check_snapshot_history(cluster.history.records(), 4)
        assert report.ok, report.summary()

    @given(
        algorithm=st.sampled_from(["ss-nonblocking", "ss-always"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @SIM_SETTINGS
    def test_recovery_from_arbitrary_corruption(self, algorithm, seed):
        cluster = SimBackend(
            algorithm, ClusterConfig(n=4, seed=seed, delta=1)
        )
        cluster.write_sync(0, "pre")
        injector = TransientFaultInjector(cluster, seed=seed)
        injector.scramble_everything()
        cluster.tracker.reset()
        cluster.run_until(cluster.tracker.wait_cycles(8), max_events=None)
        report = definition1_consistent(cluster)
        assert report.ok, report.failures
        # Post-recovery operations behave.
        cluster.history = HistoryRecorder()
        for node in range(4):
            cluster.write_sync(node, f"post{node}")
        result = cluster.snapshot_sync(0)
        assert result.values == tuple(f"post{k}" for k in range(4))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @SIM_SETTINGS
    def test_crash_minority_never_blocks(self, seed):
        rng = random.Random(seed)
        cluster = SimBackend(
            "ss-nonblocking", ClusterConfig(n=5, seed=seed)
        )
        crashed = rng.sample(range(5), 2)
        for node in crashed:
            cluster.crash(node)
        survivor = next(k for k in range(5) if k not in crashed)
        cluster.write_sync(survivor, "alive")
        result = cluster.snapshot_sync(survivor)
        assert result.values[survivor] == "alive"


class TestChannelProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        loss=st.floats(min_value=0.0, max_value=0.8),
        dup=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_channels_never_forge_messages(self, seed, loss, dup):
        """Everything delivered was sent: deliveries ⊆ sends per kind,
        and without duplication, per-kind delivery counts never exceed
        send counts."""
        from repro.analysis.trace import MessageTrace

        cluster = SimBackend(
            "ss-nonblocking",
            ClusterConfig(
                n=4,
                seed=seed,
                channel=ChannelConfig(
                    loss_probability=loss, duplication_probability=dup
                ),
            ),
        )
        trace = MessageTrace(cluster.network)
        cluster.write_sync(0, b"x", max_events=None)
        cluster.run_until(cluster.settle_cycles(2), max_events=None)
        sends = {}
        delivers = {}
        for event in trace.events:
            bucket = sends if event.event == "send" else delivers
            key = (event.src, event.dst, event.kind)
            bucket[key] = bucket.get(key, 0) + 1
        for key, delivered in delivers.items():
            assert key in sends, f"forged delivery {key}"
            if dup == 0.0:
                assert delivered <= sends[key]

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_partition_heals_cleanly(self, seed):
        """After an arbitrary partition interval, operations complete and
        the history is linearizable."""
        rng = random.Random(seed)
        cluster = SimBackend(
            "ss-nonblocking", ClusterConfig(n=5, seed=seed)
        )
        group = set(rng.sample(range(5), rng.randrange(1, 3)))
        rest = set(range(5)) - group
        cluster.network.partition(group, rest)
        survivor = next(iter(rest)) if len(rest) >= 3 else next(iter(group))
        side = rest if len(rest) >= 3 else group
        if len(side) >= 3:
            cluster.write_sync(survivor, "during", max_events=None)
        cluster.network.heal()
        cluster.write_sync(0, "after", max_events=None)
        cluster.snapshot_sync(1, max_events=None)
        report = check_snapshot_history(cluster.history.records(), 5)
        assert report.ok, report.summary()


class TestBoundedProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        max_int=st.integers(min_value=5, max_value=14),
    )
    @settings(max_examples=10, deadline=None)
    def test_bounded_variant_survives_random_churn(self, seed, max_int):
        """Across random write churn with tiny MAXINT: values survive
        every reset and the final snapshot reflects the last writes."""
        from repro.errors import ResetInProgressError

        cluster = SimBackend(
            "bounded-ss-nonblocking",
            ClusterConfig(n=4, seed=seed, max_int=max_int),
        )
        rng = random.Random(seed)
        last = {}

        async def churn():
            for round_index in range(2 * max_int):
                node = rng.randrange(4)
                while True:
                    try:
                        await cluster.write(node, (round_index, node))
                        last[node] = (round_index, node)
                        break
                    except ResetInProgressError:
                        await cluster.tracker.wait_cycles(3)
            await cluster.tracker.wait_cycles(3)
            while True:
                try:
                    return await cluster.snapshot(0)
                except ResetInProgressError:
                    await cluster.tracker.wait_cycles(3)

        result = cluster.run_until(churn(), max_events=None)
        for node, value in last.items():
            assert result.values[node] == value
