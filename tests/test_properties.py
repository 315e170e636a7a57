"""Property-based tests (hypothesis) for core invariants.

Covers: the register join-semilattice laws, channel non-forgery, checker
cross-validation (sweep vs the pairwise and exhaustive oracles),
end-to-end linearizability of randomized executions, and recovery from
arbitrary corruption.
"""

import collections
import dataclasses
import enum
import random
import time

import broken_algorithms  # noqa: F401  (registers "broken-first-ack")
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_checker import (
    check_exhaustive,
    reference_check_snapshot_history,
)
from reference_sizer import reference_measure_size

from repro import ChannelConfig, ClusterConfig, SimBackend
from repro.analysis.history import (
    READ,
    SNAPSHOT,
    WRITE,
    HistoryRecorder,
    OperationRecord,
)
from repro.analysis.invariants import definition1_consistent
from repro.analysis.linearizability import check_snapshot_history
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
            kind = rng.random()
            if kind < 0.4:
                writer_ts[node] += 1
                op = history.invoke(node, WRITE, f"v{writer_ts[node]}", now=now)
                history.respond(op, result=writer_ts[node], now=now + duration)
                state[node] = writer_ts[node]
            elif kind < 0.6:
                j = rng.randrange(n)
                ts = state[j]
                if rng.random() < 0.3 and max(state) > 0:
                    # Perturb: maybe-wrong read (stale or future entry)
                    ts = max(0, ts + rng.choice([-1, 1]))
                op = history.invoke(node, READ, j, now=now)
                history.respond(op, result=_entry_of(ts), now=now + duration)
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


def _snapshot_of(vc):
    return SnapshotResult(
        values=tuple(f"v{ts}" if ts else None for ts in vc),
        vector_clock=tuple(vc),
    )


def _entry_of(ts):
    return TimestampedValue(ts, f"v{ts}" if ts else None)


def linearizable_history(rng, n, ops, loose_ends=True):
    """A random history that *is* linearizable, on an integer time grid.

    Every operation takes effect at one instant inside its interval and
    the instants never decrease, so the order they are drawn in is a
    linearization.  Each node's operations are sequential; intervals of
    different nodes overlap freely and — the grid being coarse — often
    start or end at the same instant.  With ``loose_ends`` a node may
    finish on a pending operation, and some operations are aborted.
    """
    records = []
    state = [0] * n
    free_at = [0] * n
    stuck = set()
    instant = 0
    while len(records) < ops and len(stuck) < n:
        node = rng.choice([k for k in range(n) if k not in stuck])
        instant = max(instant, free_at[node]) + rng.randint(0, 2)
        kind = rng.random()
        record = OperationRecord(
            op_id=len(records) + 1,
            node_id=node,
            kind=WRITE if kind < 0.4 else SNAPSHOT if kind < 0.75 else READ,
            invoked_at=rng.randint(free_at[node], instant),
            responded_at=instant + rng.randint(0, 3),
        )
        fate = rng.random() if loose_ends else 1.0
        if fate < 0.03:
            record.responded_at = None
            stuck.add(node)
        elif fate < 0.08:
            record.aborted = True
        if record.kind == WRITE:
            # Pending and aborted writes take effect too: they may.
            state[node] += 1
            record.argument = f"v{state[node]}"
            if fate >= 0.08:
                record.result = state[node]
        elif record.kind == READ:
            record.argument = rng.randrange(n)
            if fate >= 0.08:
                record.result = _entry_of(state[record.argument])
        elif fate >= 0.08:
            record.result = _snapshot_of(state)
        if record.responded_at is not None:
            free_at[node] = record.responded_at
        records.append(record)
    return records


def mutate_history(rng, records):
    """Copy ``records`` with one field of one operation nudged."""
    kind = rng.choice(
        ["invoked_at", "responded_at", "vector_entry", "write_ts", "read_ts"]
    )
    eligible = [
        index
        for index, r in enumerate(records)
        if kind == "invoked_at"
        or (kind == "responded_at" and r.completed)
        or (kind == "vector_entry" and r.kind == SNAPSHOT and r.result)
        or (kind == "write_ts" and r.kind == WRITE and r.result)
        or (kind == "read_ts" and r.kind == READ and r.result)
    ]
    if not eligible:
        return records
    records = list(records)
    index = rng.choice(eligible)
    record = records[index] = dataclasses.replace(records[index])
    step = rng.choice([-3, -2, -1, 1, 2, 3])
    unit = 1 if step > 0 else -1
    if kind == "invoked_at":
        record.invoked_at = max(0, record.invoked_at + step)
        if record.completed:
            record.invoked_at = min(record.invoked_at, record.responded_at)
    elif kind == "responded_at":
        record.responded_at = max(record.invoked_at, record.responded_at + step)
    elif kind == "write_ts":
        record.result = max(1, record.result + unit)
    elif kind == "read_ts":
        record.result = _entry_of(max(0, record.result.ts + unit))
    else:
        vc = list(record.result.vector_clock)
        k = rng.randrange(len(vc))
        vc[k] = max(0, vc[k] + unit)
        record.result = _snapshot_of(vc)
    return records


_HISTORY_KEYWORDS = (
    "not increasing",
    "incomparable",
    "older vector",
    "older entry",
    "misses write",
    "saw future write",
    "cites write",
)


def _conditions_hit(violations, keywords):
    return {k for k in keywords if any(k in v for v in violations)}


class TestSweepMatchesPairwiseOracle:
    """The sort-and-sweep checker reaches the pairwise oracle's verdicts.

    Violation *counts* differ on purpose (the sweep reports one per
    offending operation, the oracle one per pair), so the comparison is
    the verdict and which conditions were violated.
    """

    @staticmethod
    def assert_same_verdict(records, n):
        sweep = check_snapshot_history(records, n=n)
        oracle = reference_check_snapshot_history(records, n=n)
        assert sweep.ok == oracle.ok, (sweep.summary(), oracle.summary())
        assert _conditions_hit(sweep.violations, _HISTORY_KEYWORDS) == (
            _conditions_hit(oracle.violations, _HISTORY_KEYWORDS)
        ), (sweep.summary(), oracle.summary())
        return sweep.ok

    @given(
        seed=st.integers(min_value=0, max_value=1_000_000),
        n=st.integers(min_value=1, max_value=5),
        ops=st.integers(min_value=1, max_value=40),
        mutations=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=400, deadline=None)
    def test_valid_and_mutated_histories(self, seed, n, ops, mutations):
        rng = random.Random(seed)
        records = linearizable_history(rng, n, ops)
        assert self.assert_same_verdict(records, n), "generator is broken"
        for _ in range(mutations):
            records = mutate_history(rng, records)
            self.assert_same_verdict(records, n)

    def test_broken_algorithm_histories(self):
        """Real non-linearizable runs: the first-ack-only snapshot reads
        a stale node on some schedules and misses a completed write."""
        verdicts = set()
        for seed in range(20):
            cluster = SimBackend(
                "broken-first-ack", ClusterConfig(n=5, seed=seed), start=False
            )
            cluster.network.channel(0, 3).blocked = True
            cluster.network.channel(0, 4).blocked = True

            async def scenario():
                for round_ in range(4):
                    writes = [
                        cluster.spawn(cluster.write(0, f"a{round_}")),
                        cluster.spawn(cluster.write(1, f"b{round_}")),
                    ]
                    for task in writes:
                        await task
                    await cluster.kernel.sleep(0.5)
                    mixed = [
                        cluster.spawn(cluster.snapshot(4)),
                        cluster.spawn(cluster.snapshot(3)),
                        cluster.spawn(cluster.write(2, f"c{round_}")),
                    ]
                    for task in mixed:
                        await task

            cluster.run_until(scenario(), max_events=500_000)
            verdicts.add(
                self.assert_same_verdict(cluster.history.records(), 5)
            )
        assert verdicts == {True, False}  # the scenario does bite

    @pytest.mark.parametrize(
        "algorithm, holder, linearizable",
        [
            ("broken-local-read", 1, False),
            ("broken-no-write-back", 3, False),
            ("dgfr-nonblocking", 1, True),
            ("dgfr-nonblocking", 3, True),
        ],
    )
    def test_broken_read_histories(self, algorithm, holder, linearizable):
        """A write by node 0 reaches ``holder`` only; node 1 reads
        register 0, then node 2 — cut off from writer, reader and holder
        — takes a snapshot.  A read that returned the new entry without
        leaving it at a majority is followed by an older vector."""
        cluster = SimBackend(algorithm, ClusterConfig(n=7, seed=22), start=False)
        blocked = [(0, k) for k in range(1, 7) if k != holder]
        blocked += [(1, 6), (2, 0), (2, 1), (2, 3)]
        for src, dst in blocked:
            cluster.network.channel(src, dst).blocked = True

        async def scenario():
            cluster.spawn(cluster.write(0, "new"))  # never completes
            await cluster.kernel.sleep(5.0)
            entry = await cluster.read(1, 0)
            assert (entry.ts, entry.value) == (1, "new")
            await cluster.kernel.sleep(1.0)  # strictly after, not concurrent
            return await cluster.snapshot(2)

        snap = cluster.run_until(scenario(), max_events=200_000)
        assert snap.vector_clock[0] == (1 if linearizable else 0)
        records = cluster.history.records()
        assert self.assert_same_verdict(records, 7) == linearizable
        if not linearizable:
            assert "older vector" in check_snapshot_history(records, 7).summary()

    @pytest.mark.parametrize(
        "algorithm, linearizable",
        [("broken-echo-trust", False), ("dgfr-nonblocking", True)],
    )
    def test_corrupted_elided_ack_histories(self, algorithm, linearizable):
        """Pinned schedule: node 0 writes "old" then "new", and the second
        WRITE never reaches node 1.  Node 1 reads register 0, and every
        READack of its first wave loses its entry in flight — ``(ts=2,
        entry=None)`` against a request at ts 1.  The reader must wait
        for the answers to its retransmission; one that trusts the echo
        returns "old" under the timestamp of "new"."""
        from repro.core.base import ReadAckMessage

        cluster = SimBackend(algorithm, ClusterConfig(n=5, seed=23))
        cluster.write_sync(0, "old")
        cluster.run_for(3.0)  # the first WRITE is everywhere
        cluster.network.channel(0, 1).blocked = True
        cluster.write_sync(0, "new")
        cluster.network.channel(0, 1).blocked = False
        assert cluster.node(1).reg[0].value == "old"

        def read_packets():
            return cluster.metrics.snapshot().messages_by_kind.get("READ", 0)

        def strip(message):
            if isinstance(message, ReadAckMessage):
                return dataclasses.replace(message, entry=None)
            return message

        task = cluster.spawn(cluster.read(1, 0))
        while read_packets() <= 4 and not task.done():
            for server in (0, 2, 3, 4):
                cluster.network.channel(server, 1).corrupt_in_flight(strip)
            cluster.run_for(0.25)
        entry = cluster.run_until(task)
        assert (entry.ts, entry.value) == (2, "new" if linearizable else "old")
        records = cluster.history.records()
        assert self.assert_same_verdict(records, 5) == linearizable
        if not linearizable:
            assert "!= written 'new'" in check_snapshot_history(records, 5).summary()

    def test_sweep_is_not_quadratic(self):
        """40 000 operations on 4 nodes, and a fabric's 20 000 on 300
        keys with a few cuts: minutes pairwise (12 s for the first
        10 000, and quadratic), 0.1 s swept.  The limit is fifty times
        the expected cost — a guard against the pair loops coming back,
        not a stopwatch race."""
        rng = random.Random(16)
        cluster = linearizable_history(rng, 4, 40_000, loose_ends=False)
        fabric = composed_records(rng, 20_000, keys=300, cut_share=0.0005)
        assert len(cluster) == 40_000 and len(fabric) == 20_000
        assert sum(r.kind == SNAPSHOT for r in fabric) >= 5
        for records, n in ((cluster, 4), (fabric, 300)):
            stale = mutate_stale_snapshot(records)
            started = time.perf_counter()
            report = check_snapshot_history(records, n=n)
            rejected = check_snapshot_history(stale, n=n)
            assert time.perf_counter() - started < 5.0
            assert report.ok, report.summary()
            assert "misses write" in rejected.summary()

    # -- a fabric's key history ----------------------------------------

    @given(
        seed=st.integers(min_value=0, max_value=1_000_000),
        ops=st.integers(min_value=1, max_value=40),
        mutations=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_valid_and_mutated_composed_cuts(self, seed, ops, mutations):
        """Keyed writes, keyed reads and composed cuts, keys as
        registers: the one sweep and the pairwise oracle agree."""
        rng = random.Random(seed)
        records = composed_records(rng, ops)
        assert self.assert_same_verdict(records, _KEYS), "generator is broken"
        for _ in range(mutations):
            records = mutate_history(rng, records)
            self.assert_same_verdict(records, _KEYS)


def mutate_stale_snapshot(records):
    """Copy ``records`` with the last snapshot that saw anything made to
    forget one write that responded before it was invoked."""
    records = list(records)
    for index in range(len(records) - 1, -1, -1):
        record = records[index]
        if record.kind != SNAPSHOT:
            continue
        for write in records[:index]:
            if (
                write.kind == WRITE
                and write.precedes(record)
                and write.result == record.result.vector_clock[write.node_id]
            ):
                vc = list(record.result.vector_clock)
                vc[write.node_id] -= 1
                records[index] = dataclasses.replace(
                    record, result=_snapshot_of(vc)
                )
                return records
    raise AssertionError("no snapshot follows a write it shows")


_KEYS = 6


def composed_records(rng, ops, keys=_KEYS, cut_share=0.25):
    """A linearizable fabric history, keys as registers, as
    :attr:`ShardedFabric.history <repro.shard.fabric.ShardedFabric.history>`
    records it: keyed writes, keyed reads and composed cuts.

    As in :func:`linearizable_history`, every operation takes effect at
    one instant inside its interval and the instants never decrease.
    Unlike there, one key's writes overlap freely (a caller pipelines
    them), and each takes its seq at invocation, as ``submit_write``
    does.  A write that takes effect after a larger seq of its key
    leaves the key as it was, as the fabric's slot map keeps the
    highest seq.  A few writes stay pending; they take effect too.
    """
    effects = []
    instant = 0
    for _ in range(ops):
        instant += rng.randint(0, 2)
        draw = rng.random()
        kind = SNAPSHOT if draw < cut_share else WRITE if draw < 0.7 else READ
        key = rng.randrange(keys)
        effects.append(
            OperationRecord(
                op_id=0,
                node_id=0 if kind == SNAPSHOT else key,
                kind=kind,
                argument=key if kind == READ else None,
                invoked_at=max(0, instant - rng.randint(0, 3)),
                responded_at=instant + rng.randint(0, 3),
            )
        )
    records = sorted(effects, key=lambda record: record.invoked_at)
    seqs = [0] * keys
    for op_id, record in enumerate(records, 1):
        record.op_id = op_id
        if record.kind == WRITE:
            seqs[record.node_id] += 1
            record.argument = f"v{seqs[record.node_id]}"
            record.result = seqs[record.node_id]
    state = [0] * keys
    for record in effects:
        if record.kind == WRITE:
            state[record.node_id] = max(state[record.node_id], record.result)
            if rng.random() < 0.03:
                record.responded_at = record.result = None
        elif record.kind == READ:
            record.result = _entry_of(state[record.argument])
        else:
            record.result = _snapshot_of(state)
    return records


def concurrent_run(algorithm, seed, loss):
    """Three batches of writes and snapshots, one per node each, at n = 4.

    At most 12 operations, so the exhaustive checker can judge the run.
    """
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
                        cluster.spawn(cluster.write(node, rng.randrange(100)))
                    )
                else:
                    batch.append(cluster.spawn(cluster.snapshot(node)))
            pending.extend(batch)
            await cluster.kernel.gather(batch)
        await cluster.kernel.gather(pending)

    cluster.run_until(workload(), max_events=None)
    cluster.history.validate_well_formed()
    return cluster.history.records()


class TestEndToEndLinearizability:
    @given(
        algorithm=st.sampled_from(
            [
                "dgfr-nonblocking",
                "ss-nonblocking",
                "ss-always",
                "dgfr-always",
                "bounded-ss-nonblocking",
                "bounded-ss-always",
                "stacked",
            ]
        ),
        seed=st.integers(min_value=0, max_value=10_000),
        loss=st.sampled_from([0.0, 0.15]),
    )
    @settings(SIM_SETTINGS, max_examples=100)  # about 14 runs per variant
    def test_random_concurrent_runs_linearizable(self, algorithm, seed, loss):
        """The sweep's necessary conditions hold, and a linearization exists.

        The sweep checks necessary conditions only (docs/verification.md);
        the exhaustive search finds an order of the whole history or
        proves there is none.
        """
        records = concurrent_run(algorithm, seed, loss)
        report = check_snapshot_history(records, 4)
        assert report.ok, report.summary()
        assert check_exhaustive(records, n=4), records

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
        self.churn(seed, max_int)

    def test_bounded_churn_pinned_counterexample(self):
        """Regression: node 2's write ``(11, 2)`` is invoked just before
        its node enters the reset, and used to run on — and be
        acknowledged — after every vote had been cast without it.  An
        epoch transition now cancels in-flight operations at once."""
        self.churn(266, 6)

    @staticmethod
    def churn(seed, max_int):
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
