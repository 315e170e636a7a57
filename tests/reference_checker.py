"""The pairwise checker, kept as the oracle for the sort-and-sweep one.

Until the sweep replaced it this was
:func:`repro.analysis.linearizability.check_snapshot_history`: every
real-time condition is a double loop over operation pairs, which is what
makes it a trustworthy reference — nothing is summarised into a
frontier — and what made it quadratic.  The property tests require the
production checker to reach the same verdict on valid, mutated and
broken-algorithm histories, a fabric's key history among them.
:func:`check_exhaustive`, the Wing & Gill search straight from the
sequential specification, lives here too: it cross-validates both on
small histories.  Not a ``test_*`` module, so
pytest never collects it (see ``broken_algorithms.py`` for why helpers
live beside the tests).
"""

from functools import lru_cache
from typing import Iterable, Sequence

from repro.analysis.history import READ, SNAPSHOT, WRITE, OperationRecord
from repro.analysis.linearizability import CheckReport
from repro.errors import HistoryError


def _vc_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def reference_check_snapshot_history(
    records: Iterable[OperationRecord],
    n: int,
    check_values: bool = True,
    allow_rebased_init: bool = False,
) -> CheckReport:
    """The pairwise checker: same contract as ``check_snapshot_history``.

    Conditions 4 and 5 compare every snapshot with every snapshot and
    every write with every snapshot and report one violation per pair.
    A read of register ``j`` takes part in both as the one-entry vector
    it is: pairwise against snapshots, other reads of ``j`` and writes
    by ``j``.
    """
    report = CheckReport()
    records = list(records)
    # Aborted operations (e.g. rejected by a global reset) impose no
    # constraints: an aborted write is treated like a pending one (it may
    # or may not have taken effect); an aborted snapshot returned nothing.
    writes = [r for r in records if r.kind == WRITE and not r.aborted]
    snapshots = [
        r
        for r in records
        if r.kind == SNAPSHOT and r.completed and not r.aborted
    ]
    reads = [
        r for r in records if r.kind == READ and r.completed and not r.aborted
    ]

    def entry(op: OperationRecord, j: int) -> int:
        """The timestamp ``op`` (a snapshot, or a read of ``j``) saw for j."""
        return op.result.ts if op.kind == READ else op.result.vector_clock[j]

    # 1. Per-writer timestamps: unique and increasing in invocation order.
    writes_by_node: dict[int, list[OperationRecord]] = {}
    for write in writes:
        writes_by_node.setdefault(write.node_id, []).append(write)
    write_table: dict[tuple[int, int], OperationRecord] = {}
    for node_id, node_writes in writes_by_node.items():
        node_writes.sort(key=lambda r: r.invoked_at)
        previous_ts = 0
        for write in node_writes:
            if write.result is None:
                continue  # pending write: no timestamp evidence
            ts = write.result
            if ts <= previous_ts:
                report.fail(
                    f"write ts not increasing at node {node_id}: "
                    f"{ts} after {previous_ts} (op {write.op_id})"
                )
            previous_ts = max(previous_ts, ts)
            write_table[(node_id, ts)] = write

    # 2. Snapshot structural sanity.
    for snap in snapshots:
        vc = snap.result.vector_clock
        if len(vc) != n:
            raise HistoryError(
                f"snapshot op {snap.op_id}: vector of length {len(vc)}, "
                f"expected {n}"
            )

    # 3. Snapshots must be totally ordered by ⪯ (atomicity).
    ordered = sorted(snapshots, key=lambda s: (sum(s.result.vector_clock),))
    for earlier, later in zip(ordered, ordered[1:]):
        if not _vc_leq(earlier.result.vector_clock, later.result.vector_clock):
            report.fail(
                f"snapshots {earlier.op_id} and {later.op_id} are "
                f"⪯-incomparable: {earlier.result.vector_clock} vs "
                f"{later.result.vector_clock}"
            )

    # 4. Real-time order among snapshots.
    for first in snapshots:
        for second in snapshots:
            if first.precedes(second) and not _vc_leq(
                first.result.vector_clock, second.result.vector_clock
            ):
                report.fail(
                    f"snapshot {second.op_id} (after {first.op_id} in real "
                    f"time) returned an older vector"
                )

    # 4r. Real-time order between reads and snapshots/reads, on the
    #     read's one entry.
    for read in reads:
        j = read.argument
        for other in snapshots + [r for r in reads if r.argument == j]:
            if other.precedes(read) and read.result.ts < entry(other, j):
                report.fail(
                    f"read {read.op_id} (after {other.op_id} in real time) "
                    f"returned an older entry"
                )
            if (
                other.kind == SNAPSHOT
                and read.precedes(other)
                and entry(other, j) < read.result.ts
            ):
                report.fail(
                    f"snapshot {other.op_id} (after {read.op_id} in real "
                    f"time) returned an older vector"
                )

    # 5. Real-time order between writes and snapshots.
    for write in writes:
        if write.result is None:
            continue
        ts = write.result
        node_id = write.node_id
        for snap in snapshots:
            vc = snap.result.vector_clock
            if write.precedes(snap) and vc[node_id] < ts:
                report.fail(
                    f"snapshot {snap.op_id} misses write {write.op_id} "
                    f"(node {node_id}, ts {ts}) that preceded it; "
                    f"saw ts {vc[node_id]}"
                )
            if snap.precedes(write) and vc[node_id] >= ts:
                report.fail(
                    f"snapshot {snap.op_id} saw future write {write.op_id} "
                    f"(node {node_id}, ts {ts}) invoked after it responded"
                )
        for read in reads:
            if read.argument != node_id:
                continue
            if write.precedes(read) and read.result.ts < ts:
                report.fail(
                    f"read {read.op_id} misses write {write.op_id} "
                    f"(node {node_id}, ts {ts}) that preceded it; "
                    f"saw ts {read.result.ts}"
                )
            if read.precedes(write) and read.result.ts >= ts:
                report.fail(
                    f"read {read.op_id} saw future write {write.op_id} "
                    f"(node {node_id}, ts {ts}) invoked after it responded"
                )

    # 6. Value agreement: returned values match the writes they cite.
    if check_values:
        for snap in snapshots:
            vc = snap.result.vector_clock
            values = snap.result.values
            for node_id, ts in enumerate(vc):
                if ts == 0:
                    if values[node_id] is not None and not allow_rebased_init:
                        report.fail(
                            f"snapshot {snap.op_id}: entry {node_id} has "
                            f"ts 0 but non-⊥ value {values[node_id]!r}"
                        )
                    continue
                write = write_table.get((node_id, ts))
                if write is not None and values[node_id] != write.argument:
                    report.fail(
                        f"snapshot {snap.op_id}: entry {node_id} cites write "
                        f"ts {ts} but value {values[node_id]!r} != written "
                        f"{write.argument!r}"
                    )
        for read in reads:
            node_id, ts, value = read.argument, read.result.ts, read.result.value
            if ts == 0:
                if value is not None and not allow_rebased_init:
                    report.fail(
                        f"read {read.op_id}: entry {node_id} has "
                        f"ts 0 but non-⊥ value {value!r}"
                    )
                continue
            write = write_table.get((node_id, ts))
            if write is not None and value != write.argument:
                report.fail(
                    f"read {read.op_id}: entry {node_id} cites write "
                    f"ts {ts} but value {value!r} != written "
                    f"{write.argument!r}"
                )

    return report


def check_exhaustive(records: Iterable[OperationRecord], n: int) -> bool:
    """Exhaustive (Wing & Gill) linearizability check for small histories.

    Searches for a permutation of the completed operations that respects
    real-time order and the sequential snapshot-object specification
    (every snapshot returns exactly the register state produced by the
    writes linearized before it; a read of ``j`` returning ``t``
    linearizes between write ``t`` and write ``t + 1`` of node ``j``,
    i.e. where entry ``j`` of that state is ``t``).  Memoized on the
    set of linearized operations; practical up to roughly a dozen
    operations.
    """
    ops = [r for r in records if r.completed and not r.aborted]
    total = len(ops)
    if total > 20:
        raise HistoryError(
            f"exhaustive checker given {total} operations; it is meant for "
            "small cross-validation histories (<= 20)"
        )
    # Precompute the real-time precedence relation as bitmasks.
    must_precede = [0] * total  # bit j set => ops[j] must come before ops[i]
    for i, later in enumerate(ops):
        for j, earlier in enumerate(ops):
            if i != j and earlier.precedes(later):
                must_precede[i] |= 1 << j

    # Per-writer order: writes by the same node in ts order (SWMR).
    write_indices: dict[int, list[int]] = {}
    for index, op in enumerate(ops):
        if op.kind == WRITE:
            write_indices.setdefault(op.node_id, []).append(index)
    for indices in write_indices.values():
        indices.sort(key=lambda idx: ops[idx].result)
        for previous, current in zip(indices, indices[1:]):
            must_precede[current] |= 1 << previous

    full_mask = (1 << total) - 1

    def register_state(mask: int) -> tuple[int, ...]:
        """Vector clock implied by the writes linearized in ``mask``."""
        state = [0] * n
        for index in range(total):
            if mask & (1 << index) and ops[index].kind == WRITE:
                op = ops[index]
                state[op.node_id] = max(state[op.node_id], op.result)
        return tuple(state)

    @lru_cache(maxsize=None)
    def search(mask: int) -> bool:
        if mask == full_mask:
            return True
        state = register_state(mask)
        for index in range(total):
            bit = 1 << index
            if mask & bit:
                continue
            if must_precede[index] & ~mask:
                continue  # some predecessor not yet linearized
            op = ops[index]
            if op.kind == SNAPSHOT:
                expected = list(state)
                if tuple(op.result.vector_clock) != tuple(expected):
                    continue
            if op.kind == READ and op.result.ts != state[op.argument]:
                continue
            if search(mask | bit):
                return True
        return False

    try:
        return search(0)
    finally:
        search.cache_clear()
