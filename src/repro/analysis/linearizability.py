"""Linearizability checking for SWMR snapshot-object histories.

:func:`check_snapshot_history` is a **specialized checker** exploiting
the SWMR snapshot semantics.  Each write by node ``i`` carries a unique,
per-writer-increasing timestamp, so a snapshot result is fully described
by its vector clock.  The checker verifies the classic conditions:
per-writer timestamp monotonicity, total ⪯-order (comparability) of
snapshot vectors, real-time order among snapshots, real-time order
between writes and snapshots in both directions, and value agreement.
A single-register ``read`` of node ``j`` returning timestamp ``t`` is a
one-entry snapshot: it obeys the same real-time conditions on entry
``j`` alone and takes no part in the ⪯-order.

The real-time conditions are checked by one **sort-and-sweep** over
invocation and response instants.  Each of them only ever needs the
*largest* timestamp that responded before an invocation, so the sweep
carries two frontiers — the per-writer maximum over responded writes
and the component-wise maximum over responded snapshot vectors and
read entries — and compares each operation against them once, at its
invocation: O(m log m + m·n) for m operations on n nodes
(``docs/verification.md``
argues why the frontiers lose nothing, and states what the conditions
do not cover).  The pairwise formulation it replaced and
the exhaustive Wing & Gill search survive as test oracles in
``tests/reference_checker.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter, lt
from typing import Iterable, Sequence

from repro.analysis.history import READ, SNAPSHOT, WRITE, OperationRecord
from repro.errors import HistoryError

__all__ = ["CheckReport", "check_snapshot_history"]


@dataclass(slots=True)
class CheckReport:
    """Outcome of a linearizability check."""

    ok: bool = True
    violations: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        """Record one violation."""
        self.ok = False
        self.violations.append(message)

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        """Human-readable verdict."""
        if self.ok:
            return "linearizable"
        head = "\n  ".join(self.violations[:10])
        extra = len(self.violations) - 10
        tail = f"\n  … and {extra} more" if extra > 0 else ""
        return f"NOT linearizable ({len(self.violations)} violations):\n  {head}{tail}"


def _vc_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def check_snapshot_history(
    records: Iterable[OperationRecord],
    n: int,
    check_values: bool = True,
    allow_rebased_init: bool = False,
) -> CheckReport:
    """Check a completed SWMR snapshot-object history for linearizability.

    Parameters
    ----------
    records:
        Operation records; pending operations are ignored except that a
        pending write's value may legitimately appear in snapshots.
    n:
        Number of nodes (length of snapshot vectors).
    check_values:
        Also verify that snapshot values equal the written values for
        matching timestamps (disable when values are scrambled on purpose,
        e.g. right after transient-fault injection).
    allow_rebased_init:
        Accept entries with ts 0 carrying non-⊥ values.  The bounded
        variants' global reset rebases every index to 0 while register
        *values* survive, so a history window opened after a reset
        legitimately observes survivor values at ts 0.  The history must
        still not span the reset itself (per-writer timestamps restart).

    Raises :class:`~repro.errors.HistoryError` on records that are not a
    history at all: a response before its invocation, a write by a node
    outside ``range(n)``, a completed snapshot without a result or with
    a vector of the wrong length, a completed read without a result or
    of a register outside ``range(n)``.
    """
    report = CheckReport()
    # Aborted operations (e.g. rejected by a global reset) impose no
    # constraints: an aborted write is treated like a pending one (it may
    # or may not have taken effect); an aborted snapshot returned nothing.
    # A write without a result carries no timestamp evidence either.
    ops: list[OperationRecord] = []
    snapshots: list[OperationRecord] = []
    reads: list[OperationRecord] = []
    for record in records:
        record.check_instants()
        if record.aborted:
            continue
        if record.kind == WRITE and record.result is not None:
            if not 0 <= record.node_id < n:
                raise HistoryError(
                    f"write op {record.op_id}: node {record.node_id} is "
                    f"outside 0..{n - 1}"
                )
            ops.append(record)
        elif record.kind == SNAPSHOT and record.completed:
            # 2. Snapshot structural sanity.
            if record.result is None:
                raise HistoryError(
                    f"snapshot op {record.op_id} completed without a result"
                )
            vc = record.result.vector_clock
            if len(vc) != n:
                raise HistoryError(
                    f"snapshot op {record.op_id}: vector of length {len(vc)}, "
                    f"expected {n}"
                )
            snapshots.append(record)
            ops.append(record)
        elif record.kind == READ and record.completed:
            if record.result is None:
                raise HistoryError(
                    f"read op {record.op_id} completed without a result"
                )
            if not 0 <= record.argument < n:
                raise HistoryError(
                    f"read op {record.op_id}: register {record.argument} "
                    f"is outside 0..{n - 1}"
                )
            reads.append(record)
            ops.append(record)

    # 3. Snapshots must be totally ordered by ⪯ (atomicity).
    ordered = sorted(snapshots, key=lambda s: (sum(s.result.vector_clock),))
    for earlier, later in zip(ordered, ordered[1:]):
        if not _vc_leq(earlier.result.vector_clock, later.result.vector_clock):
            report.fail(
                f"snapshots {earlier.op_id} and {later.op_id} are "
                f"⪯-incomparable: {earlier.result.vector_clock} vs "
                f"{later.result.vector_clock}"
            )

    # The sweep: visit invocations in time order, first folding into the
    # frontiers every response *strictly* before the invocation at hand
    # (so at an equal instant the invocation goes first and the two
    # operations count as concurrent, exactly ``OperationRecord.precedes``).
    #   written[i]  — largest ts over responded writes by node i
    #   scanned[i]  — largest entry i over responded snapshots' vectors
    #                 and responded reads of register i
    # with the operation holding each maximum kept as the witness.
    written = [0] * n
    scanned = [0] * n
    written_by: list[OperationRecord | None] = [None] * n
    scanned_by: list[OperationRecord | None] = [None] * n
    last_ts = [0] * n
    write_table: dict[tuple[int, int], OperationRecord] = {}
    responses = sorted(
        (op for op in ops if op.responded_at is not None),
        key=attrgetter("responded_at"),
    )
    responded, total = 0, len(responses)
    for op in sorted(ops, key=attrgetter("invoked_at")):
        invoked_at = op.invoked_at
        while responded < total and responses[responded].responded_at < invoked_at:
            done = responses[responded]
            responded += 1
            if done.kind == WRITE:
                if done.result > written[done.node_id]:
                    written[done.node_id] = done.result
                    written_by[done.node_id] = done
            elif done.kind == READ:
                if done.result.ts > scanned[done.argument]:
                    scanned[done.argument] = done.result.ts
                    scanned_by[done.argument] = done
            else:
                for node_id, ts in enumerate(done.result.vector_clock):
                    if ts > scanned[node_id]:
                        scanned[node_id] = ts
                        scanned_by[node_id] = done

        if op.kind == WRITE:
            node_id, ts = op.node_id, op.result
            # 1. Per-writer timestamps: unique and increasing in
            #    invocation order.
            if ts <= last_ts[node_id]:
                report.fail(
                    f"write ts not increasing at node {node_id}: "
                    f"{ts} after {last_ts[node_id]} (op {op.op_id})"
                )
            else:
                last_ts[node_id] = ts
            write_table[(node_id, ts)] = op
            # 5b. No snapshot or read that already responded may contain it.
            seer = scanned_by[node_id]
            if seer is not None and scanned[node_id] >= ts:
                report.fail(
                    f"{seer.kind} {seer.op_id} saw future write {op.op_id} "
                    f"(node {node_id}, ts {ts}) invoked after it responded"
                )
            continue

        if op.kind == READ:
            # 4 and 5a on the one entry a read returns.
            node_id, seen = op.argument, op.result.ts
            if seen < written[node_id]:
                missed = written_by[node_id]
                report.fail(
                    f"read {op.op_id} misses write {missed.op_id} "
                    f"(node {node_id}, ts {missed.result}) that preceded "
                    f"it; saw ts {seen}"
                )
            if seen < scanned[node_id]:
                report.fail(
                    f"read {op.op_id} (after {scanned_by[node_id].op_id} in "
                    f"real time) returned an older entry"
                )
            continue

        vc = op.result.vector_clock
        # 5a. Every write that already responded is in the vector.
        if any(map(lt, vc, written)):
            for node_id, seen in enumerate(vc):
                missed = written_by[node_id]
                if missed is not None and seen < missed.result:
                    report.fail(
                        f"snapshot {op.op_id} misses write {missed.op_id} "
                        f"(node {node_id}, ts {missed.result}) that preceded "
                        f"it; saw ts {seen}"
                    )
        # 4. Real-time order among snapshots: not below any vector that
        #    already responded.
        if any(map(lt, vc, scanned)):
            for node_id, seen in enumerate(vc):
                newer = scanned_by[node_id]
                if newer is not None and seen < scanned[node_id]:
                    report.fail(
                        f"snapshot {op.op_id} (after {newer.op_id} in real "
                        f"time) returned an older vector"
                    )
                    break

    # 6. Value agreement: returned values match the writes they cite.
    #    A snapshot cites one entry per node, a read the one it returned.
    #    Two plain loops: a history without reads pays nothing for them,
    #    and neither loop allocates per operation.
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
