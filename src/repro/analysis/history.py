"""Operation-history recording for linearizability checking.

Every operation the harness invokes is recorded as an invocation event
(with the simulated time) and a response event.  The resulting history —
a set of real-time intervals with arguments and results — is exactly the
object the linearizability checkers in
:mod:`repro.analysis.linearizability` consume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Any

from repro.errors import HistoryError

__all__ = ["OperationRecord", "HistoryRecorder", "WRITE", "SNAPSHOT", "READ"]

WRITE = "write"
SNAPSHOT = "snapshot"
READ = "read"


@dataclass(slots=True)
class OperationRecord:
    """One operation's lifetime in the history.

    Attributes
    ----------
    op_id:
        Unique id assigned at invocation.
    node_id:
        The invoking node.
    kind:
        ``"write"``, ``"snapshot"`` or ``"read"``.
    argument:
        The written value (writes) or the register index (reads).
    invoked_at / responded_at:
        Simulated times; ``responded_at`` is ``None`` while pending.
    result:
        The write's timestamp index, the snapshot's
        :class:`~repro.core.base.SnapshotResult`, or the read's
        :class:`~repro.core.register.TimestampedValue`.
    aborted:
        True when the operation failed without taking effect visibly
        (e.g. rejected by a global reset); aborted operations are ignored
        by the linearizability checkers.
    meta:
        Free-form diagnostics (message counts, rounds, …); ``None`` until
        :meth:`HistoryRecorder.annotate` writes some.
    """

    op_id: int
    node_id: int
    kind: str
    argument: Any = None
    invoked_at: float = 0.0
    responded_at: float | None = None
    result: Any = None
    aborted: bool = False
    meta: dict[str, Any] | None = None

    @property
    def completed(self) -> bool:
        """Whether the operation has responded."""
        return self.responded_at is not None

    def precedes(self, other: "OperationRecord") -> bool:
        """Real-time order: this op responded before the other was invoked."""
        return (
            self.responded_at is not None
            and self.responded_at < other.invoked_at
        )

    def check_instants(self) -> None:
        """Raise :class:`HistoryError` if the response precedes the invocation."""
        if self.responded_at is not None and self.responded_at < self.invoked_at:
            raise HistoryError(
                f"operation {self.op_id} responded at {self.responded_at}, "
                f"before its invocation at {self.invoked_at}"
            )


class HistoryRecorder:
    """Collects operation records during a run."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._records: dict[int, OperationRecord] = {}

    def invoke(
        self, node_id: int, kind: str, argument: Any = None, now: float = 0.0
    ) -> int:
        """Record an invocation; returns the operation id."""
        if kind not in (WRITE, SNAPSHOT, READ):
            raise HistoryError(f"unknown operation kind {kind!r}")
        op_id = next(self._ids)
        self._records[op_id] = OperationRecord(
            op_id=op_id,
            node_id=node_id,
            kind=kind,
            argument=argument,
            invoked_at=now,
        )
        return op_id

    def respond(self, op_id: int, result: Any = None, now: float = 0.0) -> None:
        """Record an operation's response."""
        record = self._records.get(op_id)
        if record is None:
            raise HistoryError(f"response for unknown operation {op_id}")
        if record.completed:
            raise HistoryError(f"operation {op_id} already responded")
        record.responded_at = now
        record.result = result

    def abort(self, op_id: int, now: float = 0.0) -> None:
        """Mark an operation as aborted (e.g. by a global reset)."""
        record = self._records.get(op_id)
        if record is None:
            raise HistoryError(f"abort for unknown operation {op_id}")
        if record.completed:
            raise HistoryError(f"operation {op_id} already responded")
        record.responded_at = now
        record.aborted = True

    def annotate(self, op_id: int, **meta: Any) -> None:
        """Attach diagnostics to an operation record."""
        record = self._records.get(op_id)
        if record is None:
            raise HistoryError(f"annotation for unknown operation {op_id}")
        if record.meta is None:
            record.meta = {}
        record.meta.update(meta)

    # -- views ---------------------------------------------------------------

    def records(self, completed_only: bool = False) -> list[OperationRecord]:
        """All records, invocation-ordered.

        Op ids come from a monotone counter and the dict is
        insertion-ordered, so its values already are in op-id order.
        """
        if completed_only:
            return [r for r in self._records.values() if r.completed]
        return list(self._records.values())

    def writes(self, completed_only: bool = False) -> list[OperationRecord]:
        """The write records."""
        return [r for r in self.records(completed_only) if r.kind == WRITE]

    def snapshots(self, completed_only: bool = False) -> list[OperationRecord]:
        """The snapshot records."""
        return [r for r in self.records(completed_only) if r.kind == SNAPSHOT]

    def pending(self) -> list[OperationRecord]:
        """Operations that never responded (e.g. the invoker crashed)."""
        return [r for r in self.records() if not r.completed]

    def __len__(self) -> int:
        return len(self._records)

    def validate_well_formed(self, sequential: bool = True) -> None:
        """Check structural sanity: per-node operations are sequential.

        The model assumes one sequential client per node; overlapping
        operations from the same node indicate harness misuse.  Pass
        ``sequential=False`` for algorithms that explicitly admit
        concurrent local clients (``CONCURRENT_CLIENTS``, the amortized
        variant) — overlap is then the intended workload shape and only
        the per-record check (no response before its invocation) applies.
        """
        last_of_node: dict[int, OperationRecord] = {}
        for record in sorted(
            self._records.values(), key=attrgetter("invoked_at")
        ):
            record.check_instants()
            if not sequential:
                continue
            earlier = last_of_node.get(record.node_id)
            last_of_node[record.node_id] = record
            if earlier is None:
                continue
            if earlier.responded_at is None:
                raise HistoryError(
                    f"node {record.node_id}: operation {earlier.op_id} never "
                    f"responded but {record.op_id} was invoked after it"
                )
            if earlier.responded_at > record.invoked_at:
                raise HistoryError(
                    f"node {record.node_id}: operations {earlier.op_id} and "
                    f"{record.op_id} overlap; clients must be sequential"
                )
