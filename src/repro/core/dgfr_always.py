"""Delporte-Gallet et al.'s always-terminating algorithm (Algorithm 2).

The non-self-stabilizing baseline that guarantees termination of *both*
write and snapshot operations regardless of invocation patterns.  The
mechanism is a job-stealing scheme: a node starting a snapshot reliably
broadcasts a ``SNAP(i, sns)`` task to every node; every node serves the
oldest announced task through ``baseSnapshot`` before serving anything
newer, deferring its own writes meanwhile.  Because *all* nodes run the
query rounds for the same task, some node eventually observes an
interference-free round and reliably broadcasts the result in an ``END``
message, which every node stores in the unbounded ``repSnap`` table.

Costs (reproduced by benchmark E4): O(n²) messages per snapshot task —
every node runs majority query rounds — plus the reliable-broadcast
traffic for ``SNAP`` and ``END``.  The unbounded ``repSnap`` table and the
reliance on reliable broadcast are exactly what the paper's Algorithm 3
replaces (bounded space is a prerequisite for self-stabilization).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.broadcast.reliable import ReliableBroadcast
from repro.core.base import DepositedWrites, SnapshotResult
from repro.core.register import AckItem, RegisterArray
from repro.net.message import Message

__all__ = [
    "DgfrAlwaysTerminating",
    "SnapMessage",
    "EndMessage",
    "TaskSnapshotMessage",
    "TaskSnapshotAckMessage",
]


@dataclass(frozen=True)
class SnapMessage(Message):
    """``SNAP(source, sn)``: announcement of a new snapshot task (line 46)."""

    KIND = "SNAP"
    source: int
    sn: int


@dataclass(frozen=True)
class EndMessage(Message):
    """``END(s, t, val)``: the result of task ``(s, t)`` (line 59)."""

    KIND = "END"
    source: int
    sn: int
    result: RegisterArray


@dataclass(frozen=True)
class TaskSnapshotMessage(Message):
    """``SNAPSHOT(s, t, reg, ssn)``: a query round for task ``(s, t)``.

    ``reg`` is request items
    (:meth:`~repro.core.base.SnapshotAlgorithm.request_items`).
    """

    KIND = "SNAPSHOT"
    source: int
    sn: int
    reg: tuple[AckItem, ...]
    ssn: int


@dataclass(frozen=True)
class TaskSnapshotAckMessage(Message):
    """``SNAPSHOTack(s, t, reg, ssn)`` (line 65), ``reg`` relative to the query."""

    KIND = "SNAPSHOTack"
    source: int
    sn: int
    reg: tuple[AckItem, ...]
    ssn: int


class DgfrAlwaysTerminating(DepositedWrites):
    """The non-self-stabilizing always-terminating snapshot object."""

    SELF_STABILIZING = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.register_handler(TaskSnapshotMessage.KIND, self._on_task_snapshot)
        self._rb = ReliableBroadcast(self, self._on_rb_deliver)

    def initialize_state(self) -> None:
        """Lines 32–35: indices, the write slot, and the repSnap table."""
        super().initialize_state()
        self.ssn: int = 0
        self.sns: int = 0
        #: ``repSnap``: results of completed tasks, keyed by (source, sn).
        #: Unbounded — faithful to the baseline the paper improves on.
        self.rep_snap: dict[tuple[int, int], RegisterArray] = {}
        #: SNAP tasks received and not yet processed, in arrival order.
        self._task_queue: deque[tuple[int, int]] = deque()
        self._queued: set[tuple[int, int]] = set()

    # -- reliable-broadcast deliveries ---------------------------------------------

    def _on_rb_deliver(self, origin: int, payload: Message) -> None:
        if isinstance(payload, SnapMessage):
            task = (payload.source, payload.sn)
            if task not in self._queued and task not in self.rep_snap:
                self._queued.add(task)
                self._task_queue.append(task)
        elif isinstance(payload, EndMessage):
            # Line 66: repSnap[s, t] ← val.
            self.rep_snap[(payload.source, payload.sn)] = payload.result
        self._notify()

    # -- the do-forever loop (lines 37–42) --------------------------------------------

    async def do_forever_iteration(self) -> None:
        """Serve the pending write, then the oldest snapshot task.

        Lines 38–42: the write slot is served first; then the oldest
        unprocessed ``SNAP`` task is run to completion — the node blocks
        here (deferring subsequent writes) until the task's result appears
        in ``repSnap``, which is the synchronization that makes snapshot
        operations always terminate.
        """
        await self.serve_write()
        if self._task_queue:
            source, sn = self._task_queue.popleft()
            await self.base_snapshot(source, sn)
            await self._wait_until(lambda: (source, sn) in self.rep_snap)

    # -- operations (lines 43–47; the write is DepositedWrites') ------------------

    async def snapshot(self) -> SnapshotResult:
        """Lines 45–47: announce the task, wait for its result."""
        with self.operation("snapshot"):
            self.sns += 1
            task = (self.node_id, self.sns)
            self._rb.broadcast(SnapMessage(source=task[0], sn=task[1]))
            await self._wait_until(lambda: task in self.rep_snap)
            return SnapshotResult.from_registers(self.rep_snap[task])

    # -- baseSnapshot (lines 52–59) -----------------------------------------------------------

    async def base_snapshot(self, source: int, sn: int) -> None:
        """Run query rounds for task ``(source, sn)`` until a result exists.

        A round in which a majority of the replies reported exactly the
        ``prev`` it broadcast (the equivalence quorum, implied by the
        paper's ``prev = reg``) publishes ``prev`` as the task's result.
        """
        while (source, sn) not in self.rep_snap:
            prev = self.reg.copy()
            self.ssn += 1
            if self.equivalence_quorum(prev, await self._query_round(source, sn)):
                # Line 59: publish the interference-free view as the result.
                self._rb.broadcast(
                    EndMessage(source=source, sn=sn, result=prev.copy())
                )
                await self._wait_until(lambda: (source, sn) in self.rep_snap)

    async def _query_round(self, source: int, sn: int) -> list[tuple[AckItem, ...]]:
        """One ``repeat broadcast SNAPSHOT until majority`` for the task.

        Reads past the first majority until the replies decide the round
        (:meth:`~repro.core.base.SnapshotAlgorithm.query_collector`).
        Returns the replies' ack items, already merged into ``reg``.
        """

        def matches(sender: int, msg: Message) -> bool:
            return msg.source == source and msg.sn == sn and msg.ssn == self.ssn

        def query() -> TaskSnapshotMessage:
            reg = self.request_items(self.reg)
            return TaskSnapshotMessage(source=source, sn=sn, reg=reg, ssn=self.ssn)

        return await self.query_round(TaskSnapshotAckMessage.KIND, matches, query)

    # -- server side (lines 63–65) -------------------------------------------------------------

    def _on_task_snapshot(self, sender: int, message: TaskSnapshotMessage) -> None:
        self.reg.merge_items(message.reg)
        self.send(
            sender,
            TaskSnapshotAckMessage(
                source=message.source,
                sn=message.sn,
                reg=self.reg.reply_to(message.reg),
                ssn=message.ssn,
            ),
        )
