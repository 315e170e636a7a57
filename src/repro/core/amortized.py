"""Amortized constant-round snapshot variant (batched shared rounds).

Follows the idea of Garg, Kumar, Tseng and Zheng, *Amortized Constant
Round Atomic Snapshot in Message-Passing Systems*: when several local
operations are pending at once, they share protocol rounds instead of
each paying their own, so a pipeline of k concurrent operations
completes in amortized O(1) rounds rather than O(k).

Concretely, on top of the self-stabilizing non-blocking object:

* **Write batching (group commit).**  All locally pending writes are
  drained together: each gets its own timestamp (``ts += 1`` per write,
  so per-writer timestamps stay strictly monotone), the *last* value is
  installed in ``reg``, and one shared WRITE quorum round acknowledges
  the whole batch.  The intermediate values of a batch are never
  observable by any snapshot — they linearize immediately before the
  batch's final write, which is exactly the "never-observed write"
  case the linearizability checker admits.
* **Scan sharing on an equivalence quorum.**  All locally pending
  snapshots share rounds, and a round succeeds when every reply of its
  majority reports exactly the view the round broadcast — ``prev`` for a
  SNAPSHOT round, ``lReg`` for a WRITE round — and returns *that* view
  (Garg et al.'s equivalence quorum).  This is weaker than Algorithm 1's
  ``prev = reg`` (which trips on *any* delivery during the round, acked
  or not) and strictly implied by it: a server merges the query before
  replying, so every reply is ⪰ ``prev``, and ``prev = reg`` after the
  merge forces every reply to equal ``prev``.  It is sound by the same
  quorum-intersection argument: each server's view is monotone, any two
  majorities share a server, and a matching reply was sent after the
  round began (it echoes the round's fresh ``ssn``, or contains the
  round's fresh own timestamp) — so the returned view contains every
  write that completed before the round began, and the views returned
  by any two rounds are ⪯-comparable in real-time order.
* **A write round is also a collect — when somebody is collecting.**
  WRITE acks name each server's merged ``reg``, shipping only the
  entries the round's request did not already hold, so a group-commit
  round that finds scans pending at its start resolves them by the same
  test instead of alternating with a separate SNAPSHOT round; a SNAPSHOT round
  runs only when no local write is pending.  Scans enqueued mid-round
  wait for the next round, which preserves real-time order.  A group
  commit that starts with *no* scan pending collects for nobody and needs
  single-register atomicity only, so it ships one entry instead of n:
  ``reg[i]`` goes out with the one-entry exchange ``read(j)`` uses
  (:meth:`~repro.core.base.SnapshotAlgorithm.entry_round` — READ to a
  majority, each ack naming the timestamp it holds and carrying an entry
  only where that is newer).  Safety never used the other n−1 entries: a
  completed write sits at a majority either way, and an equivalence-quorum
  scan or a read intersects it.  The termination class is unchanged:
  non-blocking (a scan can be starved by an endless stream of remote
  writes), demonstrated by the same E12-style probe.

After a transient fault the test reads only replies that already passed
Algorithm 1's own ack filters (``ssnJ = ssn``, ``regJ ⪰ lReg``) and
compares timestamps only (the paper's ``⪯``), so it is exposed to
exactly the stale in-transit acks Algorithm 1 is, for exactly as long:
Theorem 1's O(1)-cycle recovery carries over unchanged.

Because operations must genuinely overlap for batching to pay off, this
variant sets :attr:`AmortizedSnapshot.CONCURRENT_CLIENTS`, which tells
the cluster backends *not* to FIFO-chain submissions per node.  The
sequential-client discipline of the other variants (``_begin_operation``
raising on overlap) is intentionally replaced by unique in-flight
tokens: overlapping local operations are the whole point here, and the
engine serializes them into shared rounds internally.

The variant reuses the WRITE/SNAPSHOT/READ/GOSSIP message kinds and
server handlers of its parents unchanged — the wire protocol is
identical; only the client-side round scheduling differs.
Single-register reads (:meth:`~repro.core.base.SnapshotAlgorithm.read`)
do not enter the engine: each is its own READ round, overlapping the
shared rounds and each other, which is why a keyed fabric read no longer
waits out (or is restarted by) the shard's writers.
"""

from __future__ import annotations

from typing import Any

from repro.core.base import SnapshotResult
from repro.core.register import (
    AckItem,
    RegisterArray,
    TimestampedValue,
    ack_clock,
)
from repro.core.ss_nonblocking import SelfStabilizingNonBlocking

__all__ = ["AmortizedSnapshot"]


class _PendingOp:
    """One enqueued local operation awaiting a shared round."""

    __slots__ = ("value", "event", "result")

    def __init__(self, kernel, value: Any = None) -> None:
        self.value = value
        self.event = kernel.create_event()
        self.result: Any = None

    def resolve(self, result: Any) -> None:
        self.result = result
        self.event.set()


class AmortizedSnapshot(SelfStabilizingNonBlocking):
    """Self-stabilizing snapshot object with amortized-O(1)-round batching."""

    SELF_STABILIZING = True
    #: Cluster backends must not serialize submissions per node — pending
    #: local operations are what the engine batches into shared rounds.
    CONCURRENT_CLIENTS = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Pending queues and the engine handle live here, NOT in
        # initialize_state(): a detectable restart re-runs the latter,
        # and must reset the protocol state (ts, reg, ssn) without
        # orphaning clients already waiting on enqueued operations.
        self._pending_writes: list[_PendingOp] = []
        self._pending_scans: list[_PendingOp] = []
        self._engine_task = None
        self._op_counter = 0

    # -- client side ------------------------------------------------------------

    async def write(self, value: Any) -> int:
        """Enqueue a write; resolves with its timestamp after a shared round."""
        token = self._begin_operation("write")
        try:
            op = _PendingOp(self.kernel, value)
            self._pending_writes.append(op)
            self._ensure_engine()
            await op.event.wait()
            return op.result
        finally:
            self._end_operation(token)

    async def snapshot(self) -> SnapshotResult:
        """Enqueue a scan; resolves after a shared interference-free round."""
        token = self._begin_operation("snapshot")
        try:
            op = _PendingOp(self.kernel)
            self._pending_scans.append(op)
            self._ensure_engine()
            await op.event.wait()
            return op.result
        finally:
            self._end_operation(token)

    def _begin_operation(self, name: str) -> str:
        """Unique in-flight token (overlap is legal here, unlike the base)."""
        self._op_counter += 1
        token = f"{name}#{self._op_counter}"
        self._ops_in_flight.add(token)
        return token

    # -- the round engine ----------------------------------------------------------

    def _ensure_engine(self) -> None:
        if self._engine_task is None or self._engine_task.done():
            self._engine_task = self.kernel.create_task(
                self._engine(), name=f"node{self.node_id}.batch_engine"
            )

    async def _engine(self) -> None:
        """Run shared rounds until no local operation is pending.

        A write round carries the pending scans with it, so a scan-only
        round runs just when no local write is waiting; neither kind
        starves the other locally (a scan can still be starved by
        *remote* writers — the inherited non-blocking guarantee).
        """
        try:
            while self._pending_writes or self._pending_scans:
                if self._pending_writes:
                    await self._write_round()
                else:
                    await self._scan_round()
        finally:
            self._engine_task = None

    async def _write_round(self) -> None:
        """Group commit: drain pending writes, one shared quorum round.

        Timestamps are assigned per write so each caller gets a distinct,
        per-writer-monotone index; only the last value is installed, so
        the earlier writes of the batch are never observed (they
        linearize immediately before the final one).  With scans pending
        at the round's start the round is ``WRITE(lReg)`` and its acks
        double as their collect; with none it stores ``reg[i]`` alone.
        """
        batch, self._pending_writes = self._pending_writes, []
        scans, self._pending_scans = self._pending_scans, []
        i = self.node_id
        self.base = self.reg[i].value
        for op in batch:
            self.ts += 1
            self.reg[i] = TimestampedValue(self.ts, op.value)
            op.result = self.ts
        if self.obs is not None:
            self.obs.phase("write.batch_round")
        if scans:
            l_reg = self.reg.copy()
            views = await self.write_round(l_reg)
        else:
            # A server ahead of us on our own entry is a transient
            # fault's residue; absorbing it is how ``ts`` heals.
            for entry in await self.entry_round(i, self.reg[i]):
                self.merge_entry(i, entry)
        for op in batch:
            op.event.set()
        if scans:
            self._settle_scans(scans, l_reg, views)

    async def _scan_round(self) -> None:
        """One shared SNAPSHOT round for every scan pending at its start."""
        batch, self._pending_scans = self._pending_scans, []
        prev = self.reg.copy()
        self.ssn += 1
        if self.obs is not None:
            self.obs.phase("snapshot.batch_round")
        self._settle_scans(batch, prev, await self._query_round())

    def _settle_scans(
        self,
        scans: list[_PendingOp],
        view: RegisterArray,
        replies: list[tuple[AckItem, ...]],
    ) -> None:
        """Resolve ``scans`` with ``view`` iff a majority reported exactly it.

        Only the timestamps the replies name are compared, so a reply
        that equals the query carries no entry at all.  Otherwise the
        batch is re-enqueued at the *front*, so it merges with newly
        arrived scans in the next round.
        """
        if not scans:
            return
        clock = view.vector_clock()
        if all(ack_clock(reply) == clock for reply in replies):
            result = SnapshotResult.from_registers(view)
            for op in scans:
                op.resolve(result)
        else:
            self._pending_scans = scans + self._pending_scans

    # -- lifecycle ------------------------------------------------------------------

    def stop(self) -> None:
        """Also cancel the round engine (end of an experiment)."""
        super().stop()
        if self._engine_task is not None:
            self._engine_task.cancel()
            self._engine_task = None
