"""Delporte-Gallet et al.'s non-blocking snapshot algorithm (baseline).

This is the paper's Algorithm 1 *without* the boxed self-stabilizing
additions — the original [DGFR18, Algorithm 1].  Write operations always
terminate (given a live majority); a snapshot operation terminates once it
completes a query round in which a majority of the replies reported
exactly the view it broadcast (the equivalence quorum,
:meth:`~repro.core.base.SnapshotAlgorithm.equivalence_quorum`, which
DGFR's ``prev = reg`` implies), so snapshots are guaranteed to terminate
only after write operations cease.  A round reads replies past its first
majority until they decide it
(:meth:`~repro.core.base.SnapshotAlgorithm.query_collector`).

Costs (reproduced by benchmark E1): a write is one round trip of
``2(n-1)`` messages; an uncontended snapshot is one round trip of
``2(n-1)`` messages.  A request carries O(n·ν) bits while some node may
lack its entries; each request and each ack ships only the entries that
may be news to its receiver (O(n) bits when none is).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.base import SnapshotAlgorithm, SnapshotResult
from repro.core.register import AckItem
from repro.net.message import Message

__all__ = ["DgfrNonBlocking", "SnapshotMessage", "SnapshotAckMessage"]


@dataclass(frozen=True)
class SnapshotMessage(Message):
    """Client-side ``SNAPSHOT(reg, ssn)`` query (line 20).

    ``reg`` is request items, as in ``WRITE``
    (:meth:`~repro.core.base.SnapshotAlgorithm.request_items`).
    """

    KIND = "SNAPSHOT"
    reg: tuple[AckItem, ...]
    ssn: int


@dataclass(frozen=True)
class SnapshotAckMessage(Message):
    """Server-side ``SNAPSHOTack(reg, ssn)`` reply (line 31).

    ``reg`` is relative to the query, as in ``WRITEack``: an entry where
    its timestamp differs from the query's, the bare timestamp otherwise.
    """

    KIND = "SNAPSHOTack"
    reg: tuple[AckItem, ...]
    ssn: int


class DgfrNonBlocking(SnapshotAlgorithm):
    """The non-self-stabilizing non-blocking snapshot object."""

    SELF_STABILIZING = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.register_handler(SnapshotMessage.KIND, self._on_snapshot_query)

    def initialize_state(self) -> None:
        """Line 3: the snapshot operation index joins the shared state."""
        super().initialize_state()
        self.ssn: int = 0

    # -- server side ------------------------------------------------------------

    def _on_snapshot_query(self, sender: int, message: SnapshotMessage) -> None:
        """Lines 29–31: merge the querier's view, echo the news with its ssn."""
        self.reg.merge_items(message.reg)
        self.send(
            sender,
            SnapshotAckMessage(reg=self.reg.reply_to(message.reg), ssn=message.ssn),
        )

    # -- client side ------------------------------------------------------------

    async def write(self, value: Any) -> int:
        """Lines 12–16: install ``(v, ts)`` and push it to a majority."""
        with self.operation("write"):
            return await self.base_write(value)

    async def snapshot(self) -> SnapshotResult:
        """Lines 17–23: query rounds until an interference-free round.

        Each round captures ``prev := reg``, runs one query with a fresh
        ``ssn`` until its replies decide it, merges the replies, and
        returns ``prev`` if a majority of them reported exactly ``prev``
        (the equivalence quorum; the paper's ``prev = reg`` implies it, and
        unlike it a write merged here mid-round that no reply reported does
        not cost a round, nor does one reply naming a newer entry when
        another majority names ``prev``).  With concurrent writes the loop
        may run forever — that is the non-blocking (rather than
        always-terminating) guarantee, demonstrated by benchmark E12.
        """
        with self.operation("snapshot"):
            while True:
                prev = self.reg.copy()
                self.ssn += 1
                if self.obs is not None:
                    self.obs.phase("snapshot.query_round")
                if self.equivalence_quorum(prev, await self._query_round()):
                    return SnapshotResult.from_registers(prev)

    async def _query_round(self) -> list[tuple[AckItem, ...]]:
        """Lines 20–21: one ``repeat broadcast SNAPSHOT until majority``.

        The round's view is ``reg`` as it starts (``prev``), and it reads
        past the first majority until its replies decide it
        (:meth:`~repro.core.base.SnapshotAlgorithm.query_collector`).
        The ack filter implements line 20's ``ssnJ = ssn`` against the
        *current* value of ``ssn`` — matching the paper's use of the
        mutable variable, which is what heals corrupted in-transit acks in
        the self-stabilizing variant.  Returns the collected replies'
        ack items, already merged into ``reg``.
        """

        return await self.query_round(
            SnapshotAckMessage.KIND,
            lambda sender, msg: msg.ssn == self.ssn,
            lambda: SnapshotMessage(reg=self.request_items(self.reg), ssn=self.ssn),
        )
