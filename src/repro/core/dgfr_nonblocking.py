"""Delporte-Gallet et al.'s non-blocking snapshot algorithm (baseline).

This is the paper's Algorithm 1 *without* the boxed self-stabilizing
additions — the original [DGFR18, Algorithm 1].  Write operations always
terminate (given a live majority); a snapshot operation terminates once it
completes a query round in which no concurrent write changed the register
view (``prev = reg``), so snapshots are guaranteed to terminate only after
write operations cease.

Costs (reproduced by benchmark E1): a write is one round trip of
``2(n-1)`` messages; an uncontended snapshot is one round trip of
``2(n-1)`` messages, each of O(n·ν) bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.config import ClusterConfig
from repro.core.base import SnapshotAlgorithm, SnapshotResult
from repro.core.register import RegisterArray
from repro.net.message import Message
from repro.net.quorum import AckCollector, broadcast_until
from repro.sim.kernel import Kernel

__all__ = ["DgfrNonBlocking", "SnapshotMessage", "SnapshotAckMessage"]


@dataclass(frozen=True)
class SnapshotMessage(Message):
    """Client-side ``SNAPSHOT(reg, ssn)`` query (line 20)."""

    KIND = "SNAPSHOT"
    reg: RegisterArray
    ssn: int


@dataclass(frozen=True)
class SnapshotAckMessage(Message):
    """Server-side ``SNAPSHOTack(reg, ssn)`` reply (line 31)."""

    KIND = "SNAPSHOTack"
    reg: RegisterArray
    ssn: int


class DgfrNonBlocking(SnapshotAlgorithm):
    """The non-self-stabilizing non-blocking snapshot object."""

    SELF_STABILIZING = False

    def __init__(
        self,
        node_id: int,
        kernel: Kernel,
        network: Any,
        config: ClusterConfig,
    ) -> None:
        super().__init__(node_id, kernel, network, config)
        self.register_handler(SnapshotMessage.KIND, self._on_snapshot_query)

    def initialize_state(self) -> None:
        """Line 3: the snapshot operation index joins the shared state."""
        super().initialize_state()
        self.ssn: int = 0

    # -- server side ------------------------------------------------------------

    def _on_snapshot_query(self, sender: int, message: SnapshotMessage) -> None:
        """Lines 29–31: merge the querier's view and echo ours with its ssn."""
        self.reg.merge_from(message.reg)
        self.send(sender, SnapshotAckMessage(reg=self.reg.copy(), ssn=message.ssn))

    # -- client side ------------------------------------------------------------

    async def write(self, value: Any) -> int:
        """Lines 12–16: install ``(v, ts)`` and push it to a majority."""
        self._begin_operation("write")
        try:
            return await self.base_write(value)
        finally:
            self._end_operation("write")

    async def snapshot(self) -> SnapshotResult:
        """Lines 17–23: query rounds until an interference-free round.

        Each round captures ``prev := reg``, runs one majority query with a
        fresh ``ssn``, merges the replies, and returns ``reg`` if no
        concurrent write moved it (``prev = reg``).  With concurrent
        writes the loop may run forever — that is the non-blocking (rather
        than always-terminating) guarantee, demonstrated by benchmark E12.
        """
        self._begin_operation("snapshot")
        try:
            while True:
                prev = self.reg.copy()
                self.ssn += 1
                if self.obs is not None:
                    self.obs.phase("snapshot.query_round")
                await self._query_round()
                if prev == self.reg:
                    return SnapshotResult.from_registers(self.reg)
        finally:
            self._end_operation("snapshot")

    async def _query_round(self) -> list[RegisterArray]:
        """Lines 20–21: one ``repeat broadcast SNAPSHOT until majority``.

        The ack filter implements line 20's ``ssnJ = ssn`` against the
        *current* value of ``ssn`` — matching the paper's use of the
        mutable variable, which is what heals corrupted in-transit acks in
        the self-stabilizing variant.  Returns the collected replies'
        register views, already merged into ``reg``.
        """

        def matches(sender: int, msg: Message) -> bool:
            return msg.ssn == self.ssn

        with AckCollector(
            self, SnapshotAckMessage.KIND, self.majority, match=matches
        ) as collector:
            await broadcast_until(
                self,
                lambda: SnapshotMessage(reg=self.reg.copy(), ssn=self.ssn),
                collector,
            )
            views = [msg.reg for msg in collector.reply_messages()]
        self.merge(views)
        return views
