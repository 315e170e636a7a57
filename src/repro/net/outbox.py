"""Outbox: what one node owes its peers until they acknowledge it.

Algorithm 3's safe register (``SAVE`` until ``majority − 1`` peers ack,
line 71) and reliable broadcast (``RB`` until every peer acks) are its
clients.  A client sends the first copy itself and posts an entry: a
key ``(kind, id)``, the item each peer is owed, an ack set, a threshold,
a next-due time and an interval policy (doubling up to a cap; a cap
equal to the interval keeps it fixed).  One kernel timer, and no task,
re-sends every due entry to the peers that have not acked it; entries
sharing a ``pack`` travel as one ``pack(items)`` message per peer.  A
heap of due times orders the entries, so a post or a re-send touches
only what is due, however many entries wait on a crashed peer.
Retransmissions are counted in one place, :meth:`Outbox.retransmitted`.
A fault may rewrite an entry's item or ack set, or delete it; no fault
rewrites a due time or the timer.  An entry whose ack set a fault filled
goes at its due time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.node import Process

__all__ = ["Outbox"]


@dataclass(slots=True)
class OutboxEntry:
    """``item`` (a message, or one of ``pack``'s items) owed until
    ``threshold`` peers acked it; re-sent at ``due``, then ``interval``
    later, the interval doubling up to ``cap``."""

    item: Any
    threshold: int
    due: float
    interval: float
    cap: float
    pack: Callable[[tuple], Message] | None = None
    acked: set[int] = field(default_factory=set)


class Outbox:
    """The entries one :class:`~repro.net.node.Process` owes its peers."""

    def __init__(self, process: "Process") -> None:
        self._process = process
        self.entries: dict[Hashable, OutboxEntry] = {}
        #: ``(due, seq, key, entry)`` per posted or re-sent entry; an item
        #: whose entry was since replaced, acked or re-timed is stale.
        self._heap: list[tuple[float, int, Hashable, OutboxEntry]] = []
        self._seq = count()
        #: The armed timer's token (``None``: disarmed) and its due time.
        self._timer: object | None = None
        self._timer_at = 0.0

    def keys(self, kind: str) -> list[Hashable]:
        """The keys of ``kind``'s entries, sorted."""
        return sorted(key for key in self.entries if key[0] == kind)

    @property
    def armed(self) -> bool:
        """Whether a retransmission is scheduled."""
        return self._timer is not None

    def post(
        self,
        key: Hashable,
        item: Any,
        threshold: int,
        pack: Callable[[tuple], Message] | None = None,
        cap: float | None = None,
    ) -> None:
        """Owe ``item`` until ``threshold`` peers ack it, replacing ``key``.

        The first re-send is one ``retransmit_interval`` from now.
        """
        interval = self._process.config.retransmit_interval
        cap = interval if cap is None else cap
        now = self._process.kernel.now
        entry = self.entries[key] = OutboxEntry(
            item, threshold, now + interval, min(2 * interval, cap), cap, pack
        )
        self._push(key, entry)
        self._arm()

    def ack(self, sender: int, keys: Iterable[Hashable]) -> None:
        """Count ``sender``'s ack toward each entry in ``keys``."""
        entries = self.entries
        for key in keys:
            entry = entries.get(key)
            if entry is not None:
                entry.acked.add(sender)
                if len(entry.acked) >= entry.threshold:
                    del entries[key]
        if not entries:
            self._empty()

    def drop(self, kind: str) -> None:
        """Forget ``kind``'s entries (a restart or a reset voided them)."""
        for key in self.keys(kind):
            del self.entries[key]
        if not self.entries:
            self._empty()

    def disarm(self) -> None:
        """Schedule no further retransmission (end of an experiment)."""
        self._timer = None

    def _empty(self) -> None:
        self._timer = None
        self._heap.clear()  # every item left is stale

    def retransmitted(self) -> None:
        """Count one retransmission against the node's active operation."""
        obs = self._process.obs
        if obs is not None:
            obs.retransmit()

    def _push(self, key: Hashable, entry: OutboxEntry) -> None:
        heapq.heappush(self._heap, (entry.due, next(self._seq), key, entry))

    def _live(self, item: tuple) -> bool:
        due, _seq, key, entry = item
        return self.entries.get(key) is entry and entry.due == due

    def _arm(self) -> None:
        heap = self._heap
        while heap and not self._live(heap[0]):
            heapq.heappop(heap)
        if not heap:
            return
        due = heap[0][0]
        if self._timer is not None and self._timer_at <= due:
            return
        token = self._timer = object()
        self._timer_at = due
        kernel = self._process.kernel
        kernel.call_later(max(due - kernel.now, 0.0), self._fire, token)

    def _fire(self, token: object) -> None:
        """Re-send every due entry to the peers yet to acknowledge it."""
        if token is not self._timer:
            return  # disarmed: emptied, restarted or stopped since
        self._timer = None
        process = self._process
        now = process.kernel.now
        heap, keys = self._heap, []
        while heap and heap[0][0] <= now:
            item = heapq.heappop(heap)
            if self._live(item):
                keys.append(item[2])
        due = []
        for key in sorted(keys):
            entry = self.entries[key]
            if len(entry.acked) >= entry.threshold:
                del self.entries[key]  # a forged ack set, or quorum 1
            else:
                due.append((key, entry))
        # A crashed node sends nothing, and its own silence is no reason
        # to back off: the interval grows only after a re-send went out.
        sending = bool(due) and not process.crashed
        if sending:
            self.retransmitted()
            for peer in process.peers():
                packed: dict[Callable[[tuple], Message], list] = {}
                for _key, entry in due:
                    if peer in entry.acked:
                        continue
                    if entry.pack is None:
                        process.send(peer, entry.item)
                    else:
                        packed.setdefault(entry.pack, []).append(entry.item)
                for pack, items in packed.items():
                    process.send(peer, pack(tuple(items)))
        # A skipped instant retries one base interval later, so a
        # resumed sender re-sends within one interval of its resume.
        base = process.config.retransmit_interval
        for key, entry in due:
            if sending:
                entry.due = now + entry.interval
                entry.interval = min(2 * entry.interval, entry.cap)
            else:
                entry.due = now + base
            self._push(key, entry)
        self._arm()
