"""Shared machinery of the Delporte-Gallet-family snapshot algorithms.

All four algorithms (the DGFR non-blocking and always-terminating
baselines, and their self-stabilizing variants) share:

* the per-node state ``reg`` (an SWMR register-array buffer) and the write
  index ``ts``;
* the ``merge(Rec)`` macro — pointwise lattice join of received register
  arrays, with the self-stabilizing variants additionally absorbing the
  maximum observed own-entry timestamp into ``ts``;
* the server-side WRITE/SNAPSHOT handler skeleton (merge, then ack) and
  its one reply rule: an ack ships ``reg[j]`` only where its timestamp
  differs from the request's, and names the timestamp alone otherwise
  (:meth:`~repro.core.register.RegisterArray.reply_to`);
* the client-side ``baseWrite`` — bump ``ts``, install the value locally,
  then ``repeat broadcast WRITE until majority of WRITEack(regJ ⪰ lReg)``;
* the one-entry exchange ``entry_round(j, entry)`` — the store of
  Attiya–Bar-Noy–Dolev (the paper's [5]) over the same ``reg`` buffers:
  READ ships one register entry to every server, and a READack ships one
  back only where the server holds a newer one (otherwise it names the
  timestamp and leaves out the entry the request already carried).  A
  node's own entry whose value is a key map travels as a
  :class:`~repro.core.register.KeyDelta` against its value before the
  latest local write, and a server that cannot check the delta against
  its copy gets the whole entry at once;
* the single-register ``read(j)`` built from it: one round, plus a
  write-back round only when the majority disagreed.  It needs (and pays
  for) single-register atomicity only, so writes to other registers
  never make it retry.

Concrete algorithms subclass :class:`SnapshotAlgorithm` and add their
snapshot-side logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Any, Iterable

from repro.config import ClusterConfig
from repro.core.register import (
    AckItem,
    KeyDelta,
    KeyMap,
    RegisterArray,
    TimestampedValue,
    ack_clock,
)
from repro.errors import ConfigurationError, ReproError
from repro.net.message import Message
from repro.net.node import Process
from repro.net.quorum import AckCollector, broadcast_until
from repro.sim.kernel import Kernel

__all__ = [
    "SnapshotAlgorithm",
    "SnapshotResult",
    "WriteMessage",
    "WriteAckMessage",
    "ReadMessage",
    "ReadAckMessage",
]


@dataclass(frozen=True, slots=True)
class SnapshotResult:
    """The outcome of a ``snapshot()`` operation.

    Attributes
    ----------
    values:
        One entry per node: the object value last written by that node
        (``None`` where no write has occurred).
    vector_clock:
        The write indices of the returned values — the evidence the
        linearizability checker consumes.
    """

    values: tuple[Any, ...]
    vector_clock: tuple[int, ...]

    @classmethod
    def from_registers(cls, reg: RegisterArray) -> "SnapshotResult":
        """Package a register-array state as an operation result."""
        return cls(values=reg.snapshot_values(), vector_clock=reg.vector_clock())

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class WriteMessage(Message):
    """Client-side ``WRITE(lReg)``: the writer's whole register view."""

    KIND = "WRITE"
    reg: RegisterArray


@dataclass(frozen=True)
class WriteAckMessage(Message):
    """Server-side ``WRITEack(reg)``: the replier's merged register view.

    ``reg`` holds one :data:`~repro.core.register.AckItem` per entry,
    relative to the ``WRITE`` it answers: the entry where its timestamp
    differs from the request's, the bare timestamp where it does not.
    """

    KIND = "WRITEack"
    reg: tuple[AckItem, ...]


@dataclass(frozen=True)
class ReadMessage(Message):
    """Client-side ``READ(j, entry, tag)``: the reader's copy of ``reg[j]``.

    ``entry`` is a :class:`~repro.core.register.KeyDelta` when ``p_j``
    sends its own key-map entry as the items that changed since its
    base; it names the entry's ``ts`` all the same.
    """

    KIND = "READ"
    j: int
    entry: TimestampedValue | KeyDelta
    tag: int


@dataclass(frozen=True)
class ReadAckMessage(Message):
    """Server-side ``READack(j, ts, entry, tag)``: the merged ``reg[j]``.

    ``ts`` is that entry's timestamp.  ``entry`` is ``None`` exactly when
    ``ts`` equals the timestamp of the request being answered: the
    requester still holds what it sent, so the ack does not echo it.
    """

    KIND = "READack"
    j: int
    ts: int
    entry: TimestampedValue | None
    tag: int


class SnapshotAlgorithm(Process):
    """Base class: state, merge, write path, and server-side handlers.

    Parameters mirror :class:`~repro.net.node.Process`; subclasses set the
    class attribute :attr:`SELF_STABILIZING` to enable the boxed-code
    additions of the paper (timestamp absorption in ``merge`` and the
    do-forever cleanup/gossip, implemented in the subclasses).
    """

    #: Whether the boxed (self-stabilizing) code lines are active.
    SELF_STABILIZING = False

    def __init__(
        self,
        node_id: int,
        kernel: Kernel,
        network: Any,
        config: ClusterConfig,
    ) -> None:
        super().__init__(node_id, kernel, network, config)
        self.register_handler(WriteMessage.KIND, self._on_write)
        self.register_handler(ReadMessage.KIND, self._on_read)
        # WRITEack/READack have no server-side action; replies reach ack
        # collectors.

    # -- state ------------------------------------------------------------------

    def initialize_state(self) -> None:
        """Lines 2–4 / 32–35 / 68: indices to zero, registers to ⊥."""
        self.ts: int = 0
        self.reg: RegisterArray = RegisterArray(self.config.n)
        #: Index of the node's latest ``read`` quorum round.  Each round
        #: freezes its own copy, so any value (a corrupted one included)
        #: is a legal starting point.
        self.tag: int = 0
        #: The value of ``reg[i]`` before the latest local write: the
        #: base a key-map entry's delta is taken against (``None``, ⊥'s
        #: value, is the empty map).  Any value is a legal starting
        #: point; one no server holds costs a whole entry per server.
        self.base: Any = None
        self._ops_in_flight: set[str] = set()

    # -- the merge(Rec) macro -----------------------------------------------------

    def merge(self, received: Iterable[tuple[AckItem, ...]]) -> None:
        """``merge(Rec)``: pointwise join of the entries the acks shipped.

        In the self-stabilizing variants the macro additionally raises
        ``ts`` to the largest own-entry timestamp seen (Algorithm 1 line 6
        / Algorithm 3 line 72), which is what heals a corrupted-low ``ts``.
        An elided own entry still names its timestamp, so it counts too.
        """
        received = list(received)
        i = self.node_id
        if self.SELF_STABILIZING:
            own = ack_clock([items[i] for items in received])
            self.ts = max(self.ts, self.reg[i].ts, *own)
        for items in received:
            self.reg.merge_items(items)

    def merge_entry(self, j: int, entry: TimestampedValue) -> None:
        """``reg[j] ← max(reg[j], entry)``, the single-entry ``merge``.

        Like the GOSSIP handler, the self-stabilizing variants absorb an
        arriving own-entry timestamp into ``ts``.
        """
        self.reg.merge_entry(j, entry)
        if self.SELF_STABILIZING and j == self.node_id:
            self.ts = max(self.ts, self.reg[j].ts)

    # -- server side -----------------------------------------------------------------

    def _on_write(self, sender: int, message: WriteMessage) -> None:
        """Lines 26–28: merge the writer's view, reply with what is news."""
        self.reg.merge_from(message.reg)
        self.send(sender, WriteAckMessage(reg=self.reg.reply_to(message.reg)))

    def _on_read(self, sender: int, message: ReadMessage) -> None:
        """Merge the sender's copy of ``reg[j]``, reply with our own.

        The reply leaves the entry out when its timestamp is the
        request's — decided from the request alone, so the server keeps
        nothing about the exchange.

        A delta is applied only to a copy older than it whose digest is
        its base's, so the copy becomes the writer's content at the
        delta's ``ts`` and nothing else.  Otherwise an older copy is
        answered with its own timestamp and no entry — below the
        request's, which no other ack names — and the requester sends
        the whole entry back at once.
        """
        j = message.j
        if not 0 <= j < self.config.n:
            return  # corrupted index; the sender retransmits
        entry = candidate = message.entry
        if isinstance(entry, KeyDelta):
            candidate = mine = self.reg[j]
            if mine.ts < entry.ts:
                copy = KeyMap.of(mine.value)
                if copy is None or copy.digest != entry.base:
                    self.send(
                        sender,
                        ReadAckMessage(j=j, ts=mine.ts, entry=None, tag=message.tag),
                    )
                    return
                candidate = TimestampedValue(entry.ts, copy.apply_delta(entry))
        self.merge_entry(j, candidate)
        mine = self.reg[j]
        self.send(
            sender,
            ReadAckMessage(
                j=j,
                ts=mine.ts,
                entry=None if mine.ts == entry.ts else mine,
                tag=message.tag,
            ),
        )

    # -- client side write path ----------------------------------------------------------

    async def base_write(self, value: Any) -> int:
        """Lines 13–15 (= ``baseWrite``, lines 48–51/84): one write round.

        Returns the write's timestamp index (useful for histories).
        """
        self.ts += 1
        self.base = self.reg[self.node_id].value
        self.reg[self.node_id] = TimestampedValue(self.ts, value)
        if self.obs is not None:
            self.obs.phase("write.quorum_round")
        l_reg = self.reg.copy()
        await self.write_round(l_reg)
        return l_reg[self.node_id].ts

    async def write_round(
        self, l_reg: RegisterArray
    ) -> list[tuple[AckItem, ...]]:
        """Line 14: ``repeat broadcast WRITE until majority of WRITEack``.

        Every (re)transmission carries ``reg ⊔ lReg``.  In a legitimate
        execution ``reg ⪰ lReg`` and that is ``reg`` itself; after a
        transient fault lowers ``reg`` mid-round the join still carries
        ``lReg``, which every server merges before it replies, so some
        ack can always satisfy ``regJ ⪰ lReg`` and the round ends.
        ``regJ`` is the timestamps the ack names, shipped or elided: an
        elided item stands for the request's entry, never for the
        requester's current one, so an ack to an earlier round cannot
        pass for one to this round.  Returns the acks' items, already
        merged into ``reg``.
        """
        l_clock = l_reg.vector_clock()

        def matches(sender: int, msg: Message) -> bool:
            clock = ack_clock(msg.reg)
            return len(clock) == len(l_clock) and all(map(le, l_clock, clock))

        def message() -> WriteMessage:
            reg = self.reg.copy()
            reg.merge_from(l_reg)
            return WriteMessage(reg=reg)

        with AckCollector(
            self, WriteAckMessage.KIND, self.majority, match=matches
        ) as collector:
            await broadcast_until(self, message, collector)
            views = [msg.reg for msg in collector.reply_messages()]
        self.merge(views)
        return views

    # -- client side single-register read ----------------------------------------------

    async def read(self, j: int) -> TimestampedValue:
        """Atomic read of register ``j``: one quorum round, two at worst.

        The round broadcasts the reader's ``reg[j]``; every server merges
        it and replies with its own.  If the whole majority reports one
        timestamp, a majority holds that entry already and it is
        returned at once (the equivalence-quorum fast path — always, when
        the reader is ``j``'s writer and no local write is in flight).
        Otherwise the maximum is written back with one more round, so
        that whatever this read returns, a majority holds it before the
        read responds and no later read or snapshot can go below it.
        """
        if not 0 <= j < self.config.n:
            raise ConfigurationError(
                f"register index {j} outside 0..{self.config.n - 1}"
            )
        token = self._begin_operation("read")
        try:
            if self.obs is not None:
                self.obs.phase("read.quorum_round")
            replies = await self.entry_round(j, self.reg[j])
            top = max(replies, key=lambda entry: entry.ts)
            self.merge_entry(j, top)
            if any(entry.ts != top.ts for entry in replies):
                if self.obs is not None:
                    self.obs.phase("read.write_back")
                await self.entry_round(j, top)
            return top
        finally:
            self._end_operation(token)

    async def entry_round(
        self, j: int, entry: TimestampedValue
    ) -> list[TimestampedValue]:
        """``repeat broadcast READ(j, entry, tag) until majority of READack``.

        One entry to one majority: when the round ends, a majority holds
        ``reg[j] ⪰ entry``, and the round returns what each of them holds.
        A read uses it for both of its phases; a writer that needs
        single-register atomicity only stores ``reg[i]`` with it.

        The message is built once and the match predicate reads the same
        frozen ``entry`` and ``tag``, so nothing that happens to ``reg``
        or ``tag`` mid-round can leave the round waiting for an ack no
        server will send.  An ack without an entry stands for the frozen
        one and is accepted under its timestamp only; an ack with an
        entry must name that entry's timestamp.  Anything else is a
        corrupted packet and is answered by the next retransmission —
        except an entry-less ack below a delta's timestamp: that server
        could not apply the delta, and gets the whole entry at once,
        under the same tag.
        """
        self.tag += 1
        tag = self.tag
        whole = ReadMessage(j=j, entry=entry, tag=tag)
        delta = self._delta(j, entry)
        message = whole if delta is None else ReadMessage(j=j, entry=delta, tag=tag)

        def matches(sender: int, msg: Message) -> bool:
            if msg.tag != tag or msg.j != j:
                return False
            if msg.entry is None:
                if msg.ts < entry.ts and message is not whole:
                    self.send(sender, whole)
                return msg.ts == entry.ts
            return msg.entry.ts == msg.ts >= entry.ts

        with AckCollector(
            self, ReadAckMessage.KIND, self.majority, match=matches
        ) as collector:
            await broadcast_until(self, lambda: message, collector)
            return [
                entry if msg.entry is None else msg.entry
                for msg in collector.reply_messages()
            ]

    def _delta(self, j: int, entry: TimestampedValue) -> KeyDelta | None:
        """Our own key-map ``entry`` as a delta against :attr:`base`.

        ``None`` — ship the entry whole — for another node's entry, a
        value that is not a key map, a base that is not one, or a map
        that lost keys since the base (a fabric slot after a split).
        """
        if j != self.node_id or not isinstance(entry.value, KeyMap):
            return None
        base = KeyMap.of(self.base)
        return None if base is None else entry.value.delta_since(base, entry.ts)

    # -- operation-invocation discipline --------------------------------------------------

    def _begin_operation(self, name: str) -> str:
        """Enforce the paper's sequential-client-per-node model.

        Returns the in-flight token to hand back to :meth:`_end_operation`.
        """
        if name in self._ops_in_flight:
            raise ReproError(
                f"node {self.node_id}: {name} already in progress; the model "
                "assumes one sequential client per node"
            )
        self._ops_in_flight.add(name)
        return name

    def _end_operation(self, token: str) -> None:
        self._ops_in_flight.discard(token)
