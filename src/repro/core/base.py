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
* the same rule for requests (:meth:`SnapshotAlgorithm.request_items`):
  each node keeps every peer's latest ``WRITEack``/``SNAPSHOTack`` clock
  (``peer_clocks``), and a request ships ``reg[j]`` only where its
  timestamp is above the floor — the pointwise minimum of those clocks
  and its own ``reg``'s — naming the timestamp alone where every peer
  already holds the entry;
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
  never make it retry;
* the one verdict of every snapshot query round,
  :meth:`SnapshotAlgorithm.equivalence_quorum`: a majority of replies
  named exactly the view the round broadcast; and the round's collector,
  :meth:`SnapshotAlgorithm.query_collector`, which reads replies past
  the first majority until they decide that verdict.

Concrete algorithms subclass :class:`SnapshotAlgorithm` and add their
snapshot-side logic; the always-terminating ones (Algorithms 2 and 3)
subclass :class:`DepositedWrites`, whose write the do-forever loop serves.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Any, Callable, Iterable, Sequence

from repro.core.register import (
    AckItem,
    KeyDelta,
    KeyMap,
    RegisterArray,
    TimestampedValue,
    ack_clock,
)
from repro.errors import ConfigurationError, NodeCrashedError
from repro.net.message import Message
from repro.net.node import OpId, Process
from repro.net.quorum import AckCollector, Watches, broadcast_until

__all__ = [
    "DepositedWrites",
    "SnapshotAlgorithm",
    "SnapshotResult",
    "WriteMessage",
    "WriteAckMessage",
    "ReadMessage",
    "ReadAckMessage",
    "WriteDeposit",
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
    """Client-side ``WRITE(lReg)``: the writer's register view.

    ``reg`` holds one :data:`~repro.core.register.AckItem` per entry:
    the entry where some peer may lack it, its bare timestamp where
    every peer's latest ack named at least that timestamp
    (:meth:`SnapshotAlgorithm.request_items`).
    """

    KIND = "WRITE"
    reg: tuple[AckItem, ...]


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

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.register_handler(WriteMessage.KIND, self._on_write)
        self.register_handler(ReadMessage.KIND, self._on_read)
        # WRITEack/READack have no server-side action; replies reach ack
        # collectors.  A register-array ack also reaches the peer-clock
        # sink, added first so it sees every one; the handler slots stay
        # free.
        sink = _PeerClockSink(self)
        for kind in _ARRAY_ACK_KINDS:
            self.add_ack_sink(kind, sink)

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
        #: Peer ``k`` → the timestamps its latest delivered register-array
        #: ack named; a peer with none counts as all zeros.  Any value is
        #: a legal starting point: a clock too low ships more entries, one
        #: too high is replaced by the next ack from that peer.
        self.peer_clocks: dict[int, tuple[int, ...]] = {}

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
        self.reg.merge_items(message.reg)
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
            clock = _named_clock(msg)
            return len(clock) == len(l_clock) and all(map(le, l_clock, clock))

        def message() -> WriteMessage:
            reg = self.reg.copy()
            reg.merge_from(l_reg)
            return self.write_request(self.request_items(reg))

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
        with self.operation("read"):
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

    # -- requests ship only what some node may lack ----------------------------------

    def floor(self) -> tuple[int, ...]:
        """The timestamps every node is known to hold, entry by entry.

        The pointwise minimum of :attr:`peer_clocks` and this node's own
        ``reg``; all zeros until every peer has acked.  Outside a fault a
        node's ``reg`` only grows, so each peer holds at least what its
        latest ack named, and a stale or reordered ack only lowers the
        floor.
        """
        clocks = self.peer_clocks
        own = self.reg.vector_clock()
        if len(clocks) < len(own) - 1:
            return (0,) * len(own)
        if not clocks:
            return own
        return tuple(map(min, own, *clocks.values()))

    def write_request(self, items: tuple[AckItem, ...]) -> WriteMessage:
        """The ``WRITE`` a write round sends: ``items`` from :meth:`request_items`."""
        return WriteMessage(reg=items)

    def request_items(self, view: RegisterArray) -> tuple[AckItem, ...]:
        """``view`` as a register-array request: whole only above the floor.

        Each receiver merges the items and answers relative to the
        timestamps they name.  A server that lacks an elided entry (a
        fault lowered it) names its lower timestamp in its ack, which
        replaces that peer's clock, so the next transmission ships it.
        """
        return view.items_above(self.floor())

    def equivalence_quorum(
        self, view: RegisterArray, replies: Sequence[tuple[AckItem, ...]]
    ) -> bool:
        """Whether at least a majority of ``replies`` named exactly ``view``.

        The one verdict of every snapshot query round, Garg–Kumar–Tseng–
        Zheng's equivalence quorum: ``view`` is what the round broadcast
        (``prev``), and when the test holds the round returns ``view``
        itself.  It counts: replies that differ from ``view`` do not spoil
        it, since a round reads on past its first majority
        (:meth:`query_collector`) and some majority of its replies may
        match where the first to arrive did not.  It is implied by
        Algorithm 1's ``prev = reg`` (a server merges the query before it
        replies, so every reply is ⪰ ``prev``, and ``prev = reg`` after
        merging them forces each to equal ``prev``) but does not trip on
        a delivery to the querier's own server mid-round that no reply
        reported.  It is sound by quorum intersection: server views only
        grow, any two majorities share a server, and a matching reply
        answers this round — so ``view`` holds every write that completed
        before the round began, and two rounds' views are ⪯-ordered in
        real time.  None of that asks which majority matched.

        A round can end short of a majority (Algorithm 3's ends when task
        results arrive instead), so too few replies are no quorum.
        """
        clock = view.vector_clock()
        matching = sum(ack_clock(reply) == clock for reply in replies)
        return matching >= self.majority

    def query_collector(
        self, kind: str, match: Callable[[int, Message], bool]
    ) -> AckCollector:
        """The collector of one snapshot query round: its replies decide it.

        The round's view is ``reg`` now, as its first broadcast carries
        it.  Past its first majority the round reads on until its replies
        decide it: it succeeds once :meth:`equivalence_quorum` holds over
        them, and fails once more than ``n − majority`` of them differ
        from the view, so that it could not hold even if every node yet
        to reply named the view.  A majority that leaves it undecided ends
        it at the next retransmission instant
        (:func:`~repro.net.quorum.broadcast_until`), which does not
        re-send; the caller's next round has a fresh view and ``ssn``.
        """
        view = self.reg.copy()
        clock = view.vector_clock()
        slack = self.config.n - self.majority

        def decided(replies: list[Message]) -> bool:
            # A reply's named clock stands for its items: ack_clock of a
            # clock is the clock.  Each is derived once per message.
            clocks = [_named_clock(reply) for reply in replies]
            if self.equivalence_quorum(view, clocks):
                return True
            return sum(named != clock for named in clocks) > slack

        return AckCollector(
            self, kind, self.majority, match=match, decided=decided
        )

    async def query_round(
        self,
        kind: str,
        match: Callable[[int, Message], bool],
        make_message: Callable[[], Message],
        watches: Watches | None = None,
        wanted: Callable[[], bool] | None = None,
    ) -> list[tuple[AckItem, ...]]:
        """Broadcast ``make_message()`` until the :meth:`query_collector`
        replies decide the round (``watches`` and ``wanted`` as in
        :func:`~repro.net.quorum.broadcast_until`); merge and return them."""
        with self.query_collector(kind, match) as collector:
            await broadcast_until(
                self, make_message, collector, watches=watches, wanted=wanted
            )
            views = [msg.reg for msg in collector.reply_messages()]
        self.merge(views)
        return views

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


#: The kinds whose replies name a register array: their latest one from
#: each peer is that peer's clock.
_ARRAY_ACK_KINDS = ("WRITEack", "SNAPSHOTack")


def _named_clock(message: Message) -> tuple[int, ...]:
    """``ack_clock(message.reg)``, derived once per message object.

    Kept in the message's ``__dict__`` beside its cached wire size, so
    the peer-clock sink and a write round's match predicate share one
    derivation per ack; a packet corrupted in place drops it through
    :func:`~repro.net.message.invalidate_wire_cache`.
    """
    cache = message.__dict__
    clock = cache.get("_clock")
    if clock is None:
        clock = cache["_clock"] = ack_clock(message.reg)
    return clock


class _PeerClockSink:
    """Keeps each peer's latest register-array ack clock (``peer_clocks``).

    An ack sink rather than a handler, so every ack collector, and any
    handler a test installs for an ack kind, still sees the ack.  The
    sink sees every ack, in a round or not, so one whose items are not
    ``n`` timestamps and pairs (a datagram that decoded to nonsense) is
    garbage and changes nothing, as a packet lost would.
    """

    __slots__ = ("_process",)

    def __init__(self, process: SnapshotAlgorithm) -> None:
        self._process = process

    def offer(self, sender: int, message: Message) -> bool:
        process = self._process
        if sender == process.node_id:
            return False
        try:
            clock = _named_clock(message)
        except (AttributeError, TypeError):
            return False
        if len(clock) == process.config.n:
            process.peer_clocks[sender] = clock
        return False


@dataclass(eq=False, slots=True)
class WriteDeposit:
    """``writePending``'s content: a value, its writer, and its fate."""

    op: OpId
    value: Any
    taken: bool = False  # the loop's baseWrite has started on it
    ts: int | None = None  # the timestamp baseWrite wrote it under
    dropped: bool = False  # a detectable restart discarded it


class DepositedWrites(SnapshotAlgorithm):
    """The write of Algorithms 2 and 3: a deposit the do-forever loop serves.

    The loop clears ``write_pending`` only if it still holds the deposit
    it served, so a write deposited while the loop serves an abandoned
    one waits for its own round and returns its own timestamp.

    A deposit wakes the loop (:meth:`~repro.net.node.Process.wake`): the
    paper runs the loop back to back, so its write waits for the next
    iteration, not for the rest of a gossip period.  Algorithm 3's
    snapshot task wakes it the same way
    (:meth:`~repro.core.ss_always.SelfStabilizingAlwaysTerminating.snapshot`).

    Every wait on the node's state (the writer's, a snapshot's, Algorithm
    3's query round) is a watch in :attr:`watches`, which :meth:`_notify`
    tests after each step that may change state: a waiter resumes only
    once its own condition holds.  The watches outlive a detectable
    restart, as the client operations waiting on them do.
    """

    def initialize_state(self) -> None:
        """An empty slot; a restart drops the deposit and fails its writer."""
        dropped = getattr(self, "write_pending", None)
        super().initialize_state()
        self.write_pending: WriteDeposit | None = None
        if not hasattr(self, "watches"):
            self.watches = Watches(self.kernel)
        if dropped is not None:
            dropped.dropped = True
            self._notify()  # its writer watches for this

    def _notify(self) -> None:
        """Test the watches: this node's state may have changed."""
        self.watches.notify()

    async def _wait_until(self, condition: Callable[[], bool]) -> None:
        """Block until ``condition()`` holds, as :meth:`_notify` finds it."""
        await self.watches.until(condition)

    async def write(self, value: Any) -> int:
        """Deposit the value; if cancelled, withdraw it unless it was taken."""
        with self.operation("write") as op:
            deposit = self.write_pending = WriteDeposit(op, value)
            if self.obs is not None:
                self.obs.phase("write.deposited")
            self._notify()
            self.wake()
            try:
                await self._wait_until(
                    lambda: deposit.ts is not None or deposit.dropped
                )
            finally:
                if self.write_pending is deposit and not deposit.taken:
                    self.write_pending = None
            if deposit.dropped:
                raise NodeCrashedError(f"{op}: lost to a detectable restart")
            return deposit.ts

    async def serve_write(self) -> None:
        """``baseWrite`` the deposit, if any (Algorithm 2 line 38, 3 line 79)."""
        deposit = self.write_pending
        if deposit is not None:
            deposit.taken = True
            deposit.ts = await self.base_write(deposit.value)
            if self.write_pending is deposit:
                self.write_pending = None
            self._notify()
