"""The paper's Algorithm 1: self-stabilizing non-blocking snapshot object.

Extends the DGFR non-blocking baseline with the boxed code lines:

* ``merge`` additionally absorbs the largest observed own-entry timestamp
  into ``ts`` (line 6);
* a do-forever loop that discards stale ``SNAPSHOTack`` replies (line 9),
  re-asserts ``ts ≥ reg[i].ts`` (line 10), and gossips to every ``p_k``
  the timestamp of ``reg[k]`` (line 11) — O(n²) gossip messages per
  cycle, each of constant size whatever n and ν are;
* a ``GOSSIP`` handler that absorbs the arriving own-entry timestamp and,
  when a peer knows a newer own entry, pulls the entry itself and merges
  its value and timestamp (lines 24–25).

Line 11's ``GOSSIP(reg[k])`` ships the entry; this implementation ships a
digest and lets the entry travel only when the owner is behind (see
:class:`GossipMessage`).  Definition 1 constrains indices only, and in a
legitimate execution the owner's own entry is always the freshest copy,
so the entry a gossip carries is never news until a fault makes it so.

Requests stand in for digests: every ``WRITE`` and ``SNAPSHOT`` names
``reg[k].ts`` to each ``p_k`` — shipping the entry where ``p_k`` may
lack it, eliding it where ``p_k``'s latest ack named that timestamp
already (:meth:`~repro.core.base.SnapshotAlgorithm.request_items`) —
and a ``READ(j, …)`` carries ``reg[j]`` to ``p_j``, which is all a
digest says; a request *from* ``p_k`` names its own entry's timestamp,
which a digest would only echo.  So while an operation is in flight, a
tick skips the digest to a peer whose *current* ``reg[k].ts`` a request
since the previous tick named either way (:class:`RequestEvidence`,
emptied every tick, so a scrambled one costs at most one digest per
peer; Algorithm 3 shares the rule).  Idle, all n(n−1) digests still go
out each cycle.

Together these guarantee Theorem 1: within O(1) asynchronous cycles of a
fair execution, ``ts_i`` dominates every timestamp attributed to ``p_i``
anywhere in the system, after which a fresh write's ``ts+1`` is globally
maximal and the object behaves exactly like the baseline.  Benchmark E7
measures this recovery; E2 measures the gossip overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.base import ReadMessage, SnapshotAlgorithm, WriteMessage
from repro.core.dgfr_nonblocking import DgfrNonBlocking, SnapshotMessage
from repro.core.register import AckItem, TimestampedValue, ack_clock
from repro.net.message import Message

__all__ = [
    "SelfStabilizingNonBlocking",
    "RequestEvidence",
    "GossipMessage",
    "GossipPullMessage",
]


@dataclass(frozen=True)
class GossipMessage(Message):
    """``GOSSIP(ts, entry)``: p_k's own entry as the sender knows it (line 11).

    The do-forever loop sends a *digest*: ``ts`` is the sender's
    ``reg[k].ts`` and ``entry`` is ``None``, a constant-size message
    (Contribution (1) bounds it by O(ν) bits).  ``entry`` is present only
    in the answer to a :class:`GossipPullMessage`, and then ``ts`` is
    that entry's timestamp.
    """

    KIND = "GOSSIP"
    ts: int
    entry: TimestampedValue | None


@dataclass(frozen=True)
class GossipPullMessage(Message):
    """``GOSSIPpull``: "my own entry is behind yours; send it".

    A digest's receiver sends it when the digest names a newer own-entry
    timestamp than it holds; the sender answers with a full
    :class:`GossipMessage` carrying its current copy of the receiver's
    entry.  Neither end remembers the exchange.
    """

    KIND = "GOSSIPpull"


class RequestEvidence(SnapshotAlgorithm):
    """Requests stand in for digests: the one skip rule of both loops.

    Every ``WRITE`` and ``SNAPSHOT`` names ``reg[k].ts`` to each ``p_k``,
    shipped or elided, and a ``READ(j, …)`` carries ``reg[j]`` to
    ``p_j``; a request *from* ``p_k`` names ``p_k``'s own entry.  Either
    way ``p_k`` learns what a digest naming that timestamp would tell it.
    ``_told`` keeps, per peer ``k``, a ``reg[k].ts`` that a request since
    the last do-forever tick carried in either direction; the tick
    (:meth:`digest_peers`) skips the digest to ``p_k`` while an operation
    is in flight and :meth:`stands_in` holds, then empties the evidence,
    so nothing in it outlives one gossip period — a corrupted ``_told``
    suppresses at most one digest per peer.  A tick that repairs the
    node's own state empties it first (:meth:`forget_evidence`): the
    fault it detected may have written the evidence too.  Algorithm 3
    adds its ``sns`` half to the same rule (:mod:`repro.core.ss_always`).
    """

    #: The kinds of the requests that name every ``reg[k].ts``.
    _ARRAY_REQUEST_KINDS = ("WRITE", "SNAPSHOT")

    def initialize_state(self) -> None:
        """Adds the evidence, empty: ``_told`` maps peer ``k`` → a ``reg[k].ts``."""
        super().initialize_state()
        self.forget_evidence()

    def forget_evidence(self) -> None:
        """Empty the evidence (every tick, a tick's repair of local state,
        and a bounded variant's reset)."""
        self._told: dict[int, int] = {}

    def stands_in(self, k: int) -> bool:
        """Whether requests since the last tick told ``p_k`` what its digest would."""
        return self._told.get(k) == self.reg[k].ts

    def digest_peers(self) -> list[int]:
        """The peers this tick gossips to; empties the evidence.

        Idle, every peer: there are no requests to stand in for anything,
        so recovery from an arbitrary state (evidence scrambled to match
        included) never waits on one.
        """
        peers = self.peers()
        if self.busy:
            peers = [k for k in peers if not self.stands_in(k)]
        self.forget_evidence()
        return peers

    def broadcast(self, message: Message, include_self: bool = True) -> None:
        """Broadcast, noting which own-entry timestamps a request carried.

        ``WRITE(lReg)`` and ``SNAPSHOT(reg, ssn)`` name ``reg[k].ts`` to
        every ``p_k``, shipped or elided; a ``READ(j, entry, tag)``
        carries ``reg[j]`` to ``p_j`` only.  Each receiver merges what
        the request ships (``_on_write``, ``_on_snapshot_query``,
        ``_on_read``) and answers the timestamp it names, which tells
        ``p_k`` as much as a digest would.  A crashed node sends nothing,
        so it tells nobody anything.
        """
        if self.gate.is_open:
            told = self._told
            if message.KIND in self._ARRAY_REQUEST_KINDS:
                clock = ack_clock(message.reg)
                for k in self.peers():
                    told[k] = clock[k]
            elif isinstance(message, ReadMessage) and message.j != self.node_id:
                told[message.j] = message.entry.ts
        super().broadcast(message, include_self)

    # -- a peer's request names its own entry ---------------------------------------

    def _on_write(self, sender: int, message: WriteMessage) -> None:
        super()._on_write(sender, message)
        self.heard_request(sender, message)

    def _on_read(self, sender: int, message: ReadMessage) -> None:
        super()._on_read(sender, message)
        if message.j == sender:
            self._heard(sender, message.entry)

    def heard_request(self, sender: int, message: Message) -> None:
        """Note what ``p_sender``'s ``WRITE`` or ``SNAPSHOT`` showed us.

        Its ``reg`` names ``p_sender``'s own ``reg[sender].ts``.  The
        ``WRITE`` and ``SNAPSHOT`` handlers call this, after merging.
        """
        self._heard(sender, message.reg[sender])

    def _heard(self, sender: int, item: AckItem) -> None:
        """Note the own entry ``p_sender``'s request showed us.

        ``p_k``'s ``WRITE`` and ``SNAPSHOT`` name its own ``reg[k].ts``,
        and its ``READ(k, …)`` carries that entry.  Its own entry only
        grows outside a fault, and line 10 keeps ``ts`` above it, so a
        digest naming that timestamp would tell ``p_k`` nothing.  Only
        the three request handlers call this: acks and digests, most of
        the traffic, note nothing.
        """
        if sender == self.node_id:
            return
        ts = item if isinstance(item, int) else item.ts
        told = self._told
        if told.get(sender, -1) < ts:
            told[sender] = ts


class SelfStabilizingNonBlocking(RequestEvidence, DgfrNonBlocking):
    """Algorithm 1 with the boxed self-stabilizing additions enabled."""

    SELF_STABILIZING = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.register_handler(GossipMessage.KIND, self._on_gossip)
        self.register_handler(GossipPullMessage.KIND, self._on_gossip_pull)

    def _on_snapshot_query(self, sender: int, message: SnapshotMessage) -> None:
        super()._on_snapshot_query(sender, message)
        self.heard_request(sender, message)

    # -- do-forever loop (lines 8–11) ---------------------------------------------

    async def do_forever_iteration(self) -> None:
        """One body of the do-forever loop: cleanup and gossip.

        Line 9's ``delete SNAPSHOTack(-, ssn')`` is structural in this
        implementation: ack collectors filter on the current ``ssn`` and
        hold no non-matching replies, so stale acks are never stored.
        Line 10 heals a ``ts`` that a transient fault pushed below the
        node's own register timestamp; line 11 tells every node the
        timestamp of its own entry as seen here, so a corrupted-low entry
        anywhere is healed within a round trip (two for its value).  While
        an operation is in flight, a peer whose current ``reg[k].ts`` a
        request since the last tick carried, in either direction, gets no
        digest this tick.  Idle, every digest goes out, so recovery from
        an arbitrary state (a ``_told`` scrambled to match included) never
        waits on one.
        """
        reg_ts = self.reg[self.node_id].ts
        if self.ts < reg_ts:
            # The branch only fires when local evidence contradicts ``ts``
            # (a transient fault or restart pushed it low) — that is a
            # corrupted-state detection, counted for E7/E8.  It voids the
            # digest-skip evidence too: this tick gossips to every peer.
            self.ts = reg_ts
            self.forget_evidence()
            if self.obs is not None:
                self.obs.ts_heals += 1
        for peer in self.digest_peers():
            self.send(peer, GossipMessage(ts=self.reg[peer].ts, entry=None))

    # -- gossip server side (lines 24–25) --------------------------------------------

    def _on_gossip(self, sender: int, message: GossipMessage) -> None:
        """Absorb the own-entry timestamp; pull or merge the entry."""
        i = self.node_id
        if message.entry is None:
            if message.ts > self.reg[i].ts:
                # A peer knows a larger own-entry timestamp than we do: in
                # a legitimate execution our local entry is always
                # freshest (it is installed before broadcast), so this is
                # gossip healing a corrupted-low entry.
                if self.obs is not None:
                    self.obs.ts_heals += 1
                self.send(sender, GossipPullMessage())
            self.ts = max(self.ts, message.ts)
            return
        self.reg.merge_entry(i, message.entry)
        self.ts = max(self.ts, message.ts, self.reg[i].ts)

    def _on_gossip_pull(self, sender: int, message: GossipPullMessage) -> None:
        """Answer a pull with the full entry the sender is behind on."""
        entry = self.reg[sender]
        self.send(sender, GossipMessage(ts=entry.ts, entry=entry))
