"""Deliberately buggy algorithms shared across test modules.

Kept out of the ``test_*`` namespace so pytest never collects this file:
under importlib import mode pytest gives each test file its own module
object, so defining (and registering) an algorithm inside a test module
that other tests also ``import`` plainly would execute the registration
twice with two distinct classes.  A plain helper module is imported
exactly once through ``sys.path`` (see ``conftest.py``).
"""

from repro.core.amortized import AmortizedSnapshot
from repro.core.cluster import register_algorithm
from repro.core.dgfr_nonblocking import DgfrNonBlocking
from repro.core.ss_always import SelfStabilizingAlwaysTerminating
from repro.core.ss_nonblocking import SelfStabilizingNonBlocking


class BrokenFirstAckOnly(DgfrNonBlocking):
    """Deliberately wrong: the snapshot merges only the FIRST ack instead
    of a full majority, and takes that one ack for a quorum — a
    quorum-intersection bug.  Which ack arrives first is a pure
    scheduling choice, so only some interleavings return a stale
    (non-linearizable) view; finding one is the model checker's (and the
    fuzzer's) job."""

    def equivalence_quorum(self, view, replies) -> bool:
        from repro.core.register import ack_clock

        clock = view.vector_clock()
        return all(ack_clock(reply) == clock for reply in replies)

    async def _query_round(self):
        from repro.core.dgfr_nonblocking import (
            SnapshotAckMessage,
            SnapshotMessage,
        )
        from repro.net.quorum import AckCollector, broadcast_until

        def matches(sender: int, msg) -> bool:
            return msg.ssn == self.ssn and sender != self.node_id

        with AckCollector(
            self, SnapshotAckMessage.KIND, 1, match=matches
        ) as collector:
            await broadcast_until(
                self,
                lambda: SnapshotMessage(reg=self.reg.copy(), ssn=self.ssn),
                collector,
            )
            views = [msg.reg for msg in collector.reply_messages()[:1]]
        self.merge(views)
        return views


register_algorithm("broken-first-ack", BrokenFirstAckOnly)


class BrokenAlwaysEquivalent(AmortizedSnapshot):
    """Deliberately wrong: the shared round's success test is always
    true — a round returns the view it broadcast whether or not every
    reply of its majority reported exactly that view.  A write a reply
    already carried is then missing from the returned view, which is
    stale only if that write had completed: a race between rounds of
    different nodes that takes real concurrency to hit."""

    def equivalence_quorum(self, view, replies) -> bool:
        return True


register_algorithm("broken-always-equivalent", BrokenAlwaysEquivalent)


class BrokenLocalRead(DgfrNonBlocking):
    """Deliberately wrong: ``read(j)`` returns the local ``reg[j]`` with
    no quorum round.  A node that already received an in-flight WRITE
    returns its timestamp while a majority still holds the old one, so a
    later snapshot elsewhere can return the older entry — a new–old
    inversion."""

    async def read(self, j: int):
        return self.reg[j]


register_algorithm("broken-local-read", BrokenLocalRead)


class BrokenNoWriteBack(DgfrNonBlocking):
    """Deliberately wrong: ``read(j)`` returns the largest entry of its
    majority without writing it back when the majority disagreed, so
    the returned entry may be held by a single server."""

    async def read(self, j: int):
        replies = await self.entry_round(j, self.reg[j])
        top = max(replies, key=lambda entry: entry.ts)
        self.merge_entry(j, top)
        return top


register_algorithm("broken-no-write-back", BrokenNoWriteBack)


class BrokenEchoTrust(DgfrNonBlocking):
    """Deliberately wrong: an ack without an entry is taken to mean "what
    you sent" under *whatever* timestamp the ack names, instead of under
    the request's timestamp only.  Servers never send such an ack, so the
    bug sleeps until one in-flight READack is corrupted — and then the
    reader returns its own stale value under a timestamp no write of
    that value ever had."""

    async def entry_round(self, j: int, entry):
        from repro.core.base import ReadAckMessage, ReadMessage
        from repro.core.register import TimestampedValue
        from repro.net.quorum import AckCollector, broadcast_until

        self.tag += 1
        tag = self.tag
        message = ReadMessage(j=j, entry=entry, tag=tag)

        def matches(sender: int, msg) -> bool:
            return msg.tag == tag and msg.j == j and msg.ts >= entry.ts

        with AckCollector(
            self, ReadAckMessage.KIND, self.majority, match=matches
        ) as collector:
            await broadcast_until(self, lambda: message, collector)
            return [
                msg.entry or TimestampedValue(msg.ts, entry.value)
                for msg in collector.reply_messages()
            ]


register_algorithm("broken-echo-trust", BrokenEchoTrust)


class BrokenAckTrustCurrent(DgfrNonBlocking):
    """Deliberately wrong: an elided WRITEack item is read as the writer's
    *current* entry instead of the entry of the request it answers.  An
    ack to the previous write round, arriving late, then names this
    round's own timestamp, so a write is acknowledged before it reaches a
    majority."""

    async def write_round(self, l_reg):
        from repro.core.base import WriteAckMessage, WriteMessage
        from repro.net.quorum import AckCollector, broadcast_until

        def matches(sender: int, msg) -> bool:
            view = [
                self.reg[j].ts if isinstance(item, int) else item.ts
                for j, item in enumerate(msg.reg)
            ]
            return all(mine.ts <= ts for mine, ts in zip(l_reg, view))

        def message():
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


register_algorithm("broken-ack-trust-current", BrokenAckTrustCurrent)


class BrokenDigestNoPull(SelfStabilizingNonBlocking):
    """Deliberately wrong: a gossip digest that names a newer own-entry
    timestamp raises ``ts`` but never pulls the entry.  Definition 1
    constrains indices only, so every invariant heals; what stays lost
    is the owner's *value* — after a detectable restart the owner's own
    ``reg[i]`` is ⊥ while its peers hold its last write."""

    def _on_gossip(self, sender: int, message) -> None:
        self.ts = max(self.ts, message.ts)


register_algorithm("broken-digest-no-pull", BrokenDigestNoPull)


class BrokenGossipSticky(SelfStabilizingNonBlocking):
    """Deliberately wrong: the do-forever tick never empties ``_told``, so
    a request's word stands in for every later digest to its receiver.
    While a peer's operation waits, an owner whose entry a fault lowered
    hears nothing from a peer whose last full request told it the current
    timestamp, and stays behind as long as the operation does."""

    async def do_forever_iteration(self) -> None:
        told = dict(self._told)
        await super().do_forever_iteration()
        self._told.update(told)


register_algorithm("broken-gossip-sticky", BrokenGossipSticky)


class BrokenAlwaysGossipSticky(SelfStabilizingAlwaysTerminating):
    """Deliberately wrong, Algorithm 3's twin of ``broken-gossip-sticky``:
    the do-forever tick never empties the digest-skip evidence (``_told``
    and ``_heard_sns``), so requests a peer once saw stand in for every
    later digest to their peer, and an owner whose entry a fault lowered
    stays behind as long as that peer's operation waits."""

    async def do_forever_iteration(self) -> None:
        told, heard = self._told, self._heard_sns
        await super().do_forever_iteration()
        # The tick emptied both; what requests noted since stays on top.
        self._told = {**told, **self._told}
        self._heard_sns = {**heard, **self._heard_sns}


register_algorithm("broken-always-gossip-sticky", BrokenAlwaysGossipSticky)


class BrokenDeltaByTs(AmortizedSnapshot):
    """Deliberately wrong: a key-map delta is applied to whatever copy a
    server holds below its timestamp, without checking the base digest.
    A copy whose content a fault changed under an unchanged timestamp
    then takes the delta and keeps the fault, now under the writer's new
    timestamp, where no later merge by timestamp can replace it."""

    def _on_read(self, sender: int, message) -> None:
        from dataclasses import replace

        from repro.core.register import KeyDelta, KeyMap, TimestampedValue

        delta = message.entry
        if isinstance(delta, KeyDelta) and 0 <= message.j < self.config.n:
            mine = self.reg[message.j]
            copy = KeyMap.of(mine.value)
            if mine.ts < delta.ts and copy is not None:
                whole = TimestampedValue(delta.ts, copy.apply_delta(delta))
                message = replace(message, entry=whole)
        super()._on_read(sender, message)


register_algorithm("broken-delta-by-ts", BrokenDeltaByTs)


class BrokenWriteHandoff(SelfStabilizingAlwaysTerminating):
    """Deliberately wrong: the write deposit's identity is ignored.  The
    loop clears whatever the slot holds once a ``baseWrite`` ends, and a
    write returns ``reg[i].ts``.  A write deposited while the loop still
    serves an abandoned one is then acknowledged with the abandoned
    write's timestamp, and its own value is never written."""

    async def serve_write(self) -> None:
        deposit = self.write_pending
        if deposit is not None:
            await self.base_write(deposit.value)
            self.write_pending = None
            self._notify()

    async def write(self, value):
        from repro.core.base import WriteDeposit

        with self.operation("write") as op:
            self.write_pending = WriteDeposit(op, value)
            self._notify()
            await self._wait_until(lambda: self.write_pending is None)
            return self.reg[self.node_id].ts


register_algorithm("broken-write-handoff", BrokenWriteHandoff)
