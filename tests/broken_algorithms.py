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


class BrokenFirstAckOnly(DgfrNonBlocking):
    """Deliberately wrong: the snapshot merges only the FIRST ack instead
    of a full majority — a quorum-intersection bug.  Which ack arrives
    first is a pure scheduling choice, so only some interleavings return
    a stale (non-linearizable) view; finding one is the model checker's
    (and the fuzzer's) job."""

    async def _query_round(self) -> None:
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
            replies = collector.reply_messages()
        self.merge(msg.reg for msg in replies[:1])


register_algorithm("broken-first-ack", BrokenFirstAckOnly)


class BrokenAlwaysEquivalent(AmortizedSnapshot):
    """Deliberately wrong: the shared round's success test is always
    true — a round returns the view it broadcast whether or not every
    reply of its majority reported exactly that view.  A write a reply
    already carried is then missing from the returned view, which is
    stale only if that write had completed: a race between rounds of
    different nodes that takes real concurrency to hit."""

    def _settle_scans(self, scans, view, replies) -> None:
        super()._settle_scans(scans, view, [])


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
