"""Quorum service: the ``repeat broadcast … until majority`` pattern.

Every client-side phase of every algorithm in the paper has the shape

    repeat broadcast M until matching replies received from a majority

executed on top of channels that lose, duplicate, and reorder packets.
The paper assumes a *quorum service* (citing Dolev-Petig-Schiller §13)
that masks those channel failures; this module is that service:

* :class:`AckCollector` gathers replies from **distinct** senders that
  satisfy a match predicate (duplicates collapse; stale or reordered
  replies are rejected by the predicate, e.g. ``ssnJ = ssn`` or
  ``regJ ⪰ lReg``).  A round is over once a threshold of them has come,
  or, for a *decided* round, once they also decide it: after its first
  majority a snapshot query round keeps reading the replies it paid for
  (every query goes to all n nodes) until some majority of them names
  the view it broadcast, or so many differ that none can.
* :func:`broadcast_until` re-broadcasts the request on a fixed interval
  until the collector is done — under communication fairness, a message
  sent infinitely often is received infinitely often, so termination
  follows whenever a majority of nodes is alive.  A decided round that
  a majority has answered but nothing has decided ends at the next
  retransmission instant instead of re-sending, so a crashed peer's
  missing reply costs at most one interval.  An optional wake ends a
  round whose work went away (Algorithm 3's, once ``SAVE`` resolved it).

Messages owed outside a round go to :class:`~repro.net.outbox.Outbox`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from repro.net.message import Message
from repro.net.node import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.kernel import Event

__all__ = ["AckCollector", "broadcast_until"]


class AckCollector:
    """Collects matching replies from distinct senders up to a threshold.

    With ``decided``, the round also needs its replies to decide it: the
    collector is done once a threshold of replies has come and
    ``decided`` holds over all of them, or when :meth:`expire` ends it
    undecided.
    """

    def __init__(
        self,
        process: Process,
        kind: str,
        threshold: int,
        match: Callable[[int, Message], bool] | None = None,
        decided: Callable[[list[Message]], bool] | None = None,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self._process = process
        self._kind = kind
        self._threshold = threshold
        self._match = match
        self._decided = decided
        self._replies: dict[int, Message] = {}
        self._event = process.kernel.create_event()
        self._round = None

    # -- lifecycle --------------------------------------------------------------

    def __enter__(self) -> "AckCollector":
        # Attribution: open a quorum-round record on the node's obs
        # struct.  The round outlives the collector — replies landing
        # after the quorum completed are exactly the stragglers the
        # blame tables exist to expose (see repro.obs.attribution).
        obs = self._process.obs
        if obs is not None:
            self._round = obs.begin_round(self._kind, self._threshold)
        self._process.add_ack_sink(self._kind, self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._process.remove_ack_sink(self._kind, self)

    # -- collection ---------------------------------------------------------------

    def offer(self, sender: int, message: Message) -> bool:
        """Feed one arriving reply; returns whether it was accepted."""
        if self._match is not None and not self._match(sender, message):
            return False
        replies = self._replies
        replies[sender] = message
        if len(replies) >= self._threshold and not self._event.is_set():
            decided = self._decided
            if decided is None or decided(list(replies.values())):
                self._end(sender)
        return True

    def expire(self) -> None:
        """End the round undecided (a retransmission instant came first)."""
        if not self._event.is_set():
            self._end(None)

    def _end(self, decider: int | None) -> None:
        round_ = self._round
        if round_ is not None and round_.end is None:
            round_.completer = decider
            round_.end = self._process.kernel.now
        self._event.set()

    @property
    def satisfied(self) -> bool:
        """Whether the threshold has been reached."""
        return len(self._replies) >= self._threshold

    @property
    def done(self) -> bool:
        """Whether the round is over: decided, or expired."""
        return self._event.is_set()

    @property
    def replies(self) -> dict[int, Message]:
        """Accepted replies, keyed by sender (last reply per sender wins)."""
        return dict(self._replies)

    def reply_messages(self) -> list[Message]:
        """The accepted reply messages (the ``Rec`` set of ``merge(Rec)``)."""
        return list(self._replies.values())

    async def wait(self) -> None:
        """Block until the round is over."""
        await self._event.wait()


async def broadcast_until(
    process: Process,
    make_message: Callable[[], Message],
    collector: AckCollector,
    include_self: bool = True,
    wake: Event | None = None,
    wanted: Callable[[], bool] | None = None,
) -> None:
    """Re-broadcast ``make_message()`` until ``collector`` is done.

    The message is rebuilt on every retransmission so that it carries the
    node's *current* state (the paper's loops re-broadcast ``reg`` which
    may have been merged meanwhile).  A retransmission instant that finds
    the threshold reached but the round undecided expires the round
    instead.  While the node is crashed the loop holds at the step gate;
    on resume it picks up where it left off (undetectable restart).

    With ``wake``, setting that event between retransmission instants
    re-tests ``wanted``: once it is false the round ends at once, with
    the collector not done; a wake that leaves it true sends nothing.
    """
    interval = process.config.retransmit_interval
    next_send = -math.inf
    while not collector.done and (wanted is None or wanted()):
        await process.gate.passthrough()
        now = process.kernel.now
        if now >= next_send:
            if collector.satisfied:
                collector.expire()  # an undecided majority: no re-send
                break
            if next_send != -math.inf:
                # Every broadcast after the first is a retransmission.
                process.outbox.retransmitted()
            process.broadcast(make_message(), include_self=include_self)
            next_send = now + interval
        if wake is None:
            # wait_for draws the kernel RNG differently from first_of, and
            # this path expires before the step gate: the schedule every
            # wake-less round always had.
            try:
                await process.kernel.wait_for(collector.wait(), timeout=interval)
            except TimeoutError:
                if collector.satisfied:
                    collector.expire()
        else:
            wake.clear()
            await process.kernel.first_of(
                collector.wait(),
                wake.wait(),
                timeout=max(next_send - process.kernel.now, 0.0) or interval,
            )
