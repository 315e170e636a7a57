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
  missing reply costs at most one interval.  With :class:`Watches` a
  round also ends once its work went away (Algorithm 3's, once ``SAVE``
  resolved it): each retransmission interval waits on one future, which
  the collector's end, the interval's timer or a watch of the round's
  "no longer wanted" condition completes, whichever comes first.
* :class:`Watches` holds a node's predicate waits: each is a condition
  and a future, tested when the node's state changes and completed once
  the condition holds, so a state change that decides nothing costs no
  task and no kernel event.

Messages owed outside a round go to :class:`~repro.net.outbox.Outbox`.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.net.message import Message
from repro.net.node import Process, complete

__all__ = ["AckCollector", "Watches", "broadcast_until"]


class Watches:
    """Predicate waits on one node's state, tested where it changes.

    :meth:`watch` pairs a condition with a future; :meth:`notify`, which
    the node calls after each step that may change what a condition
    reads, tests every pair inline and completes the futures whose
    condition now holds.  A notify that completes nothing schedules
    nothing.  Only ``create_future``, ``done`` and ``set_result`` are
    used, so a watch works on every kernel.
    """

    __slots__ = ("_kernel", "_pending")

    def __init__(self, kernel: Any) -> None:
        self._kernel = kernel
        self._pending: list[tuple[Callable[[], bool], Any]] = []

    def watch(self, condition: Callable[[], bool], future: Any) -> None:
        """Complete ``future`` at the first :meth:`notify` that finds
        ``condition()`` true (a future done by then is dropped)."""
        self._pending.append((condition, future))

    def notify(self) -> None:
        """Test every watch; complete those whose condition holds."""
        pending = self._pending
        if not pending:
            return
        kept = []
        for watch in pending:
            condition, future = watch
            if future.done():
                continue
            if condition():
                future.set_result(None)
            else:
                kept.append(watch)
        self._pending = kept

    async def until(self, condition: Callable[[], bool]) -> None:
        """Return once ``condition()`` holds: one watch per wait, and the
        condition re-tested when the waiter resumes."""
        while not condition():
            held = self._kernel.create_future()
            self.watch(condition, held)
            await held


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
        self._ended = False
        self._waiters: list = []  # futures completed at the round's end
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
        if len(replies) >= self._threshold and not self._ended:
            decided = self._decided
            if decided is None or decided(list(replies.values())):
                self._end(sender)
        return True

    def expire(self) -> None:
        """End the round undecided (a retransmission instant came first)."""
        if not self._ended:
            self._end(None)

    def _end(self, decider: int | None) -> None:
        round_ = self._round
        if round_ is not None and round_.end is None:
            round_.completer = decider
            round_.end = self._process.kernel.now
        self._ended = True
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            complete(waiter)

    @property
    def satisfied(self) -> bool:
        """Whether the threshold has been reached."""
        return len(self._replies) >= self._threshold

    @property
    def done(self) -> bool:
        """Whether the round is over: decided, or expired."""
        return self._ended

    @property
    def replies(self) -> dict[int, Message]:
        """Accepted replies, keyed by sender (last reply per sender wins)."""
        return dict(self._replies)

    def reply_messages(self) -> list[Message]:
        """The accepted reply messages (the ``Rec`` set of ``merge(Rec)``)."""
        return list(self._replies.values())

    def add_waiter(self, future: Any) -> None:
        """Complete ``future`` when the round ends (it may be done first)."""
        self._waiters.append(future)

    async def wait(self) -> None:
        """Block until the round is over."""
        if not self._ended:
            waiter = self._process.kernel.create_future()
            self._waiters.append(waiter)
            await waiter


async def broadcast_until(
    process: Process,
    make_message: Callable[[], Message],
    collector: AckCollector,
    include_self: bool = True,
    watches: Watches | None = None,
    wanted: Callable[[], bool] | None = None,
) -> None:
    """Re-broadcast ``make_message()`` until ``collector`` is done.

    The message is rebuilt on every retransmission so that it carries the
    node's *current* state (the paper's loops re-broadcast ``reg`` which
    may have been merged meanwhile).  A retransmission instant that finds
    the threshold reached but the round undecided expires the round
    instead.  While the node is crashed the loop holds at the step gate;
    on resume it picks up where it left off (undetectable restart).

    With ``watches``, ``wanted`` is watched there: the round ends, with
    the collector not done, at the first :meth:`Watches.notify` that
    finds it false.  Each retransmission interval then waits on one
    future, which the collector's end, that watch or the interval's
    timer completes; a notify that leaves ``wanted`` true wakes nothing.
    """
    interval = process.config.retransmit_interval
    unwanted = None if wanted is None else (lambda: not wanted())
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
        if watches is None:
            # wait_for draws the kernel RNG differently from a watched
            # wait, and this path expires before the step gate: the
            # schedule every unwatched round always had.
            try:
                await process.kernel.wait_for(collector.wait(), timeout=interval)
            except TimeoutError:
                if collector.satisfied:
                    collector.expire()
        else:
            kernel = process.kernel
            woken = kernel.create_future()
            collector.add_waiter(woken)
            if unwanted is not None:
                watches.watch(unwanted, woken)
            kernel.call_later(
                max(next_send - kernel.now, 0.0) or interval, complete, woken
            )
            await woken
