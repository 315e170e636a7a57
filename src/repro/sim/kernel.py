"""Deterministic coroutine kernel for discrete-event simulation.

The paper models a distributed system as an interleaving of atomic *steps*
(Section 2).  This kernel is the step scheduler: it owns a simulated clock,
a priority queue of pending callbacks, and a set of tasks (coroutines).
Every source of nondeterminism is drawn from a single seeded RNG, so a run
is a pure function of ``(program, seed)`` — which is what makes the paper's
adversarial-scheduling and recovery claims mechanically testable.

The API deliberately mirrors a small subset of :mod:`asyncio`
(futures, tasks, ``sleep``, ``gather``) so that algorithm code written
against it reads like ordinary ``async`` Python and can also be driven by a
real asyncio loop through :mod:`repro.runtime`.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Awaitable, Callable, Coroutine, Generator, Iterable
from typing import Any

from repro.errors import (
    CancelledError,
    DeadlockError,
    InvalidTransitionError,
    SimulationError,
)

__all__ = [
    "Kernel",
    "SimFuture",
    "SimTask",
    "Event",
    "Gate",
    "TieBreak",
]

_PENDING = "pending"
_DONE = "done"
_CANCELLED = "cancelled"


class TieBreak:
    """Strategies for ordering events scheduled at the same simulated time.

    ``FIFO`` replays insertion order; ``RANDOM`` draws a random priority from
    the kernel RNG at scheduling time, which models an adversarial
    asynchronous scheduler while remaining deterministic per seed;
    ``SCRIPTED`` consults an explicit decision sequence at every
    same-instant choice point — the hook the stateless model checker
    (:mod:`repro.verify`) uses to enumerate interleavings exhaustively.
    """

    FIFO = "fifo"
    RANDOM = "random"
    SCRIPTED = "scripted"

    _VALID = (FIFO, RANDOM, SCRIPTED)


class SimFuture:
    """A single-assignment result container, awaitable from kernel tasks."""

    __slots__ = ("_kernel", "_state", "_result", "_exception", "_callbacks")

    def __init__(self, kernel: "Kernel") -> None:
        self._kernel = kernel
        self._state = _PENDING
        self._result: Any = None
        self._exception: BaseException | None = None
        self._callbacks: list[Callable[["SimFuture"], None]] = []

    # -- inspection --------------------------------------------------------

    def done(self) -> bool:
        """Return ``True`` once a result, exception, or cancellation is set."""
        return self._state != _PENDING

    def cancelled(self) -> bool:
        """Return ``True`` if the future was cancelled."""
        return self._state == _CANCELLED

    def result(self) -> Any:
        """Return the stored result, raising the stored exception if any."""
        if self._state == _PENDING:
            raise InvalidTransitionError("result() called on a pending future")
        if self._state == _CANCELLED:
            raise CancelledError("future was cancelled")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self) -> BaseException | None:
        """Return the stored exception, or ``None`` on success."""
        if self._state == _PENDING:
            raise InvalidTransitionError("exception() called on a pending future")
        if self._state == _CANCELLED:
            raise CancelledError("future was cancelled")
        return self._exception

    # -- completion --------------------------------------------------------

    def set_result(self, value: Any) -> None:
        """Complete the future successfully with ``value``."""
        if self._state != _PENDING:
            raise InvalidTransitionError(f"future already {self._state}")
        self._state = _DONE
        self._result = value
        self._schedule_callbacks()

    def set_exception(self, exc: BaseException) -> None:
        """Complete the future with an exception."""
        if self._state != _PENDING:
            raise InvalidTransitionError(f"future already {self._state}")
        if isinstance(exc, type):
            exc = exc()
        self._state = _DONE
        self._exception = exc
        self._schedule_callbacks()

    def cancel(self) -> bool:
        """Cancel the future; returns ``False`` if it was already done."""
        if self._state != _PENDING:
            return False
        self._state = _CANCELLED
        self._schedule_callbacks()
        return True

    def add_done_callback(self, callback: Callable[["SimFuture"], None]) -> None:
        """Run ``callback(self)`` when the future completes (or now if done)."""
        if self._state != _PENDING:
            self._kernel.call_soon(callback, self)
        else:
            self._callbacks.append(callback)

    def _schedule_callbacks(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self._kernel.call_soon(callback, self)

    # -- awaiting ----------------------------------------------------------

    def __await__(self) -> Generator["SimFuture", None, Any]:
        if self._state == _PENDING:
            yield self
        return self.result()


class SimTask(SimFuture):
    """A coroutine driven by the kernel; completes with the coroutine result."""

    __slots__ = ("_coro", "name", "_awaiting", "_must_cancel")

    def __init__(
        self, kernel: "Kernel", coro: Coroutine[Any, Any, Any], name: str = ""
    ) -> None:
        super().__init__(kernel)
        self._coro = coro
        self.name = name or getattr(coro, "__name__", "task")
        self._awaiting: SimFuture | None = None
        self._must_cancel = False
        kernel.call_soon(self._step, None)

    def __del__(self) -> None:
        # Tasks left unstarted when a run ends would otherwise trigger
        # "coroutine was never awaited" warnings at GC time.
        try:
            self._coro.close()
        except (RuntimeError, AttributeError):  # pragma: no cover
            pass

    def cancel(self) -> bool:
        """Request cancellation by injecting :class:`CancelledError`.

        Unlike a plain future, a running task observes the cancellation at
        its next suspension point, giving it a chance to clean up.
        """
        if self.done():
            return False
        self._must_cancel = True
        awaiting = self._awaiting
        if awaiting is not None and not awaiting.done():
            # Wake the task so it observes the cancellation promptly.
            awaiting.cancel()
        else:
            self._kernel.call_soon(self._step, None)
        return True

    def _step(self, completed: SimFuture | None) -> None:
        if self.done():
            return
        self._awaiting = None
        try:
            if self._must_cancel:
                self._must_cancel = False
                yielded = self._coro.throw(CancelledError("task cancelled"))
            elif completed is not None and completed.cancelled():
                yielded = self._coro.throw(CancelledError("awaited future cancelled"))
            elif completed is not None and completed.exception() is not None:
                yielded = self._coro.throw(completed.exception())
            else:
                yielded = self._coro.send(None)
        except StopIteration as stop:
            if not self.done():
                self.set_result(stop.value)
            return
        except CancelledError:
            if not self.done():
                super().cancel()
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced via the future
            if not self.done():
                self.set_exception(exc)
            return
        if not isinstance(yielded, SimFuture):
            self._fail_foreign_await(yielded)
            return
        self._awaiting = yielded
        yielded.add_done_callback(self._step)

    def _fail_foreign_await(self, yielded: Any) -> None:
        """Handle a coroutine awaiting something the kernel doesn't own.

        The error is thrown into the coroutine (so it can clean up), but —
        unlike a bare ``throw`` — the outcome always completes the task's
        future: a coroutine that swallows the error must not leave the task
        pending forever (no callback would ever fire again).
        """
        error = SimulationError(
            f"task {self.name!r} awaited a non-kernel object: {yielded!r}"
        )
        try:
            self._coro.throw(error)
        except StopIteration as stop:
            # The coroutine handled the error and returned normally.
            if not self.done():
                self.set_result(stop.value)
        except CancelledError:
            if not self.done():
                super().cancel()
        except BaseException as exc:  # noqa: BLE001 - surfaced via the future
            if not self.done():
                self.set_exception(exc)
        else:
            # The coroutine swallowed the error and yielded again; there is
            # nothing the kernel can resume it with — fail deterministically
            # instead of leaving the task pending forever.
            self._coro.close()
            if not self.done():
                self.set_exception(error)


def _close_unfinished(futures: Iterable[SimFuture]) -> None:
    """Close the coroutines of unfinished tasks whose awaiter was closed.

    A coroutine that awaits :meth:`Kernel.wait_for` or
    :meth:`Kernel.first_of` is closed when its task is dropped unfinished
    (a run that ends with it waiting).  The tasks those helpers made of
    the awaitables they were given then never run again, and one whose
    coroutine never started would be reported "never awaited" when the
    garbage collector reaches it.
    """
    for future in futures:
        if isinstance(future, SimTask) and not future.done():
            future._coro.close()


class _Timer(SimFuture):
    """A pooled one-shot timer future backing :meth:`Kernel.sleep`.

    ``sleep`` is the single hottest allocation site in a simulation (every
    retransmission loop and workload pacer sleeps once per iteration; the
    do-forever loop's sleep, which a write can end early, is its own).
    Instead of allocating a fresh future plus a guard lambda per
    sleep, the kernel recycles ``_Timer`` objects through a free list.  A
    generation counter makes stale heap entries harmless: a timer callback
    only completes the future if the generation it captured at scheduling
    time is still current (cancellation bumps the generation when the timer
    is recycled, so a late firing for a previous occupant is a no-op).
    """

    __slots__ = ("_gen",)

    def __init__(self, kernel: "Kernel") -> None:
        super().__init__(kernel)
        self._gen = 0

    def _fire(self, gen: int) -> None:
        if gen == self._gen and self._state == _PENDING:
            self.set_result(None)


class Event:
    """A level-triggered flag: awaiting :meth:`wait` blocks until :meth:`set`."""

    __slots__ = ("_kernel", "_is_set", "_waiters")

    def __init__(self, kernel: "Kernel") -> None:
        self._kernel = kernel
        self._is_set = False
        self._waiters: list[SimFuture] = []

    def is_set(self) -> bool:
        """Return whether the event is currently set."""
        return self._is_set

    def set(self) -> None:
        """Set the flag and wake every waiter."""
        if self._is_set:
            return
        self._is_set = True
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    def clear(self) -> None:
        """Reset the flag; subsequent waiters block until the next set()."""
        self._is_set = False

    async def wait(self) -> None:
        """Block until the event is set (returns immediately if already set)."""
        if self._is_set:
            return
        waiter = self._kernel.create_future()
        self._waiters.append(waiter)
        await waiter


class Gate:
    """A pass-through that can be closed; models a crashed node's step gate.

    While the gate is open, :meth:`passthrough` completes immediately.  While
    closed, callers queue up until the gate reopens — exactly the semantics
    of a node that stops taking steps and later resumes without restarting
    its program (the paper's *undetectable restart*).
    """

    __slots__ = ("_kernel", "_open", "_waiters")

    def __init__(self, kernel: "Kernel", open_: bool = True) -> None:
        self._kernel = kernel
        self._open = open_
        self._waiters: list[SimFuture] = []

    @property
    def is_open(self) -> bool:
        """Whether callers currently pass through without blocking."""
        return self._open

    def close(self) -> None:
        """Close the gate; subsequent passthrough() calls block."""
        self._open = False

    def open(self) -> None:
        """Open the gate, releasing every blocked caller."""
        self._open = True
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    async def passthrough(self) -> None:
        """Return when the gate is open, blocking while it is closed."""
        while not self._open:
            waiter = self._kernel.create_future()
            self._waiters.append(waiter)
            await waiter


class Kernel:
    """Deterministic discrete-event scheduler with a simulated clock.

    Parameters
    ----------
    seed:
        Seed for the kernel RNG.  All scheduling nondeterminism (tie-breaks)
        and any library randomness (channel delays, loss) derives from RNGs
        seeded from this value, so runs are reproducible.
    tie_break:
        How same-timestamp events are ordered; see :class:`TieBreak`.
    """

    def __init__(self, seed: int = 0, tie_break: str = TieBreak.FIFO) -> None:
        if tie_break not in TieBreak._VALID:
            raise SimulationError(f"unknown tie_break: {tie_break!r}")
        self.rng = random.Random(seed)
        self._tie_break = tie_break
        # Mode flags hoisted out of the hot path (string compares per event
        # add up at millions of events per run).
        self._random_tie = tie_break == TieBreak.RANDOM
        self._scripted = tie_break == TieBreak.SCRIPTED
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, float, int, Callable[..., None], tuple]] = []
        self._events_processed = 0
        self._timer_pool: list[_Timer] = []
        #: Observability hook (:class:`repro.obs.observe.KernelStats` or
        #: ``None``).  When set, the dispatch loop records same-instant
        #: batch sizes and ``sleep`` records timer-pool hits/misses —
        #: plain integer increments, so attaching it never perturbs a
        #: seeded schedule.  When ``None`` (the default) the hot path
        #: pays a single attribute test.
        self.obs = None
        #: SCRIPTED mode: the decision to take at the k-th same-instant
        #: choice point (index into the candidate list; 0 beyond the end).
        self.decision_script: list[int] = []
        #: Per choice point, (choice_taken, n_candidates).  Written by
        #: SCRIPTED runs and by RANDOM runs with :attr:`capture_decisions`.
        self.decision_log: list[tuple[int, int]] = []
        #: RANDOM mode only: when set, every same-instant tie is logged to
        #: :attr:`decision_log` as the index the random priorities chose
        #: *within the FIFO (insertion-order) candidate list* — exactly the
        #: encoding SCRIPTED mode consumes.  A failing random run can then
        #: be replayed as an explicit decision script (the fuzz shrinker's
        #: schedule-pinning step).  Capturing never changes what the run
        #: does: the chosen event is still the heap minimum and no extra
        #: RNG draws happen; it only forgoes the same-instant batch
        #: dispatch fast path.
        self.capture_decisions = False

    # -- clock & scheduling --------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far (a step counter)."""
        return self._events_processed

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at simulated time ``when``."""
        if when < self._now:
            raise SimulationError(f"cannot schedule in the past: {when} < {self._now}")
        self._seq += 1
        priority = self.rng.random() if self._random_tie else 0.0
        heapq.heappush(self._heap, (when, priority, self._seq, callback, args))

    def call_later(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` after ``delay`` units of simulated time."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._seq += 1
        priority = self.rng.random() if self._random_tie else 0.0
        heapq.heappush(
            self._heap, (self._now + delay, priority, self._seq, callback, args)
        )

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at the current simulated time."""
        self._seq += 1
        priority = self.rng.random() if self._random_tie else 0.0
        heapq.heappush(self._heap, (self._now, priority, self._seq, callback, args))

    # -- primitives ----------------------------------------------------------

    def create_future(self) -> SimFuture:
        """Create a pending future bound to this kernel."""
        return SimFuture(self)

    def create_task(self, coro: Coroutine[Any, Any, Any], name: str = "") -> SimTask:
        """Wrap a coroutine in a task scheduled to start at the current time."""
        return SimTask(self, coro, name)

    def create_event(self) -> Event:
        """Create an :class:`Event` bound to this kernel."""
        return Event(self)

    def create_gate(self, open_: bool = True) -> Gate:
        """Create a :class:`Gate` bound to this kernel."""
        return Gate(self, open_)

    async def sleep(self, delay: float) -> None:
        """Suspend the calling task for ``delay`` units of simulated time."""
        pool = self._timer_pool
        obs = self.obs
        if pool:
            timer = pool.pop()
            if obs is not None:
                obs.timer_pool_hits += 1
        else:
            timer = _Timer(self)
            if obs is not None:
                obs.timer_pool_misses += 1
        gen = timer._gen
        self.call_later(delay, timer._fire, gen)
        try:
            await timer
        finally:
            # Recycle the timer: bump the generation so the pending heap
            # entry (if the sleep was cancelled before it fired) can never
            # complete the next occupant, reset the state, and return it to
            # the pool.  A timer whose completion callbacks have not drained
            # (coroutine torn down mid-step) is simply left to the GC.
            timer._gen = gen + 1
            if timer._state != _PENDING and not timer._callbacks:
                timer._state = _PENDING
                timer._result = None
                timer._exception = None
                if len(pool) < 1024:
                    pool.append(timer)

    def gather(self, awaitables: Iterable[Awaitable[Any]]) -> SimFuture:
        """Aggregate awaitables into one future resolving to a result list.

        The first exception among children is propagated; remaining children
        keep running (matching ``asyncio.gather`` defaults closely enough for
        our tests and harness code).
        """
        futures = [self._ensure_future(a) for a in awaitables]
        aggregate = self.create_future()
        if not futures:
            aggregate.set_result([])
            return aggregate
        remaining = len(futures)

        def _on_done(child: SimFuture) -> None:
            nonlocal remaining
            if aggregate.done():
                return
            if child.cancelled():
                aggregate.cancel()
                return
            if child.exception() is not None:
                aggregate.set_exception(child.exception())
                return
            remaining -= 1
            if remaining == 0:
                aggregate.set_result([f.result() for f in futures])

        for future in futures:
            future.add_done_callback(_on_done)
        return aggregate

    def _ensure_future(self, awaitable: Awaitable[Any]) -> SimFuture:
        if isinstance(awaitable, SimFuture):
            return awaitable
        if isinstance(awaitable, Coroutine):
            return self.create_task(awaitable)
        raise SimulationError(f"cannot convert {awaitable!r} to a kernel future")

    async def first_of(
        self,
        *awaitables: Awaitable[Any],
        timeout: float | None = None,
        cancel_on_timeout: bool = True,
    ) -> int:
        """Await until any of the awaitables completes; return its index.

        When one wins, its siblings are cancelled.  Returns ``-1`` if
        ``timeout`` elapses first — in that case the awaitables are
        cancelled too unless ``cancel_on_timeout=False`` (pass that when
        polling a long-lived task that must survive the timeout).
        Exceptions in the winner propagate.  Cancelling the caller
        cancels every awaitable still pending.
        """
        futures = [self._ensure_future(a) for a in awaitables]
        done = self.create_future()

        def _make_cb(index: int) -> Callable[[SimFuture], None]:
            def _cb(_: SimFuture) -> None:
                if not done.done():
                    done.set_result(index)

            return _cb

        for index, future in enumerate(futures):
            future.add_done_callback(_make_cb(index))
        if timeout is not None:
            self.call_later(timeout, lambda: done.done() or done.set_result(-1))
        try:
            winner = await done
        except CancelledError:
            for future in futures:
                if not future.done():
                    future.cancel()
            raise
        except GeneratorExit:
            _close_unfinished(futures)
            raise
        if winner >= 0 or cancel_on_timeout:
            for index, future in enumerate(futures):
                if index != winner and not future.done():
                    future.cancel()
        if winner >= 0:
            futures[winner].result()  # propagate exceptions from the winner
        return winner

    async def wait_for(self, awaitable: Awaitable[Any], timeout: float) -> Any:
        """Await ``awaitable`` with a simulated-time timeout.

        Raises :class:`TimeoutError` if the timeout elapses first; the
        underlying future/task is cancelled in that case.
        """
        future = self._ensure_future(awaitable)
        timer = self.create_future()
        self.call_later(timeout, lambda: timer.done() or timer.set_result(None))
        done = self.create_future()

        def _first(which: str) -> Callable[[SimFuture], None]:
            def _cb(_: SimFuture) -> None:
                if not done.done():
                    done.set_result(which)

            return _cb

        future.add_done_callback(_first("value"))
        timer.add_done_callback(_first("timeout"))
        try:
            winner = await done
        except GeneratorExit:
            _close_unfinished([future])
            raise
        if winner == "timeout" and not future.done():
            future.cancel()
            raise TimeoutError(f"wait_for timed out after {timeout}")
        return future.result()

    # -- run loop -------------------------------------------------------------

    def run(
        self,
        until_time: float | None = None,
        max_events: int | None = None,
        until: SimFuture | None = None,
    ) -> None:
        """Process events until the queue drains or a stop condition is met.

        Parameters
        ----------
        until_time:
            Stop (without processing them) once the next event would occur
            strictly after this simulated time.
        max_events:
            Stop after processing this many callbacks (guards runaway loops).
        until:
            Stop as soon as this future completes.
        """
        # Observability is tested ONCE per run() call, not per instant: a
        # stats-attached kernel dispatches through the batch-accounting
        # mirror below, while the default path stays verbatim pre-obs so
        # disabling observability costs nothing on the hot loop.  A kernel
        # observed mid-run (a fabric epoch change under an ambient capture
        # session) starts counting at its next run() call.  SCRIPTED mode
        # — and RANDOM mode with decision capture — always uses this loop:
        # it never batches, because same-instant groups are its choice
        # points, so there is nothing to count.
        grouped = self._scripted or (self._random_tie and self.capture_decisions)
        if self.obs is not None and not grouped:
            self._run_counting(until_time, max_events, until)
            return
        heap = self._heap
        heappop = heapq.heappop
        processed = 0
        try:
            while heap:
                if until is not None and until._state != _PENDING:
                    return
                when = heap[0][0]
                if until_time is not None and when > until_time:
                    self._now = until_time
                    return
                if grouped:
                    entry = self._pop_next()
                else:
                    entry = heappop(heap)
                self._now = when
                entry[3](*entry[4])
                processed += 1
                if max_events is not None and processed >= max_events:
                    return
                # Batch dispatch: drain further events at the *same* instant
                # without re-testing ``until_time`` (``when`` already passed
                # it).  The ``until`` check stays — stopping promptly once
                # the target future completes is part of the run() contract.
                if not grouped:
                    while heap and heap[0][0] == when:
                        if until is not None and until._state != _PENDING:
                            return
                        entry = heappop(heap)
                        entry[3](*entry[4])
                        processed += 1
                        if max_events is not None and processed >= max_events:
                            return
        finally:
            self._events_processed += processed

    def _run_counting(
        self,
        until_time: float | None,
        max_events: int | None,
        until: SimFuture | None,
    ) -> None:
        """Dispatch loop with same-instant batch accounting.

        Mirrors :meth:`run`'s non-scripted path exactly — same stop
        conditions, same dispatch order — plus one
        :meth:`~repro.obs.observe.KernelStats.record_batch` call per
        instant.  Kept separate so the observability-off hot loop pays
        nothing for the accounting.
        """
        obs = self.obs
        heap = self._heap
        heappop = heapq.heappop
        processed = 0
        try:
            while heap:
                if until is not None and until._state != _PENDING:
                    return
                when = heap[0][0]
                if until_time is not None and when > until_time:
                    self._now = until_time
                    return
                entry = heappop(heap)
                self._now = when
                entry[3](*entry[4])
                processed += 1
                if max_events is not None and processed >= max_events:
                    return
                batch = 1
                while heap and heap[0][0] == when:
                    if until is not None and until._state != _PENDING:
                        break
                    entry = heappop(heap)
                    entry[3](*entry[4])
                    processed += 1
                    batch += 1
                    if max_events is not None and processed >= max_events:
                        break
                obs.record_batch(batch)
                if max_events is not None and processed >= max_events:
                    return
        finally:
            self._events_processed += processed

    def _pop_next(self) -> tuple[float, float, int, Callable[..., None], tuple]:
        """Pop the next event, logging same-instant tie decisions.

        When several events share the minimal timestamp, the SCRIPTED
        scheduler consults :attr:`decision_script` (defaulting to 0 past
        its end) and records ``(choice, n_candidates)`` in
        :attr:`decision_log` — the model checker's branching evidence.

        A RANDOM kernel with :attr:`capture_decisions` takes the same
        grouped path but makes no choice of its own: the heap minimum
        (lowest random priority) wins exactly as it would without capture,
        and what gets logged is that winner's index within the candidates
        sorted by insertion order — the canonical order a SCRIPTED replay
        of the log will see, since scripted runs draw no priorities.
        """
        first = heapq.heappop(self._heap)
        candidates = [first]
        while self._heap and self._heap[0][0] == first[0]:
            candidates.append(heapq.heappop(self._heap))
        if len(candidates) == 1:
            return first
        if self._scripted:
            position = len(self.decision_log)
            choice = (
                self.decision_script[position]
                if position < len(self.decision_script)
                else 0
            )
            choice = max(0, min(choice, len(candidates) - 1))
            self.decision_log.append((choice, len(candidates)))
            chosen = candidates.pop(choice)
        else:
            fifo_rank = sorted(
                range(len(candidates)), key=lambda i: candidates[i][2]
            ).index(0)
            self.decision_log.append((fifo_rank, len(candidates)))
            chosen = candidates.pop(0)
        for entry in candidates:
            heapq.heappush(self._heap, entry)
        return chosen

    def run_until_complete(
        self,
        awaitable: Awaitable[Any],
        max_events: int | None = None,
        until_time: float | None = None,
    ) -> Any:
        """Drive the kernel until ``awaitable`` completes and return its result.

        Raises :class:`DeadlockError` if the event queue drains first, and
        :class:`TimeoutError` if ``max_events``/``until_time`` is exhausted
        first — both conditions indicate a liveness failure in the system
        under test (e.g. no majority quorum is reachable).
        """
        future = self._ensure_future(awaitable)
        self.run(until=future, max_events=max_events, until_time=until_time)
        if not future.done():
            if self._heap:
                raise TimeoutError(
                    "run_until_complete stopped by max_events/until_time "
                    "before the awaitable completed"
                )
            raise DeadlockError(
                "event queue drained while tasks were still waiting; "
                "the system under test cannot make progress"
            )
        return future.result()
