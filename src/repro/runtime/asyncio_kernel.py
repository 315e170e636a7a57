"""Asyncio adapter for the kernel interface.

The algorithm classes in :mod:`repro.core` are written against the small
kernel API (``create_future``/``create_task``/``sleep``/``first_of``/
``create_event``/``create_gate``/``call_later``/``rng``).  This module
implements that API on top of a real :mod:`asyncio` event loop, so the
*same* algorithm objects run unmodified over wall-clock time — the
demonstration that the library is deployable, not simulation-bound.

Timing note: the simulated kernel's time unit maps to ``time_scale``
seconds (default 10 ms), so a cluster configured with the default
intervals gossips every ~20 ms on asyncio.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Awaitable, Callable, Coroutine, Iterable

__all__ = ["AsyncioKernel", "AsyncioEvent", "AsyncioGate"]


class AsyncioEvent:
    """``repro.sim.Event``-compatible wrapper over :class:`asyncio.Event`."""

    def __init__(self) -> None:
        self._event = asyncio.Event()

    def is_set(self) -> bool:
        """Whether the event is currently set."""
        return self._event.is_set()

    def set(self) -> None:
        """Set the flag, waking every waiter."""
        self._event.set()

    def clear(self) -> None:
        """Reset the flag."""
        self._event.clear()

    async def wait(self) -> None:
        """Block until the event is set."""
        await self._event.wait()


class AsyncioGate:
    """``repro.sim.Gate``-compatible crash gate over an asyncio event."""

    def __init__(self, open_: bool = True) -> None:
        self._event = asyncio.Event()
        if open_:
            self._event.set()

    @property
    def is_open(self) -> bool:
        return self._event.is_set()

    def close(self) -> None:
        """Close the gate; passthrough() blocks."""
        self._event.clear()

    def open(self) -> None:
        """Open the gate, releasing blocked callers."""
        self._event.set()

    async def passthrough(self) -> None:
        """Return when the gate is open."""
        await self._event.wait()


class AsyncioKernel:
    """Kernel-API facade over the running asyncio event loop."""

    def __init__(self, seed: int = 0, time_scale: float = 0.01) -> None:
        self.rng = random.Random(seed)
        self.time_scale = time_scale
        #: Observability hook (:class:`repro.obs.observe.KernelStats` or
        #: ``None``), set by the obs layer when a session attaches a
        #: cluster running on this kernel.  The asyncio loop has no
        #: batching/timer-pool fast paths, so the stats stay at zero, but
        #: the attribute existing is what lets ``--trace-out``/``--stats``
        #: work on live runs.
        self.obs = None

    # -- clock & scheduling -------------------------------------------------------

    @property
    def _loop(self) -> asyncio.AbstractEventLoop:
        try:
            return asyncio.get_running_loop()
        except RuntimeError:
            return asyncio.get_event_loop()

    @property
    def now(self) -> float:
        """Loop time expressed in simulated units.

        Outside a running loop (e.g. an observability exporter reading
        final span times after ``asyncio.run`` returned) this falls back
        to ``time.monotonic()``, which is the clock ``loop.time()`` is
        built on.
        """
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return time.monotonic() / self.time_scale
        return loop.time() / self.time_scale

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Schedule a callback on the running loop."""
        self._loop.call_soon(callback, *args)

    def call_later(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule after ``delay`` simulated units (scaled to seconds)."""
        self._loop.call_later(delay * self.time_scale, callback, *args)

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule at simulated time ``when``."""
        self.call_later(max(when - self.now, 0.0), callback, *args)

    # -- primitives -----------------------------------------------------------------

    def create_future(self) -> asyncio.Future:
        """A pending asyncio future."""
        return self._loop.create_future()

    def create_task(
        self, coro: Coroutine[Any, Any, Any], name: str = ""
    ) -> asyncio.Task:
        """Wrap a coroutine in an asyncio task."""
        return self._loop.create_task(coro, name=name or None)

    def create_event(self) -> AsyncioEvent:
        """An event with the kernel Event interface."""
        return AsyncioEvent()

    def create_gate(self, open_: bool = True) -> AsyncioGate:
        """A crash gate with the kernel Gate interface."""
        return AsyncioGate(open_)

    async def sleep(self, delay: float) -> None:
        """Sleep ``delay`` simulated units of wall-clock-scaled time."""
        await asyncio.sleep(delay * self.time_scale)

    def gather(self, awaitables: Iterable[Awaitable[Any]]) -> Awaitable[list]:
        """Aggregate awaitables into one future of results."""
        return asyncio.gather(*awaitables)

    async def wait_for(self, awaitable: Awaitable[Any], timeout: float) -> Any:
        """Await with a simulated-unit timeout (raises TimeoutError)."""
        return await asyncio.wait_for(
            _ensure_future(awaitable), timeout * self.time_scale
        )

    async def first_of(
        self,
        *awaitables: Awaitable[Any],
        timeout: float | None = None,
        cancel_on_timeout: bool = True,
    ) -> int:
        """Mirror of :meth:`repro.sim.kernel.Kernel.first_of`."""
        futures = [_ensure_future(a) for a in awaitables]
        try:
            done, pending = await asyncio.wait(
                futures,
                timeout=None if timeout is None else timeout * self.time_scale,
                return_when=asyncio.FIRST_COMPLETED,
            )
        except asyncio.CancelledError:
            for future in futures:
                future.cancel()
            raise
        if done or cancel_on_timeout:
            for future in pending:
                future.cancel()
        if not done:
            return -1
        winner = done.pop()
        index = futures.index(winner)
        winner.result()  # propagate exceptions from the winner
        return index


def _ensure_future(awaitable: Awaitable[Any]) -> asyncio.Future:
    return asyncio.ensure_future(awaitable)
