"""The ledger's own load generator: seeded, closed loop, one thread.

``clients`` callers each keep up to ``depth`` operations outstanding and
submit the next the moment their oldest completes — callers of a
snapshot object wait for their reply, so the loop is closed.  The
operation sequence is drawn up front from the workload seed; the
deployment only ever sees generated operations, and which client ends
up carrying an operation is the only thing timing can change.

Nothing here awaits without a deadline: a watchdog cancels every
outstanding operation once the oldest has been pending longer than
``deadline_u`` kernel units, cancelled operations count as failed, and
the clients move on.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

__all__ = ["Op", "LoadStats", "plan_ops", "closed_loop", "percentile"]

WRITE = "write"
SNAPSHOT = "snapshot"
READ = "read"
COMPOSE = "compose"


@dataclass(frozen=True, slots=True)
class Op:
    """One generated operation: a kind, a uniform draw, a sequence number.

    ``draw`` in ``[0, 1)`` picks the target (node or key) at submission
    time, so workloads whose eligible targets change (crashed nodes)
    stay a pure function of the seed.
    """

    kind: str
    draw: float
    seq: int


def plan_ops(
    rng: random.Random,
    count: int,
    write_fraction: float,
    other: str = SNAPSHOT,
    compose_every: int = 0,
) -> list[Op]:
    """Draw ``count`` operations: writes vs ``other``, optional composes."""
    ops = []
    for seq in range(count):
        kind = WRITE if rng.random() < write_fraction else other
        if compose_every and seq % compose_every == compose_every - 1:
            kind = COMPOSE
        ops.append(Op(kind, rng.random(), seq))
    return ops


@dataclass(slots=True)
class LoadStats:
    """What one closed-loop drive measured."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    stalled: bool = False
    first_submit_wall: float | None = None
    last_done_wall: float = 0.0
    first_submit_u: float = 0.0
    last_done_u: float = 0.0
    lat_u: list[float] = field(default_factory=list)
    lat_ms: list[float] = field(default_factory=list)

    @property
    def drive_s(self) -> float:
        if self.first_submit_wall is None:
            return 0.0
        return self.last_done_wall - self.first_submit_wall

    @property
    def elapsed_u(self) -> float:
        return self.last_done_u - self.first_submit_u

    def absorb(self, other: "LoadStats") -> None:
        """Fold a later phase (storm epoch) into this one."""
        self.submitted += other.submitted
        self.completed += other.completed
        self.failed += other.failed
        self.stalled = self.stalled or other.stalled
        self.lat_u.extend(other.lat_u)
        self.lat_ms.extend(other.lat_ms)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (``q`` in 0..1)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


async def closed_loop(
    kernel: Any,
    ops: Iterable[Op],
    issue: Callable[[Op], Any],
    *,
    clients: int,
    depth: int,
    deadline_u: float,
    wrap_client: Callable[[Any], Any] = lambda coro: coro,
) -> LoadStats:
    """Drive ``ops`` through ``issue`` and return the measurements.

    ``issue(op)`` submits one operation and returns its task handle
    (``SimTask`` or ``asyncio.Task``).  ``wrap_client`` lets the tracer
    put its stepping proxy around the client coroutines so their time
    lands in the ``ledger`` layer rather than in the kernel's.
    """
    stats = LoadStats()
    pending: dict[Any, float] = {}  # insertion-ordered: first = oldest
    shared: Iterator[Op] = iter(ops)

    def submit(op: Op) -> Any:
        now_u = kernel.now
        now_w = perf_counter()
        if stats.first_submit_wall is None:
            stats.first_submit_wall = now_w
            stats.first_submit_u = now_u
        task = issue(op)
        stats.submitted += 1
        pending[task] = now_u

        def on_done(done: Any) -> None:
            pending.pop(done, None)
            end_w = perf_counter()
            if done.cancelled() or done.exception() is not None:
                stats.failed += 1
            else:
                stats.completed += 1
                stats.lat_u.append(kernel.now - now_u)
                stats.lat_ms.append((end_w - now_w) * 1e3)
            stats.last_done_wall = end_w
            stats.last_done_u = kernel.now

        task.add_done_callback(on_done)
        return task

    async def settle(task: Any) -> None:
        try:
            await task
        except Exception:  # noqa: BLE001 - counted in on_done
            pass
        except asyncio.CancelledError:
            # The watchdog cancelled the operation (counted in on_done);
            # a cancellation aimed at this client itself must propagate.
            if not task.cancelled():
                raise

    async def client() -> None:
        window: deque = deque()
        for op in shared:
            while len(window) >= depth:
                await settle(window.popleft())
            window.append(submit(op))
        while window:
            await settle(window.popleft())

    async def watchdog() -> None:
        while True:
            await kernel.sleep(deadline_u / 4)
            if not pending:
                continue
            oldest = next(iter(pending.values()))
            if kernel.now - oldest > deadline_u:
                stats.stalled = True
                for task in list(pending):
                    task.cancel()

    guard = kernel.create_task(watchdog(), name="ledger-watchdog")
    try:
        tasks = [
            kernel.create_task(wrap_client(client()), name=f"ledger-client{i}")
            for i in range(clients)
        ]
        for task in tasks:
            await settle(task)
    finally:
        guard.cancel()
    # Completion callbacks are scheduled, not run inline, and the
    # simulator orders same-instant callbacks randomly: a client can see
    # its last operation done before ``on_done`` has run.  Let those land.
    while any(task.done() for task in pending):
        await kernel.sleep(0)
    # Anything the watchdog cancelled has already been counted; what is
    # still pending here was never resolved at all.
    stats.failed += len(pending)
    return stats
