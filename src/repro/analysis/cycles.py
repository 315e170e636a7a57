"""Asynchronous-cycle tracking (the paper's complexity clock, Section 2).

The paper measures recovery time in *asynchronous cycles*: the first cycle
of a fair execution is the shortest prefix in which every non-failing node
completes at least one full iteration of its do-forever loop (and the
round trips of the messages sent in it); the second cycle is the first
cycle of the remaining suffix, and so on.

:class:`CycleTracker` implements that definition over the iteration
notifications that :class:`~repro.net.node.Process` emits.  The gossip
messages sent by a do-forever iteration carry no replies, so iteration
completion is the cycle-relevant event; operation round trips are driven
by their own tasks and are accounted inside operations.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.net.node import Process
from repro.sim.kernel import Kernel, SimFuture

__all__ = ["CycleTracker"]


class CycleTracker:
    """Counts asynchronous cycles over a set of processes.

    Attach with :meth:`attach`; the tracker then advances
    :attr:`cycles_elapsed` whenever every currently non-crashed process
    has completed at least one do-forever iteration since the previous
    cycle boundary.
    """

    def __init__(self, kernel: Kernel, processes: Iterable[Process]) -> None:
        self._kernel = kernel
        self._processes = list(processes)
        #: Each process's id and crash gate, read at every iteration: a
        #: node crashes and resumes at any time, so liveness is not cached.
        self._gates = [(p.node_id, p.gate) for p in self._processes]
        self.cycles_elapsed = 0
        self._seen_this_cycle: set[int] = set()
        self._waiters: list[tuple[int, SimFuture]] = []
        self._boundary_listeners: list[Callable[[int], None]] = []
        for process in self._processes:
            process.add_iteration_listener(self._on_iteration)

    def _all_alive_seen(self) -> bool:
        """Whether every non-crashed process iterated this cycle."""
        seen = self._seen_this_cycle
        for node_id, gate in self._gates:
            if node_id not in seen and gate.is_open:
                return False
        return True

    def _on_iteration(self, node_id: int) -> None:
        self._seen_this_cycle.add(node_id)
        if self._all_alive_seen():
            self.cycles_elapsed += 1
            self._seen_this_cycle.clear()
            for listener in self._boundary_listeners:
                listener(self.cycles_elapsed)
            self._release_waiters()

    def _release_waiters(self) -> None:
        still_waiting: list[tuple[int, SimFuture]] = []
        for target, future in self._waiters:
            if self.cycles_elapsed >= target and not future.done():
                future.set_result(self.cycles_elapsed)
            elif not future.done():
                still_waiting.append((target, future))
        self._waiters = still_waiting

    def add_boundary_listener(self, listener: Callable[[int], None]) -> None:
        """Call ``listener(cycle_number)`` at every cycle boundary."""
        self._boundary_listeners.append(listener)

    def reset(self) -> None:
        """Restart counting from zero (e.g. at the fault-injection instant)."""
        self.cycles_elapsed = 0
        self._seen_this_cycle.clear()

    async def wait_cycles(self, count: int) -> int:
        """Block until ``count`` more cycles have elapsed; returns the total."""
        target = self.cycles_elapsed + count
        if self.cycles_elapsed >= target:
            return self.cycles_elapsed
        future = self._kernel.create_future()
        self._waiters.append((target, future))
        return await future
