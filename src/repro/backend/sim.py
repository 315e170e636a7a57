"""The ``sim`` backend: the deterministic discrete-event deployment.

:class:`SimBackend` is the :class:`~repro.backend.base.ClusterBackend`
implementation over :class:`~repro.sim.kernel.Kernel` — the substrate
every deterministic harness (schedule exploration, fuzz shrinking,
golden-trace regression) depends on.  It is the richest backend: every
capability holds, and it adds the synchronous conveniences
(:meth:`write_sync`, :meth:`run_until`, …) that only make sense when the
caller owns the clock.
"""

from __future__ import annotations

from typing import Any, Awaitable

from repro.analysis.metrics import MetricsCollector
from repro.backend.base import BACKENDS, Capabilities, ClusterBackend
from repro.config import ClusterConfig
from repro.net.network import Network
from repro.sim.kernel import Kernel, SimTask, TieBreak

__all__ = ["SimBackend"]


class SimBackend(ClusterBackend):
    """A complete simulated deployment of one snapshot-object algorithm.

    Parameters
    ----------
    algorithm:
        A key of :data:`~repro.core.cluster.ALGORITHMS` or an algorithm
        class.
    config:
        Cluster parameters (defaults to ``ClusterConfig()``).
    start:
        Whether to start every node's do-forever loop immediately.
    tie_break:
        Event-ordering policy for the kernel (``"random"`` models an
        adversarial asynchronous scheduler; ``"scripted"`` replays a
        pinned schedule).
    kernel:
        An externally supplied kernel lets several clusters share one
        simulated timeline (used by reconfiguration: the old and new
        configurations coexist during the handoff).
    """

    name = "sim"
    capabilities = Capabilities(
        backend="sim",
        simulated_time=True,
        deterministic=True,
        schedule_pinning=True,
        in_flight_inspection=True,
        partitions=True,
        channel_faults=True,
        cycle_tracking=True,
        process_fanout=True,
        real_sockets=False,
    )

    def __init__(
        self,
        algorithm="ss-nonblocking",
        config: ClusterConfig | None = None,
        start: bool = True,
        tie_break: str = TieBreak.RANDOM,
        kernel: Kernel | None = None,
    ) -> None:
        # Wiring order is part of the determinism contract: the Network
        # constructor draws from kernel.rng to seed the channel RNG, so
        # seeded golden traces depend on this exact sequence.
        self.algorithm_name, algorithm_cls = self._resolve_algorithm(algorithm)
        self.config = config if config is not None else ClusterConfig()
        self.kernel = (
            kernel
            if kernel is not None
            else Kernel(seed=self.config.seed, tie_break=tie_break)
        )
        self.metrics = MetricsCollector()
        self.network = Network(self.kernel, self.config, self.metrics)
        self._wire_core(algorithm_cls)
        if start:
            self.start()

    # -- synchronous convenience (the caller owns the simulated clock) ------

    def write_sync(
        self, node_id: int, value: Any, max_events: int | None = 2_000_000
    ) -> int:
        """Run the kernel until a single write completes."""
        return self.kernel.run_until_complete(
            self.write(node_id, value), max_events=max_events
        )

    def snapshot_sync(self, node_id: int, max_events: int | None = 2_000_000):
        """Run the kernel until a single snapshot completes."""
        return self.kernel.run_until_complete(
            self.snapshot(node_id), max_events=max_events
        )

    def read_sync(
        self, node_id: int, j: int, max_events: int | None = 2_000_000
    ):
        """Run the kernel until a single read of register ``j`` completes."""
        return self.kernel.run_until_complete(
            self.read(node_id, j), max_events=max_events
        )

    def run_until(
        self, awaitable: Awaitable[Any], max_events: int | None = 5_000_000
    ) -> Any:
        """Drive the kernel until an arbitrary awaitable completes."""
        return self.kernel.run_until_complete(awaitable, max_events=max_events)

    def run_for(self, duration: float) -> None:
        """Advance simulated time by ``duration`` (background traffic runs)."""
        self.kernel.run(until_time=self.kernel.now + duration)

    def spawn(self, coro, name: str = "") -> SimTask:
        """Start a background task on the cluster's kernel."""
        return self.kernel.create_task(coro, name=name)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.algorithm_name} "
            f"n={self.config.n} t={self.kernel.now:.1f}>"
        )


BACKENDS["sim"] = SimBackend
