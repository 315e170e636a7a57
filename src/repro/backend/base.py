"""The cluster-backend contract: one deployment surface, three runtimes.

The paper's algorithms assume nothing beyond asynchronous fail-prone
message passing, so a deployment of one snapshot object is always the
same wiring — an algorithm instance per node, a network fabric, a
metrics collector, an operation-history recorder, a cycle tracker, and
an observability hook — regardless of whether the substrate is the
deterministic simulator, a live asyncio event loop, or real UDP
datagrams.  :class:`ClusterBackend` holds that shared wiring core once;
the three runtimes (:class:`~repro.backend.sim.SimBackend`,
:class:`~repro.backend.aio.AsyncioBackend`,
:class:`~repro.backend.udp.UdpBackend`) only differ in how they build
their kernel and transport and in the :class:`Capabilities` they
advertise.

Harnesses program against the contract::

    create()    finish any asynchronous setup (idempotent)
    start()     launch the do-forever loops
    write()/snapshot()/read()   invoke operations, recorded in .history
    submit_write()/submit_snapshot()/submit_read()   pipelined
                (non-awaiting) submission
    submit()    the dispatch discipline under all three (FIFO per node,
                or immediate for CONCURRENT_CLIENTS algorithms)
    pipeline()  a depth-k client window over the submit path
    inject()    a TransientFaultInjector bound to this deployment
    partition()/heal()   connectivity control (real or modeled)
    .metrics / .history / .obs / .kernel / .network / .tracker
    close()     idempotent async teardown, safe after a failed create()

and consult :attr:`ClusterBackend.capabilities` before using a feature
that only some substrates provide (schedule pinning, in-flight packet
inspection, process fan-out).  Requesting an unsupported capability
raises :class:`~repro.errors.ConfigurationError` naming the capability,
so every harness degrades (or refuses) the same way.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, fields
from typing import Any, Awaitable, Callable, TYPE_CHECKING

from repro.analysis.cycles import CycleTracker
from repro.analysis.history import READ, SNAPSHOT, WRITE, HistoryRecorder
from repro.analysis.metrics import MetricsCollector
from repro.config import ClusterConfig
from repro.errors import ConfigurationError
from repro.obs.observe import current_session

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.base import SnapshotAlgorithm, SnapshotResult
    from repro.core.register import TimestampedValue
    from repro.fault import TransientFaultInjector

__all__ = [
    "Capabilities",
    "ClusterBackend",
    "OperationPipeline",
    "BACKENDS",
    "backend_class",
    "backend_capabilities",
    "backend_names",
    "require_backend_capability",
    "create_backend",
    "run_on_backend",
]

#: Human-readable blurb per capability field, used in error messages and
#: the ``python -m repro backends`` matrix.
CAPABILITY_NOTES: dict[str, str] = {
    "simulated_time": "deterministic virtual clock (run_until/max_events)",
    "deterministic": "same seed reproduces the same execution bit-for-bit",
    "schedule_pinning": "SCRIPTED tie-breaks / decision capture and replay",
    "in_flight_inspection": "inspect or corrupt in-flight packets",
    "partitions": "partition()/heal() connectivity control",
    "channel_faults": "loss/duplication/reorder fault injection",
    "cycle_tracking": "asynchronous-cycle tracker (settle_cycles)",
    "process_fanout": "parallel worker fan-out (--jobs N)",
    "real_sockets": "messages cross real OS sockets",
}


@dataclass(frozen=True, slots=True)
class Capabilities:
    """What one backend substrate can and cannot do.

    Harnesses branch on these flags instead of on backend names, so a
    fourth runtime only has to describe itself honestly to inherit every
    harness.
    """

    backend: str
    simulated_time: bool
    deterministic: bool
    schedule_pinning: bool
    in_flight_inspection: bool
    partitions: bool
    channel_faults: bool
    cycle_tracking: bool
    process_fanout: bool
    real_sockets: bool

    def describe(self) -> dict[str, bool]:
        """The capability flags as a plain ``{name: bool}`` dict."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "backend"
        }

    def require(self, capability: str, feature: str | None = None) -> None:
        """Raise :class:`ConfigurationError` unless ``capability`` holds.

        The error names every registered backend that *does* provide the
        missing capability, so the fix (``--backend NAME`` /
        ``create_backend(NAME, …)``) is in the message itself.
        """
        if capability not in CAPABILITY_NOTES:
            raise ConfigurationError(f"unknown capability {capability!r}")
        if not getattr(self, capability):
            wanted = feature or CAPABILITY_NOTES[capability]
            providers = [
                name
                for name in backend_names()
                if getattr(backend_capabilities(name), capability)
            ]
            if providers:
                hint = (
                    f"; backends providing it: {', '.join(providers)} "
                    f"(switch with --backend NAME or "
                    f"create_backend({providers[0]!r}, ...))"
                )
            else:
                hint = "; no registered backend provides it"
            raise ConfigurationError(
                f"{wanted} requires capability {capability!r}, which the "
                f"{self.backend!r} backend does not provide{hint}"
            )


#: Backend-name registry, populated by the implementation modules
#: (``repro.backend.sim`` / ``.aio`` / ``.udp``) at import time.
BACKENDS: dict[str, type["ClusterBackend"]] = {}


def _ensure_registry() -> None:
    if not BACKENDS:  # pragma: no cover - import side effect ordering
        import repro.backend  # noqa: F401  (registers the three backends)


def backend_names() -> list[str]:
    """The registered backend names, sorted."""
    _ensure_registry()
    return sorted(BACKENDS)


def backend_class(name: str) -> type["ClusterBackend"]:
    """Look a backend class up by name (``ConfigurationError`` if unknown)."""
    _ensure_registry()
    try:
        return BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None


def backend_capabilities(name: str) -> Capabilities:
    """The capabilities descriptor of a backend, by name."""
    return backend_class(name).capabilities


def require_backend_capability(
    name: str, capability: str, feature: str | None = None
) -> None:
    """Name-based form of :meth:`Capabilities.require` for CLI plumbing."""
    backend_capabilities(name).require(capability, feature)


class ClusterBackend:
    """Shared wiring core of every deployment of one snapshot object.

    Subclasses provide a kernel and a network fabric; everything else —
    algorithm resolution, process construction, metrics, history,
    cycle tracking, ambient observability attachment, operation
    recording, fault hooks, and the idempotent close — lives here once
    (it used to be copied across three divergent cluster wrappers).
    """

    #: Registry name; subclasses override.
    name = "abstract"
    capabilities: Capabilities

    # Attributes that must exist even after a failed/partial create(),
    # so close() is always safe.
    processes: list = []
    tracker: CycleTracker | None = None
    network = None
    kernel = None
    obs = None

    # -- wiring -----------------------------------------------------------

    @staticmethod
    def _resolve_algorithm(algorithm) -> tuple[str, type]:
        """Registry-name or class → ``(display_name, algorithm_cls)``."""
        from repro.core.cluster import ALGORITHMS

        if isinstance(algorithm, str):
            try:
                return algorithm, ALGORITHMS[algorithm]
            except KeyError:
                raise ConfigurationError(
                    f"unknown algorithm {algorithm!r}; "
                    f"choose from {sorted(ALGORITHMS)}"
                ) from None
        return algorithm.__name__, algorithm

    def _wire_core(self, algorithm_cls: type) -> None:
        """Build processes, tracker, history; attach any ambient session.

        Call with ``self.kernel``, ``self.network``, ``self.metrics``,
        and ``self.config`` already in place.  Does not start the
        do-forever loops.
        """
        self.processes = [
            algorithm_cls(node_id, self.kernel, self.network, self.config)
            for node_id in range(self.config.n)
        ]
        self.tracker = (
            CycleTracker(self.kernel, self.processes)
            if self.capabilities.cycle_tracking
            else None
        )
        self.history = HistoryRecorder()
        #: Observability hook (:class:`repro.obs.observe.ClusterObs` or
        #: ``None``).  When an ambient session is installed
        #: (``with repro.obs.session(): …``), every backend attaches
        #: itself on wiring — that is how the CLI's ``--trace-out``
        #: observes clusters built inside harness runners, on every
        #: substrate.
        self.obs = None
        self._started = False
        self._closed = False
        #: Tail of the per-node pipelined-operation chain (see
        #: :meth:`submit`): node id → the most recently submitted
        #: operation's task.  Submissions to a node run strictly FIFO.
        self._op_chains: dict[int, Any] = {}
        #: Algorithms that batch concurrent local operations into shared
        #: rounds (``CONCURRENT_CLIENTS = True``, e.g. ``amortized``)
        #: must *not* have the backend serialize submissions per node —
        #: FIFO chaining would defeat the batching.  Their submitted ops
        #: dispatch immediately and are tracked in ``_outstanding``.
        self._concurrent_clients = bool(
            getattr(algorithm_cls, "CONCURRENT_CLIENTS", False)
        )
        # Insertion-ordered (dict-as-set): ``outstanding_ops()`` must list
        # tasks in submission order, or draining them would perturb the
        # deterministic sim schedule run-to-run.
        self._outstanding: dict = {}
        ambient = current_session()
        if ambient is not None:
            ambient.attach(self)

    async def create(self) -> "ClusterBackend":
        """Finish any asynchronous setup (socket binding, …); idempotent.

        Backends whose wiring is synchronous complete it in ``__init__``
        and return immediately here.
        """
        return self

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start every node's do-forever loop."""
        if getattr(self, "_started", False):
            return
        for process in self.processes:
            process.start()
        self._started = True

    def stop(self) -> None:
        """Stop every node's do-forever loop."""
        for process in self.processes:
            process.stop()
        self._started = False

    async def close(self) -> None:
        """Tear the deployment down; idempotent, safe after failed create.

        Stops the loops and releases any transport resources.  Calling
        twice (or on a backend whose :meth:`create` never completed) is a
        no-op — the lifecycle asymmetry the old wrappers had (sync
        ``UdpNetwork.close`` vs an async cluster close) is resolved
        here: the *contract* close is async everywhere.
        """
        if getattr(self, "_closed", False):
            return
        self._closed = True
        self.stop()
        self._shutdown_transport()

    def _shutdown_transport(self) -> None:
        """Release transport resources (sockets); default no-op."""

    # -- topology ----------------------------------------------------------

    def node(self, node_id: int) -> "SnapshotAlgorithm":
        """The algorithm instance running at ``node_id``."""
        return self.processes[node_id]

    def alive_nodes(self) -> list[int]:
        """Ids of currently non-crashed nodes."""
        return [p.node_id for p in self.processes if not p.crashed]

    # -- operations --------------------------------------------------------

    async def _invoke(self, node_id: int, kind: str, *args: Any) -> Any:
        """Run the node's ``kind`` operation, recorded in history and obs.

        The history kinds are the algorithm's method names; the first
        argument (the written value, the register index) is the record's.
        """
        op_id = self.history.invoke(
            node_id, kind, args[0] if args else None, now=self.kernel.now
        )
        obs = self.obs
        span = obs.begin_op(node_id, kind, op_id) if obs is not None else None
        try:
            result = await getattr(self.processes[node_id], kind)(*args)
        except BaseException:
            self.history.abort(op_id, now=self.kernel.now)
            if span is not None:
                obs.end_op(span, status="aborted")
            raise
        self.history.respond(op_id, result=result, now=self.kernel.now)
        if span is not None:
            obs.end_op(span)
        return result

    async def write(self, node_id: int, value: Any) -> int:
        """Invoke ``write(value)`` at a node, recording it in the history."""
        return await self._invoke(node_id, WRITE, value)

    async def snapshot(self, node_id: int) -> "SnapshotResult":
        """Invoke ``snapshot()`` at a node, recording it in the history."""
        return await self._invoke(node_id, SNAPSHOT)

    async def read(self, node_id: int, j: int) -> "TimestampedValue":
        """Invoke ``read(j)`` at a node, recording it in the history.

        An atomic read of register ``j`` alone: one quorum round, two at
        worst, never retried by writes to other registers.
        """
        return await self._invoke(node_id, READ, j)

    # -- pipelined operation submission ------------------------------------

    def submit(
        self, node_id: int, factory: Callable[[], Awaitable[Any]]
    ) -> Any:
        """Dispatch ``factory()`` as one operation of ``node_id``'s client.

        The one place that decides *when* a submitted operation may start:
        :meth:`submit_write`, :meth:`submit_snapshot`, :meth:`submit_read`
        and the sharded fabric all delegate here, so no caller
        re-implements the discipline or branches on the algorithm.  The coroutine
        ``factory()`` builds starts when the operation is dispatched, and
        everything it does before its first suspension runs in that one
        step — the fabric relies on this to update a slot's key map and
        enqueue the new value at the algorithm atomically.

        Returns a task handle (``SimTask`` on the simulator,
        ``asyncio.Task`` on the live backends) that completes with the
        operation's result.  Operations submitted to the same node
        dispatch strictly in submission order — the paper's model is one
        sequential client per node (SWMR), and the algorithm objects
        enforce it — so pipelining overlaps the *client's* round trips,
        not a single node's protocol rounds.  Submissions to different
        nodes genuinely run concurrently, which is the throughput axis
        the load driver sweeps.

        A failed operation rejects only its own handle; later submissions
        on the same node still dispatch (the chain swallows predecessors'
        exceptions — they are reported where they were submitted).

        Algorithms with ``CONCURRENT_CLIENTS = True`` (the amortized
        variant) batch concurrent local operations into shared protocol
        rounds; for those, per-node FIFO chaining would serialize exactly
        the concurrency the batching needs, so submissions dispatch
        immediately and are tracked in :meth:`outstanding_ops` instead.
        """
        if self._concurrent_clients:
            task = self.kernel.create_task(factory(), name=f"op@{node_id}")
            self._outstanding[task] = None
            task.add_done_callback(
                lambda t: self._outstanding.pop(t, None)
            )
            return task
        previous = self._op_chains.get(node_id)

        async def chained() -> Any:
            if previous is not None:
                try:
                    await previous
                except BaseException:  # noqa: BLE001 - reported on its own handle
                    pass
            return await factory()

        task = self.kernel.create_task(chained(), name=f"op@{node_id}")
        self._op_chains[node_id] = task
        return task

    def submit_write(self, node_id: int, value: Any) -> Any:
        """Pipelined :meth:`write`: enqueue and return a task handle.

        Unlike ``await write(...)``, the caller keeps control immediately
        and can have several operations in flight (see
        :meth:`pipeline` for a bounded-depth client window).
        """
        return self.submit(node_id, lambda: self.write(node_id, value))

    def submit_snapshot(self, node_id: int) -> Any:
        """Pipelined :meth:`snapshot`: enqueue and return a task handle."""
        return self.submit(node_id, lambda: self.snapshot(node_id))

    def submit_read(self, node_id: int, j: int) -> Any:
        """Pipelined :meth:`read`: enqueue and return a task handle."""
        return self.submit(node_id, lambda: self.read(node_id, j))

    @property
    def concurrent_clients(self) -> bool:
        """Whether the deployed algorithm admits overlapping local clients."""
        return self._concurrent_clients

    def outstanding_ops(self) -> list:
        """Task handles that must be awaited to drain submitted operations.

        Under FIFO chaining this is the tail of each node's chain (awaiting
        the tail awaits everything before it); under concurrent dispatch
        (``CONCURRENT_CLIENTS`` algorithms) it is every unfinished task.
        """
        if self._concurrent_clients:
            return list(self._outstanding)
        return list(self._op_chains.values())

    def pipeline(self, depth: int = 4) -> "OperationPipeline":
        """A depth-``depth`` client window over the submit path."""
        return OperationPipeline(self, depth=depth)

    async def settle_cycles(self, cycles: int) -> None:
        """Let the cluster run for a number of asynchronous cycles."""
        self.capabilities.require("cycle_tracking", "settle_cycles()")
        await self.tracker.wait_cycles(cycles)

    # -- fault controls ----------------------------------------------------

    def crash(self, node_id: int) -> None:
        """Crash a node (stops taking steps; messages to it are lost)."""
        self.processes[node_id].crash()

    def resume(self, node_id: int, restart: bool = False) -> None:
        """Resume a crashed node (optionally with a detectable restart)."""
        self.processes[node_id].resume(restart=restart)

    def inject(self, seed: int = 0) -> "TransientFaultInjector":
        """A transient-fault injector bound to this deployment.

        Node-state corruption works on every backend; channel-content
        corruption silently affects zero packets where
        ``in_flight_inspection`` is unsupported (real sockets hold the
        packets, not us).
        """
        from repro.fault import TransientFaultInjector

        return TransientFaultInjector(self, seed=seed)

    def partition(self, *groups: set) -> None:
        """Block connectivity between node groups (modeled or real)."""
        self.capabilities.require("partitions", "partition()")
        self.network.partition(*groups)

    def heal(self) -> None:
        """Remove all partitions."""
        self.network.heal()

    def throttle(self, node_id: int, factor: float = 10.0) -> None:
        """Make a node limp: stretch message delays to/from it by ``factor``.

        Supported on every backend — the sim and asyncio fabrics stretch
        their modeled channel delays, the UDP fabric stretches the fault
        gate's hold times — so gray-failure (limplock) scenarios run
        identically everywhere.  ``factor=1.0`` restores the node.
        """
        self.network.throttle(node_id, factor)

    # -- diagnostics -------------------------------------------------------

    def quiescent_registers(self) -> list[tuple[int, ...]]:
        """Every node's register vector clock (diagnostics)."""
        return [p.reg.vector_clock() for p in self.processes]

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {getattr(self, 'algorithm_name', '?')} "
            f"n={self.config.n if getattr(self, 'config', None) else '?'} "
            f"backend={self.name}>"
        )


class OperationPipeline:
    """A client that keeps up to ``depth`` operations in flight.

    Wraps a backend's submit path (:meth:`ClusterBackend.submit_write` /
    :meth:`~ClusterBackend.submit_snapshot`) with a bounded window:
    submitting past the depth awaits the *oldest* outstanding operation
    first (classic pipelining back-pressure), so a closed-loop client
    with ``depth=k`` always has ``k`` requests outstanding instead of
    round-tripping serially.  ``depth=1`` degenerates to today's
    one-at-a-time behaviour.

    Handles returned by ``write``/``snapshot`` are the backend's task
    objects; :meth:`drain` awaits everything still outstanding and
    re-raises the first failure.
    """

    def __init__(self, cluster: ClusterBackend, depth: int = 4) -> None:
        if depth < 1:
            raise ConfigurationError(f"pipeline depth must be >= 1, got {depth}")
        self.cluster = cluster
        self.depth = depth
        self._window: list[Any] = []

    @property
    def in_flight(self) -> int:
        """Operations submitted but not yet awaited out of the window."""
        return len(self._window)

    async def reserve(self) -> None:
        """Await completions until the window has a free slot.

        The back-pressure half of the pipeline: with ``depth`` operations
        outstanding this awaits the *oldest* until fewer than ``depth``
        remain, so a client that reserves before every submission keeps
        exactly ``depth`` requests in flight (``depth=1`` is genuinely
        serial).  Failures of awaited operations propagate here.
        """
        while len(self._window) >= self.depth:
            await self._window.pop(0)

    def admit(self, task: Any) -> Any:
        """Add an already-submitted task to the window (no back-pressure).

        For callers that submit through ``submit_write``/
        ``submit_snapshot`` themselves — to timestamp the submission —
        after :meth:`reserve` freed a slot.
        """
        self._window.append(task)
        return task

    async def write(self, node_id: int, value: Any) -> Any:
        """Submit a write once a slot is free; returns its task handle."""
        await self.reserve()
        return self.admit(self.cluster.submit_write(node_id, value))

    async def snapshot(self, node_id: int) -> Any:
        """Submit a snapshot once a slot is free; returns its task handle."""
        await self.reserve()
        return self.admit(self.cluster.submit_snapshot(node_id))

    async def drain(self) -> None:
        """Await every outstanding operation (first failure re-raises)."""
        window, self._window = self._window, []
        for task in window:
            await task


async def create_backend(
    name: str,
    algorithm="ss-nonblocking",
    config: ClusterConfig | None = None,
    *,
    time_scale: float = 0.002,
    start: bool = True,
) -> ClusterBackend:
    """Build, :meth:`~ClusterBackend.create`, and start a backend by name.

    Must run inside an event loop for the live backends (``asyncio``,
    ``udp``); the ``sim`` backend ignores ``time_scale``.
    """
    cls = backend_class(name)
    if cls.capabilities.simulated_time:
        backend = cls(algorithm, config, start=False)
    else:
        backend = cls(algorithm, config, time_scale=time_scale)
    await backend.create()
    if start:
        backend.start()
    return backend


def run_on_backend(
    name: str,
    algorithm,
    config: ClusterConfig | None,
    body: Callable[[ClusterBackend], Awaitable[Any]],
    *,
    time_scale: float = 0.002,
    max_events: int | None = None,
) -> Any:
    """Run ``async body(cluster)`` to completion on the named backend.

    The one driver every cross-backend harness shares: it owns the full
    lifecycle (create → start → body → close) and hides the substrate
    difference — the simulator drives its virtual clock via
    ``run_until_complete`` (honouring ``max_events``), the live backends
    run under ``asyncio.run``.  Returns whatever ``body`` returns.
    """
    cls = backend_class(name)
    if cls.capabilities.simulated_time:
        cluster = cls(algorithm, config)
        try:
            return cluster.kernel.run_until_complete(
                body(cluster), max_events=max_events
            )
        finally:
            cluster.stop()

    async def main() -> Any:
        cluster = await create_backend(
            name, algorithm, config, time_scale=time_scale
        )
        try:
            return await body(cluster)
        finally:
            await cluster.close()

    return asyncio.run(main())
