"""Process abstraction: one node of the networked system.

A :class:`Process` owns a node's message handlers, its crash gate, and the
driver of its ``do forever`` loop.  Algorithm classes (in
:mod:`repro.core`) subclass it, register server-side handlers, and expose
client-side operations as coroutines.

Crash semantics follow the paper (Section 2):

* **crash** — the node stops taking steps: incoming messages are dropped
  (a crashed node cannot execute receive steps), sends are suppressed, and
  the do-forever loop blocks on the step gate.
* **resume** — the node takes steps again *without* restarting its program
  (undetectable restart).  In-progress operations simply continue.
* **detectable restart** — the node re-initializes all of its variables
  via :meth:`initialize_state` before taking steps again.  The paper
  assumes this mode when recovering from transient faults.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from repro.config import ClusterConfig
from repro.errors import CancelledError, ReproError, SimulationError
from repro.net.message import Message
from repro.net.outbox import Outbox
from repro.sim.kernel import Kernel, SimFuture, SimTask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network
    from repro.net.quorum import AckCollector

__all__ = ["OpId", "Process"]


@dataclass(frozen=True, slots=True)
class OpId:
    """One client operation's identity: its node and that node's count."""

    node: int
    seq: int


class Process:
    """Base class for one node's protocol instance.

    Subclasses must implement :meth:`initialize_state` (variable
    initialization; re-run on detectable restart) and may implement
    :meth:`do_forever_iteration` (one body of the algorithm's ``do
    forever`` loop — cleanup, gossip, task scheduling).
    """

    #: Whether local client operations may overlap (see :meth:`operation`).
    CONCURRENT_CLIENTS = False

    def __init__(
        self,
        node_id: int,
        kernel: Kernel,
        network: "Network",
        config: ClusterConfig,
    ) -> None:
        self.node_id = node_id
        self.kernel = kernel
        self.network = network
        self.config = config
        self.gate = kernel.create_gate()
        self._handlers: dict[str, Callable[[int, Message], None]] = {}
        self._ack_sinks: dict[str, list["AckCollector"]] = {}
        self._loop_task: SimTask | None = None
        self._iteration_listeners: list[Callable[[int], None]] = []
        self.iterations_completed = 0
        #: The loop's sleep while one is in progress (see :meth:`wake`).
        self._nap: SimFuture | None = None
        #: Whether :meth:`wake` came while the loop was not sleeping.
        self._woken = False
        #: Observability hook (:class:`repro.obs.observe.ProcessObs` or
        #: ``None``).  Algorithm code updates its heal/retransmit counters
        #: behind an ``obs is not None`` test; see ``docs/observability.md``.
        self.obs = None
        self._op_seq = 0
        self._ops_in_flight: dict[OpId, str] = {}
        #: Messages owed until acknowledged; a restart keeps them.
        self.outbox = Outbox(self)
        network.attach(self)
        self.initialize_state()

    # -- state lifecycle -----------------------------------------------------

    def initialize_state(self) -> None:
        """(Re)initialize all protocol variables.

        Called once at construction and again on detectable restart.  The
        paper notes initialization is *optional* in the self-stabilizing
        context — the transient-fault tests exercise exactly that by
        scrambling the state this method sets up.
        """

    @property
    def crashed(self) -> bool:
        """Whether the node is currently crashed (taking no steps)."""
        return not self.gate.is_open

    def crash(self) -> None:
        """Stop taking steps: drop deliveries, suppress sends, halt loops."""
        self.gate.close()

    def resume(self, restart: bool = False) -> None:
        """Return to taking steps.

        With ``restart=True`` this is a *detectable* restart: all protocol
        variables are re-initialized first (the mode the paper assumes for
        nodes that failed during the transient-fault recovery period).
        """
        if restart:
            self.initialize_state()
        self.gate.open()

    # -- client operations -----------------------------------------------------

    @contextmanager
    def operation(self, kind: str) -> Iterator[OpId]:
        """Run one client operation of ``kind`` under a fresh :class:`OpId`.

        The paper's model is one sequential client per node, so a second
        operation of a kind already in flight raises
        :class:`~repro.errors.ReproError` unless the class sets
        :attr:`CONCURRENT_CLIENTS`.  The count lives outside
        :meth:`initialize_state`: a detectable restart never reissues one.
        """
        if not self.CONCURRENT_CLIENTS and kind in self._ops_in_flight.values():
            raise ReproError(
                f"node {self.node_id}: {kind} already in progress; the model "
                "assumes one sequential client per node"
            )
        self._op_seq += 1
        op = OpId(self.node_id, self._op_seq)
        self._ops_in_flight[op] = kind
        try:
            yield op
        finally:
            del self._ops_in_flight[op]

    @property
    def busy(self) -> bool:
        """Whether a client operation of this node is in flight."""
        return bool(self._ops_in_flight)

    # -- handler registration and delivery ---------------------------------------

    def register_handler(
        self, kind: str, handler: Callable[[int, Message], None]
    ) -> None:
        """Install the server-side handler for one message kind."""
        if kind in self._handlers:
            raise SimulationError(
                f"node {self.node_id}: handler for {kind!r} already registered"
            )
        self._handlers[kind] = handler

    def deliver(self, sender: int, message: Message) -> None:
        """Entry point used by the network fabric for every arriving packet."""
        if not self.gate.is_open:
            # A crashed node takes no receive steps; the packet is lost.
            return
        obs = self.obs
        if obs is not None:
            # Attribution: time this packet against the node's open
            # quorum round of its kind (a dict miss for non-ack kinds).
            # Runs before the ack sinks so late replies are recorded
            # even after the collector has been removed.
            obs.on_reply(sender, message.kind, self.kernel.now)
        handler = self._handlers.get(message.kind)
        if handler is not None:
            handler(sender, message)
        for collector in self._ack_sinks.get(message.kind, ()):
            collector.offer(sender, message)

    def add_ack_sink(self, kind: str, collector: "AckCollector") -> None:
        """Route arriving ``kind`` messages into a client-side collector."""
        self._ack_sinks.setdefault(kind, []).append(collector)

    def remove_ack_sink(self, kind: str, collector: "AckCollector") -> None:
        """Detach a collector registered via :meth:`add_ack_sink`."""
        sinks = self._ack_sinks.get(kind)
        if sinks and collector in sinks:
            sinks.remove(collector)

    # -- sending --------------------------------------------------------------------

    def send(self, dst: int, message: Message) -> None:
        """Send one message (suppressed while crashed)."""
        if self.gate.is_open:
            self.network.send(self.node_id, dst, message)

    def broadcast(self, message: Message, include_self: bool = True) -> None:
        """Send to every node; self-delivery uses the zero-cost loopback.

        The paper's client-side ``broadcast`` goes to all of 𝒫 and the
        sender's own server-side participates (its ack counts toward the
        majority); gossip (``for k ≠ i``) passes ``include_self=False``.
        Each copy goes through :meth:`send`, so a subclass that wraps
        outgoing traffic (the bounded variants' epoch envelope) wraps
        broadcasts too.
        """
        if not self.gate.is_open:
            return
        for dst in range(self.config.n):
            if dst == self.node_id and not include_self:
                continue
            self.send(dst, message)

    # -- do-forever loop ---------------------------------------------------------------

    async def do_forever_iteration(self) -> None:
        """One body of the algorithm's ``do forever`` loop (default: no-op)."""

    def add_iteration_listener(self, listener: Callable[[int], None]) -> None:
        """Register a callback invoked with ``node_id`` after each iteration."""
        self._iteration_listeners.append(listener)

    def start(self) -> None:
        """Start the do-forever loop as a background task."""
        if self._loop_task is not None and not self._loop_task.done():
            raise SimulationError(f"node {self.node_id}: loop already running")
        self._loop_task = self.kernel.create_task(
            self._run_forever(), name=f"node{self.node_id}.do_forever"
        )

    def stop(self) -> None:
        """Cancel the do-forever loop task and disarm the outbox."""
        if self._loop_task is not None:
            self._loop_task.cancel()
            self._loop_task = None
        self.outbox.disarm()

    async def _run_forever(self) -> None:
        try:
            while True:
                await self.gate.passthrough()
                await self.do_forever_iteration()
                self.iterations_completed += 1
                for listener in self._iteration_listeners:
                    listener(self.node_id)
                if self._woken:
                    self._woken = False
                else:
                    await self._sleep(self.config.gossip_interval)
        except CancelledError:
            raise

    async def _sleep(self, delay: float) -> None:
        """``kernel.sleep(delay)``, except that :meth:`wake` ends it early."""
        nap = self._nap = self.kernel.create_future()
        self.kernel.call_later(delay, complete, nap)
        try:
            await nap
        finally:
            self._nap = None

    def wake(self) -> None:
        """Start the do-forever loop's next iteration without its sleep.

        A sleep in progress ends now; otherwise the loop skips the sleep
        after the iteration it is running.  Either way one call buys one
        early iteration, which is a whole one: the loop's period
        (``gossip_interval``) paces every iteration after it.  The loops
        that serve client work call it when work arrives: an Algorithm
        2/3 write deposit and an Algorithm 3 snapshot task.
        """
        nap = self._nap
        if nap is None:
            self._woken = True
        else:
            complete(nap)

    # -- misc ---------------------------------------------------------------------------

    @property
    def majority(self) -> int:
        """Majority quorum size for this cluster."""
        return self.config.majority

    def peers(self) -> list[int]:
        """All node ids except this node's."""
        return [k for k in range(self.config.n) if k != self.node_id]

    def __repr__(self) -> str:
        status = "crashed" if self.crashed else "up"
        return f"<{type(self).__name__} p{self.node_id} {status}>"


def complete(future: SimFuture) -> None:
    """Complete ``future`` with ``None`` unless something already has."""
    if not future.done():
        future.set_result(None)
