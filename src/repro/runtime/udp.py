"""Localhost UDP transport: the algorithms over real datagrams.

The simulated :class:`~repro.net.network.Network` *models* loss,
duplication, and reordering; this transport gets them for real from UDP.
Each node binds its own datagram socket on 127.0.0.1; messages travel in
the library's own binary codec (:mod:`repro.net.codec`) — no pickle, so
a malformed or hostile datagram can at worst be dropped (which the fault
model already covers as loss).  The quorum service's retransmission
makes the algorithms indifferent to datagram loss, exactly as the
paper's communication-fairness assumption intends.

Localhost UDP is *too* reliable to exercise the fault model on its own,
so every outgoing datagram passes through a :class:`DatagramFaultGate` —
a shim between codec and socket that applies the cluster's
:class:`~repro.config.ChannelConfig` loss/duplication/delay (hence
reorder) probabilities and any partition schedule to live packets,
mirroring the simulated channel's behaviour (and its RNG draw order) on
real sockets.  Fuzz campaigns thereby speak the same scenario
vocabulary over the wire.

The cluster facade lives in :class:`repro.backend.udp.UdpBackend`;
this module holds the transport only.
"""

from __future__ import annotations

import asyncio
import random
import struct
from typing import Any, Callable

from repro.analysis.metrics import MetricsCollector
from repro.config import ChannelConfig, ClusterConfig
from repro.errors import NetworkError
from repro.net.batch import BatchMessage, BatchWindow
from repro.net.codec import CodecError, decode_message, encode_message
from repro.net.message import Message
from repro.runtime.asyncio_kernel import AsyncioKernel

__all__ = ["DatagramFaultGate", "UdpNetwork", "MAX_DATAGRAM_BYTES"]

#: The largest UDP payload IPv4 can carry (65 535 − 8 UDP − 20 IP header).
MAX_DATAGRAM_BYTES = 65_507


class _NodeProtocol(asyncio.DatagramProtocol):
    """Datagram endpoint for one node; forwards packets to the fabric."""

    def __init__(self, network: "UdpNetwork", node_id: int) -> None:
        self._network = network
        self._node_id = node_id

    def datagram_received(self, data: bytes, addr) -> None:
        self._network._on_datagram(self._node_id, data)

    def error_received(self, exc) -> None:  # pragma: no cover - OS-dependent
        pass


class DatagramFaultGate:
    """Applies the channel fault model to live datagrams before the socket.

    The simulated :class:`~repro.net.channel.Channel` draws loss, delay,
    and duplication from a seeded RNG; this gate makes the same draws in
    the same order for every outgoing datagram — a *blocked* (partitioned)
    packet draws nothing; otherwise loss uniform, then (if the packet
    survives and fits under the per-pair capacity bound) delay uniform,
    then duplication uniform, then the duplicate's delay uniform.  Held
    packets are released onto the socket after their delay, so reordering
    emerges from delay variance exactly as in the model.

    Partitions are group-membership based like
    :meth:`~repro.net.network.Network.partition`, and are enforced both
    when a packet is submitted and again when a delayed packet is
    released (mirroring the channel's drop of in-flight packets crossing
    a partition).
    """

    def __init__(
        self,
        kernel: AsyncioKernel,
        rng: random.Random,
        config: ChannelConfig,
        transmit: Callable[[int, int, bytes], None],
        metrics: MetricsCollector | None = None,
    ) -> None:
        self._kernel = kernel
        self._rng = rng
        self._transmit = transmit
        self._metrics = metrics
        self._loss_p = config.loss_probability
        self._dup_p = config.duplication_probability
        self._capacity = config.capacity
        self._min_delay = config.min_delay
        self._max_delay = config.max_delay
        #: Packets currently held for delayed release, per directed pair.
        self._held: dict[tuple[int, int], int] = {}
        self._membership: dict[int, int] = {}
        self._throttled: dict[int, float] = {}

    # -- partition schedule ------------------------------------------------

    def blocked(self, src: int, dst: int) -> bool:
        """Whether the current partition blocks the ``src → dst`` path."""
        side_src = self._membership.get(src)
        side_dst = self._membership.get(dst)
        return (
            side_src is not None
            and side_dst is not None
            and side_src != side_dst
        )

    def partition(self, *groups: set) -> None:
        """Block every path crossing between the given node groups."""
        membership: dict[int, int] = {}
        for index, group in enumerate(groups):
            for node_id in group:
                membership[node_id] = index
        self._membership = membership

    def heal(self) -> None:
        """Remove all partitions."""
        self._membership = {}

    def throttle(self, node_id: int, factor: float = 10.0) -> None:
        """Stretch delays on paths touching ``node_id`` by ``factor``.

        Mirrors :meth:`repro.net.network.Network.throttle` (a path
        between two throttled nodes takes the larger factor); the factor
        multiplies the already-drawn delay so the RNG draw order stays
        identical to the simulated channel's.  ``factor=1.0`` restores.
        """
        if factor <= 0.0:
            raise ValueError(f"throttle factor must be > 0, got {factor}")
        self._throttled[node_id] = factor
        if factor == 1.0:
            del self._throttled[node_id]

    def throttled(self) -> dict[int, float]:
        """Currently throttled nodes and their factors."""
        return dict(self._throttled)

    # -- the fault model ---------------------------------------------------

    @property
    def held_total(self) -> int:
        """Datagrams currently held for delayed release."""
        return sum(self._held.values())

    def submit(self, src: int, dst: int, payload: bytes) -> None:
        """Pass one outgoing datagram through the fault model."""
        if self.blocked(src, dst):
            return
        rng = self._rng
        if rng.random() < self._loss_p:
            if self._metrics is not None:
                self._metrics.record_loss()
            return
        self._hold(src, dst, payload)
        if rng.random() < self._dup_p:
            if self._metrics is not None:
                self._metrics.record_duplication()
            self._hold(src, dst, payload)

    def _hold(self, src: int, dst: int, payload: bytes) -> None:
        key = (src, dst)
        if self._held.get(key, 0) >= self._capacity:
            if self._metrics is not None:
                self._metrics.record_capacity_drop()
            return
        self._held[key] = self._held.get(key, 0) + 1
        delay = self._rng.uniform(self._min_delay, self._max_delay)
        if self._throttled:
            delay *= max(
                self._throttled.get(src, 1.0), self._throttled.get(dst, 1.0)
            )
        self._kernel.call_later(delay, self._release, src, dst, payload)

    def _release(self, src: int, dst: int, payload: bytes) -> None:
        key = (src, dst)
        held = self._held.get(key, 0)
        if held:
            self._held[key] = held - 1
        if self.blocked(src, dst):
            return
        self._transmit(src, dst, payload)


class UdpNetwork:
    """A network fabric whose channels are real localhost UDP sockets.

    Presents the same interface the :class:`~repro.net.node.Process`
    class uses (``attach``/``send``/``metrics``), plus the adversary and
    observability hooks of the simulated fabric: ``partition``/``heal``
    (enforced by the :class:`DatagramFaultGate`), ``trace_listeners``,
    and ``in_flight_total``.  In-flight *inspection* does not apply —
    once a datagram is on the wire the OS owns it — so :meth:`channels`
    returns an empty list and channel-content fault injection degrades
    to a no-op.
    """

    def __init__(
        self,
        kernel: AsyncioKernel,
        config: ClusterConfig,
        metrics: MetricsCollector | None = None,
    ) -> None:
        self.kernel = kernel
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsCollector()
        #: Observability hooks: callables invoked as
        #: ``listener(event, time, src, dst, kind)`` where event is
        #: ``"send"`` or ``"deliver"``.  Used by the trace recorder.
        self.trace_listeners: list = []
        self._processes: dict[int, Any] = {}
        self._transports: dict[int, asyncio.DatagramTransport] = {}
        self._addresses: dict[int, tuple[str, int]] = {}
        self._open = False
        # Seeded like the simulated fabric (one draw from the kernel RNG),
        # though live runs are nondeterministic regardless.
        self._gate = DatagramFaultGate(
            kernel,
            random.Random(kernel.rng.getrandbits(64)),
            config.channel,
            self._transmit,
            self.metrics,
        )
        # Transport batching: bundle concurrent same-edge messages into
        # one datagram (one fault-gate pass per bundle).  Constructed
        # only when asked for, mirroring the simulated fabric.
        self._batcher: BatchWindow | None = None
        if config.channel.batch_window > 1:
            self._batcher = BatchWindow(
                kernel,
                config.channel.batch_window,
                self._gate_send,
                self.metrics,
            )

    async def open(self) -> None:
        """Bind one localhost UDP socket per node."""
        loop = asyncio.get_event_loop()
        for node_id in range(self.config.n):
            transport, _protocol = await loop.create_datagram_endpoint(
                lambda node_id=node_id: _NodeProtocol(self, node_id),
                local_addr=("127.0.0.1", 0),
            )
            self._transports[node_id] = transport
            self._addresses[node_id] = transport.get_extra_info("sockname")
        self._open = True

    def close(self) -> None:
        """Close every socket; idempotent (delayed releases become no-ops)."""
        for transport in self._transports.values():
            transport.close()
        self._transports.clear()
        self._addresses.clear()
        self._open = False

    # -- fabric interface --------------------------------------------------

    def attach(self, process: Any) -> None:
        """Register a process for delivery."""
        if process.node_id in self._processes:
            raise NetworkError(f"node {process.node_id} already attached")
        self._processes[process.node_id] = process

    def send(self, src: int, dst: int, message: Message) -> None:
        """Send one message as a datagram (loopback stays in-process)."""
        if src == dst:
            self.kernel.call_soon(self._deliver, src, dst, message)
            return
        if not self._open:
            raise NetworkError("UdpNetwork.open() has not completed")
        if self.metrics._enabled:
            self.metrics.record_send(src, dst, message.KIND, message.wire_size())
        if self.trace_listeners:
            now = self.kernel.now
            kind = message.KIND
            for listener in self.trace_listeners:
                listener("send", now, src, dst, kind)
        if self._batcher is not None:
            self._batcher.push(src, dst, message)
            return
        self._gate_send(src, dst, message)

    def _gate_send(self, src: int, dst: int, message: Message) -> None:
        """Encode one (possibly bundled) message and pass it to the gate.

        A message whose datagram would exceed :data:`MAX_DATAGRAM_BYTES`
        raises :class:`~repro.errors.NetworkError` here, in the sending
        operation: the socket would refuse it on every retransmission,
        and the round waiting for its acks would never end.
        """
        # encode_message caches on the instance: a broadcast encodes once
        # and reuses the bytes for every destination datagram.
        payload = struct.pack(">I", src) + encode_message(message)
        if len(payload) > MAX_DATAGRAM_BYTES:
            raise NetworkError(
                f"{message.KIND} from node {src} encodes to {len(payload)} B, "
                f"over the {MAX_DATAGRAM_BYTES} B a UDP datagram can carry"
            )
        self._gate.submit(src, dst, payload)

    def _transmit(self, src: int, dst: int, payload: bytes) -> None:
        """Put one gate-approved datagram on the wire."""
        if not self._open:
            return
        transport = self._transports.get(src)
        if transport is None or transport.is_closing():
            return
        transport.sendto(payload, self._addresses[dst])

    def _on_datagram(self, dst: int, data: bytes) -> None:
        if len(data) < 4:
            return  # runt datagram: lost
        src = struct.unpack(">I", data[:4])[0]
        if self._gate.blocked(src, dst):
            return  # arrived across a partition: dropped, as in the model
        try:
            message = decode_message(data[4:])
        except CodecError:
            return  # malformed datagram: treated as loss
        self._deliver(src, dst, message)

    def _deliver(self, src: int, dst: int, message: Message) -> None:
        process = self._processes.get(dst)
        if process is None:
            return
        if type(message) is BatchMessage:
            # Unbundle below the process layer (FIFO order preserved):
            # algorithms only ever see the original messages.
            for inner in message.messages:
                if self.trace_listeners and src != dst:
                    for listener in self.trace_listeners:
                        listener(
                            "deliver", self.kernel.now, src, dst, inner.KIND
                        )
                process.deliver(src, inner)
            return
        if self.trace_listeners and src != dst:
            for listener in self.trace_listeners:
                listener("deliver", self.kernel.now, src, dst, message.KIND)
        process.deliver(src, message)

    # -- adversary controls ------------------------------------------------

    def partition(self, *groups: set) -> None:
        """Block datagrams crossing between the given node groups."""
        self._gate.partition(*groups)

    def heal(self) -> None:
        """Remove all partitions."""
        self._gate.heal()

    def throttle(self, node_id: int, factor: float = 10.0) -> None:
        """Make ``node_id`` limp: stretch its datagram delays by ``factor``."""
        self._gate.throttle(node_id, factor)

    def throttled(self) -> dict[int, float]:
        """Currently throttled nodes and their factors."""
        return self._gate.throttled()

    # -- introspection -----------------------------------------------------

    def channels(self) -> list:
        """No inspectable channels: the OS owns in-flight datagrams.

        Returning an empty list makes channel-content fault injection
        (:meth:`~repro.fault.transient.TransientFaultInjector
        .scramble_channels`) a correct no-op on this backend.
        """
        return []

    def in_flight_total(self) -> int:
        """Datagrams currently held in the fault gate's delay stage."""
        return self._gate.held_total
