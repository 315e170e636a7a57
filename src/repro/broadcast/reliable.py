"""Reliable broadcast over unreliable channels.

Algorithm 2 (the DGFR always-terminating baseline) assumes a
``reliableBroadcast`` primitive for its ``SNAP`` (task announcement) and
``END`` (task result) messages: if any correct node delivers a message,
every correct node delivers it.

This implementation combines two classic mechanisms:

* **eager relay** — the first time a node learns a message it assumes
  responsibility for it and starts retransmitting to every peer, so a
  sender that crashes mid-broadcast cannot strand a partial delivery;
* **per-peer acknowledgements with exponential backoff** — retransmission
  to a peer stops once the peer acks, and the retry period doubles up to a
  cap so permanently crashed peers cost vanishing bandwidth.  Each
  message is an entry of the node's :class:`~repro.net.outbox.Outbox`
  with this backoff, so a broadcast starts no task.

The service is deliberately *not* self-stabilizing and uses unbounded
per-message bookkeeping — exactly the property of Algorithm 2 that the
paper's Algorithm 3 removes (bounded space being a prerequisite for
self-stabilization; see DESIGN.md).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from repro.net.message import Message
from repro.net.node import Process

__all__ = ["ReliableBroadcast", "RbDataMessage", "RbAckMessage"]

#: The backoff cap, relative to the cluster's retransmit interval.
_BACKOFF_CAP = 16.0


@dataclass(frozen=True)
class RbDataMessage(Message):
    """A reliable-broadcast payload tagged with its unique (origin, seq)."""

    KIND = "RB"
    origin: int
    seq: int
    payload: Message


@dataclass(frozen=True)
class RbAckMessage(Message):
    """Per-receiver acknowledgement of one (origin, seq)."""

    KIND = "RBack"
    origin: int
    seq: int


class ReliableBroadcast:
    """Reliable-broadcast endpoint attached to one :class:`Process`.

    Parameters
    ----------
    process:
        The owning node; handlers for the RB wire messages are registered
        on it.
    deliver:
        Application callback ``deliver(origin, payload)`` invoked exactly
        once per broadcast message, in arrival order at this node.
    data_cls, ack_cls:
        The wire message classes to use.  One process can host several
        independent reliable-broadcast endpoints as long as each uses its
        own message kinds — the consensus layer
        (:mod:`repro.consensus`) rides on dedicated ``CS_RB`` carriers so
        its traffic never collides with Algorithm 2's ``RB`` stream.
    """

    def __init__(
        self,
        process: Process,
        deliver: Callable[[int, Message], None],
        data_cls: type[RbDataMessage] = RbDataMessage,
        ack_cls: type[RbAckMessage] = RbAckMessage,
    ) -> None:
        self._process = process
        self._deliver = deliver
        self._data_cls = data_cls
        self._ack_cls = ack_cls
        self._seq = itertools.count(1)
        self._known: dict[tuple[int, int], Message] = {}
        process.register_handler(data_cls.KIND, self._on_data)
        process.register_handler(ack_cls.KIND, self._on_ack)

    def broadcast(self, payload: Message) -> None:
        """Reliably broadcast ``payload`` to every node (including self)."""
        message_id = (self._process.node_id, next(self._seq))
        self._learn(message_id, payload)

    # -- wire handlers ---------------------------------------------------------

    def _on_data(self, sender: int, message: RbDataMessage) -> None:
        message_id = (message.origin, message.seq)
        self._process.send(
            sender, self._ack_cls(origin=message.origin, seq=message.seq)
        )
        self._learn(message_id, message.payload)

    def _on_ack(self, sender: int, message: RbAckMessage) -> None:
        key = (self._data_cls.KIND, (message.origin, message.seq))
        self._process.outbox.ack(sender, [key])

    # -- core -----------------------------------------------------------------------

    def _learn(self, message_id: tuple[int, int], payload: Message) -> None:
        """Deliver a new message and owe it to every peer until all ack."""
        if message_id in self._known:
            return
        self._known[message_id] = payload
        self._deliver(message_id[0], payload)
        process = self._process
        origin, seq = message_id
        wire = self._data_cls(origin=origin, seq=seq, payload=payload)
        for peer in process.peers():
            process.send(peer, wire)
        cap = process.config.retransmit_interval * _BACKOFF_CAP
        key = (self._data_cls.KIND, message_id)
        process.outbox.post(key, wire, process.config.n - 1, cap=cap)
