"""Networked-system substrate: messages, channels, fabric, processes, quorum.

Implements the paper's system model (Section 2): ``n`` asynchronous
processes connected by a full mesh of bounded-capacity channels that may
lose, duplicate, and reorder packets, with a retransmitting quorum service
and one outbox per process (messages owed until acknowledged) on top.
"""

from repro.net.channel import Channel
from repro.net.message import Message, measure_size
from repro.net.network import Network
from repro.net.node import Process
from repro.net.quorum import AckCollector, broadcast_until

__all__ = [
    "AckCollector",
    "Channel",
    "Message",
    "Network",
    "Process",
    "broadcast_until",
    "measure_size",
]
