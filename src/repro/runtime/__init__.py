"""Live runtimes: the same algorithms over an event loop or real UDP.

This package holds the kernel/transport substrate the live backends are
built from; deployments start from :func:`repro.backend.create_backend`
or :class:`repro.client.SnapshotClient`.
"""

from repro.runtime.asyncio_kernel import AsyncioEvent, AsyncioGate, AsyncioKernel
from repro.runtime.udp import DatagramFaultGate, UdpNetwork

__all__ = [
    "AsyncioEvent",
    "AsyncioGate",
    "AsyncioKernel",
    "DatagramFaultGate",
    "UdpNetwork",
]
