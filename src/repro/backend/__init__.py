"""One cluster contract, three runtimes.

Every deployment of a snapshot object — simulated, live asyncio, or real
UDP — implements the same :class:`~repro.backend.base.ClusterBackend`
contract and advertises a :class:`~repro.backend.base.Capabilities`
descriptor, so every harness (experiments, verify, fuzz, latency)
runs on any substrate and degrades consistently where a capability is
sim-only.  See ``docs/runtimes.md`` for the capability matrix.
"""

from repro.backend.base import (
    BACKENDS,
    Capabilities,
    CAPABILITY_NOTES,
    ClusterBackend,
    OperationPipeline,
    backend_capabilities,
    backend_class,
    backend_names,
    create_backend,
    require_backend_capability,
    run_on_backend,
)
from repro.backend.aio import AsyncioBackend
from repro.backend.sim import SimBackend
from repro.backend.udp import UdpBackend

__all__ = [
    "BACKENDS",
    "Capabilities",
    "CAPABILITY_NOTES",
    "ClusterBackend",
    "OperationPipeline",
    "AsyncioBackend",
    "SimBackend",
    "UdpBackend",
    "backend_capabilities",
    "backend_class",
    "backend_names",
    "create_backend",
    "require_backend_capability",
    "run_on_backend",
]
