"""Configuration dataclasses for clusters, channels, and algorithms.

All knobs that an experiment sweeps live here, so a benchmark run is fully
described by ``(ClusterConfig, workload, seed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError

__all__ = [
    "ChannelConfig",
    "ClusterConfig",
    "UNBOUNDED_DELTA",
    "scenario_config",
]

#: Sentinel for "δ effectively infinite": Algorithm 3 then behaves like the
#: O(n)-messages non-blocking algorithm and never blocks writes.
UNBOUNDED_DELTA = math.inf


@dataclass(frozen=True, slots=True)
class ChannelConfig:
    """Parameters of one unreliable point-to-point channel.

    The paper's channels are bidirectional, bounded-capacity, and may lose,
    duplicate, and reorder packets; there is no bound on delay (we model
    delay as a seeded uniform draw, which under retransmission yields the
    required *communication fairness*).
    """

    min_delay: float = 0.5
    max_delay: float = 1.5
    loss_probability: float = 0.0
    duplication_probability: float = 0.0
    capacity: int = 64
    #: Transport-level op batching: coalesce up to this many messages per
    #: ordered (src, dst) pair into one wire bundle (one loss/delay/
    #: duplication draw for the whole bundle), unbundled FIFO on deliver.
    #: ``1`` (the default) disables batching entirely — the send path is
    #: byte-identical to the pre-batching transport, so seeded schedules
    #: and determinism goldens are unchanged.
    batch_window: int = 1

    def __post_init__(self) -> None:
        if self.min_delay < 0 or self.max_delay < self.min_delay:
            raise ConfigurationError(
                f"need 0 <= min_delay <= max_delay, got "
                f"[{self.min_delay}, {self.max_delay}]"
            )
        if not 0.0 <= self.loss_probability < 1.0:
            raise ConfigurationError(
                f"loss_probability must be in [0, 1), got {self.loss_probability}"
            )
        if not 0.0 <= self.duplication_probability <= 1.0:
            raise ConfigurationError(
                "duplication_probability must be in [0, 1], got "
                f"{self.duplication_probability}"
            )
        if self.capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {self.capacity}")
        if self.batch_window < 1:
            raise ConfigurationError(
                f"batch_window must be >= 1, got {self.batch_window}"
            )

    def reliable(self) -> "ChannelConfig":
        """A copy with loss and duplication disabled (delays kept)."""
        return replace(self, loss_probability=0.0, duplication_probability=0.0)


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Parameters of a simulated n-node cluster.

    Attributes
    ----------
    n:
        Number of nodes.  Correctness requires that fewer than ``n/2``
        nodes fail (the paper's ``2f < n``).
    channel:
        Channel model applied to every ordered node pair.
    retransmit_interval:
        How long a client-side ``repeat broadcast … until`` loop waits
        before re-broadcasting.  This implements the quorum service's
        recovery from packet loss.
    gossip_interval:
        Period of the self-stabilizing do-forever loop (gossip + cleanup).
        On the always-terminating variants a write deposit ends the
        loop's sleep, so the write is served at once rather than at the
        next tick; the iterations after it keep this period.
    delta:
        Algorithm 3's δ: number of observed concurrent writes after which
        writes are temporarily blocked to let snapshots terminate.  Use
        ``0`` for always-blocking (Algorithm 2-like, O(n²) messages) and
        :data:`UNBOUNDED_DELTA` for never-blocking (Algorithm 1-like).
    seed:
        Master seed; kernel and channel RNGs derive from it.
    """

    n: int = 5
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    retransmit_interval: float = 4.0
    gossip_interval: float = 2.0
    delta: float = 0
    seed: int = 0
    #: MAXINT for the bounded-counter variants (Section 5): once any
    #: operation index reaches this value a consensus-based global reset
    #: restarts the indices.  The paper suggests 2**64 - 1; tests use tiny
    #: values so overflow actually happens.
    max_int: int = 2**64 - 1
    #: Override the quorum size used by every "until majority" loop.
    #: ``None`` (the default) means a majority, ⌊n/2⌋+1 — the only value
    #: for which the paper's guarantees hold.  Other values exist for
    #: experiments: larger quorums trade crash tolerance for nothing;
    #: smaller quorums break the intersection property and demonstrably
    #: break linearizability (see the quorum experiments/tests).
    quorum_size: int | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigurationError(f"need at least 2 nodes, got {self.n}")
        if self.max_int < 4:
            raise ConfigurationError(f"max_int too small: {self.max_int}")
        if self.quorum_size is not None and not 1 <= self.quorum_size <= self.n:
            raise ConfigurationError(
                f"quorum_size must be in 1..{self.n}, got {self.quorum_size}"
            )
        if self.retransmit_interval <= 0:
            raise ConfigurationError(
                f"retransmit_interval must be positive, got {self.retransmit_interval}"
            )
        if self.gossip_interval <= 0:
            raise ConfigurationError(
                f"gossip_interval must be positive, got {self.gossip_interval}"
            )
        if self.delta < 0:
            raise ConfigurationError(f"delta must be >= 0, got {self.delta}")

    @property
    def majority(self) -> int:
        """The quorum size every acknowledgement loop waits for.

        ``⌊n/2⌋ + 1`` unless explicitly overridden via ``quorum_size``
        (experiments only; see that field's warning).
        """
        if self.quorum_size is not None:
            return self.quorum_size
        return self.n // 2 + 1

    @property
    def max_crash_faults(self) -> int:
        """Largest ``f`` with ``2f < n`` — the crash-tolerance bound."""
        return (self.n - 1) // 2


def scenario_config(
    *,
    n: int = 5,
    seed: int = 0,
    delta: float = 0.0,
    min_delay: float | None = None,
    max_delay: float | None = None,
    fixed_delay: float | None = None,
    loss: float = 0.0,
    duplication: float | None = None,
    capacity: int | None = None,
    batch: int | None = None,
    **overrides,
) -> ClusterConfig:
    """One factory for every scenario-style cluster configuration.

    The fuzz executor, the schedule explorer and the recovery
    experiments all describe a cluster the same way — a shape
    (``n``, ``delta``, ``seed``) plus a channel model — but used to spell
    the ``ClusterConfig``/``ChannelConfig`` pair out by hand.  This
    factory is the single spelling.

    Channel knobs: ``fixed_delay`` pins ``min_delay == max_delay`` (what
    the explorer needs — coincident timestamps are its choice points);
    otherwise ``min_delay``/``max_delay`` default to the
    :class:`ChannelConfig` defaults.  ``duplication`` defaults to
    ``loss / 2``, the fuzz specs' convention.  ``batch`` sets the
    transport batch window (``ChannelConfig.batch_window``; ``None``
    keeps the unbatched default of 1).  Remaining keyword
    arguments (``retransmit_interval``, ``max_int``, ``quorum_size``, …)
    pass through to :class:`ClusterConfig` unchanged.
    """
    if fixed_delay is not None:
        if min_delay is not None or max_delay is not None:
            raise ConfigurationError(
                "pass either fixed_delay or min_delay/max_delay, not both"
            )
        min_delay = max_delay = fixed_delay
    channel_kwargs: dict = {"loss_probability": loss}
    if min_delay is not None:
        channel_kwargs["min_delay"] = min_delay
    if max_delay is not None:
        channel_kwargs["max_delay"] = max_delay
    if capacity is not None:
        channel_kwargs["capacity"] = capacity
    if batch is not None:
        channel_kwargs["batch_window"] = batch
    channel_kwargs["duplication_probability"] = (
        loss / 2 if duplication is None else duplication
    )
    return ClusterConfig(
        n=n,
        seed=seed,
        delta=delta,
        channel=ChannelConfig(**channel_kwargs),
        **overrides,
    )
