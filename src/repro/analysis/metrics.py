"""Message accounting for communication-cost experiments.

The paper's claims are stated in messages and bits ("O(n) messages of
O(n·ν) bits", "O(n²) gossip messages of O(ν) bits").  The network fabric
reports every send here, tagged with the message kind, so benchmarks can
regenerate those counts.  :meth:`MetricsCollector.window` measures the
traffic attributable to one operation in a quiescent run.

:func:`percentile` is the package's one exact quantile: a nearest-rank
order statistic over recorded samples (load latencies, probe medians).
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import ObservabilityError

__all__ = ["MetricsCollector", "MetricsSnapshot", "TrafficWindow", "percentile"]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of an ascending sequence (``q`` in 0..1).

    The sample at index ``min(n - 1, int(q * n))``, never an
    interpolation between two; ``0.0`` when there are no samples.  The
    ledger's ``ledger.loadgen.percentile`` is defined the same way.
    """
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """An immutable point-in-time copy of the collector's counters."""

    messages_by_kind: dict[str, int]
    bytes_by_kind: dict[str, int]
    dropped_loss: int
    dropped_capacity: int
    duplicated: int
    #: Transport batching (``ChannelConfig.batch_window > 1``): wire
    #: bundles emitted, and how many logical messages rode inside them.
    #: ``messages_by_kind`` keeps counting the *inner* messages — the
    #: paper's complexity claims are per logical message — so these two
    #: measure the coalescing on top, not instead.
    batches: int = 0
    batched_messages: int = 0

    @property
    def total_messages(self) -> int:
        """Total network messages sent (loopback self-delivery excluded)."""
        return sum(self.messages_by_kind.values())

    @property
    def total_bytes(self) -> int:
        """Total payload bytes sent over the network."""
        return sum(self.bytes_by_kind.values())

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Counter-wise difference ``self - earlier``."""
        return MetricsSnapshot(
            messages_by_kind={
                kind: count - earlier.messages_by_kind.get(kind, 0)
                for kind, count in self.messages_by_kind.items()
                if count - earlier.messages_by_kind.get(kind, 0)
            },
            bytes_by_kind={
                kind: count - earlier.bytes_by_kind.get(kind, 0)
                for kind, count in self.bytes_by_kind.items()
                if count - earlier.bytes_by_kind.get(kind, 0)
            },
            dropped_loss=self.dropped_loss - earlier.dropped_loss,
            dropped_capacity=self.dropped_capacity - earlier.dropped_capacity,
            duplicated=self.duplicated - earlier.duplicated,
            batches=self.batches - earlier.batches,
            batched_messages=self.batched_messages - earlier.batched_messages,
        )

    def messages(self, *kinds: str) -> int:
        """Message count summed over the given kinds (all kinds if none)."""
        if not kinds:
            return self.total_messages
        return sum(self.messages_by_kind.get(kind, 0) for kind in kinds)

    def bytes_for(self, *kinds: str) -> int:
        """Byte count summed over the given kinds (all kinds if none)."""
        if not kinds:
            return self.total_bytes
        return sum(self.bytes_by_kind.get(kind, 0) for kind in kinds)


class TrafficWindow:
    """Mutable holder filled in when a :meth:`MetricsCollector.window` closes."""

    __slots__ = ("_stats",)

    def __init__(self) -> None:
        self._stats: MetricsSnapshot | None = None

    @property
    def closed(self) -> bool:
        """Whether the window has closed (i.e. :attr:`stats` is readable)."""
        return self._stats is not None

    @property
    def stats(self) -> MetricsSnapshot:
        """The traffic measured while the window was open.

        Only available once the ``with metrics.window()`` block has exited;
        reading it earlier is always a bug (the diff has not been taken yet).
        """
        if self._stats is None:
            raise ObservabilityError(
                "TrafficWindow.stats read before the window closed; the "
                "snapshot diff is taken when the `with metrics.window()` "
                "block exits"
            )
        return self._stats


class MetricsCollector:
    """Accumulates per-kind message counts and byte volumes.

    One collector serves a whole cluster; the network fabric calls
    :meth:`record_send` on every message that actually enters a channel
    (i.e. after loopback short-circuiting, before loss is applied — a lost
    message was still *sent*, which is what the complexity claims count).
    """

    __slots__ = (
        "_messages",
        "_bytes",
        "_per_sender",
        "_sender_totals",
        "_enabled",
        "dropped_loss",
        "dropped_capacity",
        "duplicated",
        "batches",
        "batched_messages",
    )

    def __init__(self, enabled: bool = True) -> None:
        self._messages: Counter[str] = Counter()
        self._bytes: Counter[str] = Counter()
        self._per_sender: Counter[tuple[int, str]] = Counter()
        self._sender_totals: Counter[int] = Counter()
        #: Fast-path switch, read directly by :meth:`Network.send
        #: <repro.net.network.Network.send>`: while False, the network
        #: skips recording *and* the per-message ``wire_size`` walk, making
        #: an unobserved run's accounting cost a single attribute test.
        self._enabled = enabled
        self.dropped_loss = 0
        self.dropped_capacity = 0
        self.duplicated = 0
        self.batches = 0
        self.batched_messages = 0

    @property
    def enabled(self) -> bool:
        """Whether sends are currently being recorded."""
        return self._enabled

    def disable(self) -> None:
        """Stop recording (counters keep their values; snapshots still work)."""
        self._enabled = False

    def enable(self) -> None:
        """Resume recording after :meth:`disable`."""
        self._enabled = True

    def record_send(self, src: int, dst: int, kind: str, size: int) -> None:
        """Account one message of ``kind`` and ``size`` bytes from ``src``.

        Honors the enabled flag here too — the network fast path checks it
        before even computing ``size``, but a direct caller must not be able
        to mutate counters while the collector is disabled.
        """
        if not self._enabled:
            return
        self._messages[kind] += 1
        self._bytes[kind] += size
        self._per_sender[(src, kind)] += 1
        self._sender_totals[src] += 1

    def record_loss(self) -> None:
        """Account a message dropped by the channel loss model."""
        self.dropped_loss += 1

    def record_capacity_drop(self) -> None:
        """Account a message dropped because the channel was full."""
        self.dropped_capacity += 1

    def record_duplication(self) -> None:
        """Account a spontaneous channel duplication."""
        self.duplicated += 1

    def record_batch(self, occupancy: int) -> None:
        """Account one wire bundle carrying ``occupancy`` logical messages."""
        self.batches += 1
        self.batched_messages += occupancy

    def sender_messages(self, src: int, kind: str | None = None) -> int:
        """Messages sent by one node, optionally restricted to a kind.

        The no-kind case reads a dedicated per-sender total, so it is O(1)
        rather than a scan over every ``(sender, kind)`` pair (this is hot
        in the E11/E12 write-throughput probes).
        """
        if kind is not None:
            return self._per_sender[(src, kind)]
        return self._sender_totals[src]

    def snapshot(self) -> MetricsSnapshot:
        """An immutable copy of the current counters."""
        return MetricsSnapshot(
            messages_by_kind=dict(self._messages),
            bytes_by_kind=dict(self._bytes),
            dropped_loss=self.dropped_loss,
            dropped_capacity=self.dropped_capacity,
            duplicated=self.duplicated,
            batches=self.batches,
            batched_messages=self.batched_messages,
        )

    @contextmanager
    def window(self) -> Iterator[TrafficWindow]:
        """Measure the traffic sent while the ``with`` block executes.

        In a quiescent cluster (no concurrent operations, gossip excluded by
        kind filtering), this is the per-operation message cost the paper's
        complexity claims describe.
        """
        before = self.snapshot()
        holder = TrafficWindow()
        try:
            yield holder
        finally:
            holder._stats = self.snapshot().diff(before)
