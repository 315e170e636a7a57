"""A lightweight metric registry: counters, gauges, and histograms.

The registry is the sink for everything the observability layer measures
— kernel dispatch statistics, network depth/drops, stabilization heal
counters — plus anything experiment code wants to publish itself (E07/E08
push ``stabilization.recovery_cycles`` here).  Instruments are created on
first use and addressed by dotted names (``kernel.events_dispatched``,
``net.dropped_loss``, …; the full catalog is in ``docs/observability.md``).

Design constraints, inherited from the determinism contract:

* instruments are plain Python numbers behind ``__slots__`` — updating
  one never allocates per-update, draws RNG, or schedules kernel events;
* pull-style values (queue depth, in-flight packets) are produced by
  *collector* callbacks run only at :meth:`MetricsRegistry.collect`
  time, so the simulation hot path pays nothing for them.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "QuantileHistogram",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the count."""
        self._value += amount

    @property
    def value(self) -> int:
        """The current count."""
        return self._value

    def state(self) -> dict[str, Any]:
        """A portable snapshot of this instrument (see ``MetricsRegistry.state``)."""
        return {"type": "counter", "value": self._value}

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold a portable snapshot into this counter (counts sum)."""
        self._value += state["value"]


class Gauge:
    """A value that can go up and down (depth, cycles, last-seen)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: float = 0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self._value = value

    @property
    def value(self) -> float:
        """The most recently set value."""
        return self._value

    def state(self) -> dict[str, Any]:
        """A portable snapshot of this instrument (see ``MetricsRegistry.state``)."""
        return {"type": "gauge", "value": self._value}

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold a portable snapshot into this gauge (last write wins)."""
        self._value = state["value"]


class Histogram:
    """A streaming summary: count, sum, min, max (no buckets, no lists).

    Exposed as a dict (``{"count", "sum", "min", "max", "mean"}``) so the
    exporters can serialize it without a schema of their own.
    """

    __slots__ = ("name", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str) -> None:
        self.name = name
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        if self._count == 0:
            self._min = self._max = value
        else:
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
        self._count += 1
        self._sum += value

    @property
    def value(self) -> dict[str, float]:
        """The summary statistics of the samples observed so far."""
        count = self._count
        return {
            "count": count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self._sum / count if count else 0.0,
        }

    def state(self) -> dict[str, Any]:
        """A portable snapshot of this instrument (see ``MetricsRegistry.state``)."""
        return {
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
        }

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold a portable snapshot into this histogram (summaries combine)."""
        if state["count"] == 0:
            return
        if self._count == 0:
            self._min = state["min"]
            self._max = state["max"]
        else:
            self._min = min(self._min, state["min"])
            self._max = max(self._max, state["max"])
        self._count += state["count"]
        self._sum += state["sum"]


class QuantileHistogram:
    """A log-bucketed histogram with quantile estimates (p50/p95/p99).

    For live views of runs with no set end, which need tail quantiles
    that the streaming :class:`Histogram` cannot provide (it keeps no
    distribution) and cannot keep every sample: ``repro top`` records its
    workload's ``load.latency`` here, for its frame header, the
    ``--metrics-port`` exposition and SLO alert rules.  A run that keeps
    its samples takes exact order statistics instead
    (:func:`repro.analysis.metrics.percentile`).  This
    instrument buckets samples geometrically (±2.5% relative error per
    bucket at the default growth factor), so memory stays bounded and —
    like every registry instrument — recording never draws RNG or
    schedules kernel events, preserving the determinism contract.

    ``value`` extends the plain histogram's summary with ``p50``, ``p95``
    and ``p99``, so the exporters serialize it with no schema changes.
    """

    __slots__ = ("name", "_growth", "_buckets", "_count", "_sum", "_min", "_max")

    #: Relative bucket width: consecutive bucket boundaries differ by 5%.
    GROWTH = 1.05

    def __init__(self, name: str) -> None:
        self.name = name
        self._growth = math.log(self.GROWTH)
        self._buckets: dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        """Record one sample (negative samples clamp to zero)."""
        if value < 0.0:
            value = 0.0
        if self._count == 0:
            self._min = self._max = value
        else:
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
        self._count += 1
        self._sum += value
        index = 0 if value < 1e-9 else int(math.log(value) / self._growth) + 1
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) of the samples.

        Edge cases are exact, never ``NaN``: an empty histogram reports
        ``0.0``, a single observation is returned verbatim, ``q=0`` is the
        observed minimum and ``q=1`` the observed maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        if self._count == 1 or q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        rank = max(1, math.ceil(q * self._count))
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                if index == 0:
                    return max(self._min, 0.0)
                # Geometric midpoint of the bucket, clamped to the
                # observed range so estimates never leave [min, max].
                mid = math.exp((index - 0.5) * self._growth)
                return min(max(mid, self._min), self._max)
        return self._max  # pragma: no cover - rank <= count always hits

    @property
    def count(self) -> int:
        """Number of samples observed so far."""
        return self._count

    @property
    def value(self) -> dict[str, float]:
        """Summary statistics plus the three standard tail quantiles."""
        count = self._count
        return {
            "count": count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self._sum / count if count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def state(self) -> dict[str, Any]:
        """A portable snapshot of this instrument (see ``MetricsRegistry.state``).

        Buckets serialize as sorted ``[index, count]`` pairs so the
        snapshot is JSON- and pickle-safe and merge order is fixed.
        """
        return {
            "type": "quantile_histogram",
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "buckets": [[i, self._buckets[i]] for i in sorted(self._buckets)],
        }

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold a portable snapshot into this histogram (buckets merge)."""
        if state["count"] == 0:
            return
        if self._count == 0:
            self._min = state["min"]
            self._max = state["max"]
        else:
            self._min = min(self._min, state["min"])
            self._max = max(self._max, state["max"])
        self._count += state["count"]
        self._sum += state["sum"]
        for index, count in state["buckets"]:
            self._buckets[index] = self._buckets.get(index, 0) + count


class MetricsRegistry:
    """Named instruments plus pull-style collector callbacks.

    ``counter``/``gauge``/``histogram``/``quantile_histogram`` are
    get-or-create: asking for the same name twice returns the same
    instrument; asking for it with a different instrument type raises
    :class:`ObservabilityError`.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Any] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    def _get_or_create(self, name: str, cls: type) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name)
            self._instruments[name] = instrument
        elif type(instrument) is not cls:
            raise ObservabilityError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, requested {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_create(name, Histogram)

    def quantile_histogram(self, name: str) -> QuantileHistogram:
        """Get or create the quantile histogram ``name``."""
        return self._get_or_create(name, QuantileHistogram)

    def add_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Register a callback run at :meth:`collect` time.

        Collectors sample current system state (queue depth, in-flight
        packets) into gauges — the pull half of the registry, costing the
        hot path nothing.
        """
        self._collectors.append(collector)

    def collect(self) -> dict[str, Any]:
        """Run every collector, then snapshot all instruments by name."""
        for collector in self._collectors:
            collector(self)
        return {
            name: instrument.value
            for name, instrument in sorted(self._instruments.items())
        }

    #: Snapshot ``type`` tag -> instrument class, for :meth:`merge_state`.
    _STATE_TYPES: dict[str, type] = {
        "counter": Counter,
        "gauge": Gauge,
        "histogram": Histogram,
        "quantile_histogram": QuantileHistogram,
    }

    def state(self) -> dict[str, dict[str, Any]]:
        """A portable, mergeable snapshot of every instrument.

        The snapshot is plain dicts/lists (pickle- and JSON-safe), keyed
        by instrument name, each entry carrying a ``type`` tag.  Feed it
        to another registry's :meth:`merge_state` to combine runs — this
        is how ``--stats`` survives ``--jobs N`` (worker registries merge
        into the parent's).  Collectors are *not* run; call
        :meth:`collect` first if pull-style gauges should be included.
        """
        return {
            name: self._instruments[name].state()
            for name in sorted(self._instruments)
        }

    def merge_state(self, state: dict[str, dict[str, Any]]) -> None:
        """Fold a :meth:`state` snapshot into this registry.

        Counters sum, gauges take the incoming value (last write wins),
        histograms merge their summaries/buckets.  Entries are applied in
        sorted-name order so repeated merges are deterministic; merging a
        snapshot into an instrument of a different type raises
        :class:`ObservabilityError`.
        """
        for name in sorted(state):
            entry = state[name]
            cls = self._STATE_TYPES.get(entry["type"])
            if cls is None:
                raise ObservabilityError(
                    f"metric {name!r}: unknown snapshot type {entry['type']!r}"
                )
            self._get_or_create(name, cls).merge_state(entry)

    def value(self, name: str) -> Any:
        """Read one instrument's current value (no collector pass)."""
        try:
            return self._instruments[name].value
        except KeyError:
            raise ObservabilityError(f"no metric named {name!r}") from None

    def names(self) -> list[str]:
        """The names of all instruments created so far, sorted."""
        return sorted(self._instruments)
