"""Offered-load sweeps: find where a snapshot deployment saturates.

An open-loop sweep drives :func:`~repro.load.driver.run_load` at a
ladder of offered rates and watches where achieved throughput stops
tracking the offer.  Below saturation a healthy system achieves what is
offered and latency sits near the unloaded round-trip; past the **knee**
throughput flattens at the service capacity while open-loop queueing
sends p99 latency diverging.  The knee is the last rung whose achieved
throughput stays within :data:`KNEE_EFFICIENCY` of the offer.

For the default channel delays (0.5–1.5 time units each way) a write is
one quorum round trip ≈ 2 time units, so one serial client per node
sustains ≈ 0.5 op/unit and an ``n``-node cluster saturates near
``n/2`` op/unit aggregate — :func:`default_rate_ladder` straddles that
prediction so the knee is visible in every sweep.

``python -m repro load --sweep`` runs this and prints the ladder; the
claims it supports (a located knee, the amortized variant's flat median
past it) are asserted on the live code in ``tests/test_load.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import scenario_config
from repro.errors import ConfigurationError
from repro.load.driver import OPEN, LoadReport, LoadSpec, run_load

__all__ = [
    "KNEE_EFFICIENCY",
    "SweepResult",
    "default_rate_ladder",
    "sweep_rates",
]

#: A rung counts as "keeping up" while achieved ≥ this fraction of offered.
KNEE_EFFICIENCY = 0.9

#: Capacity-relative rungs: the ladder spans 1/8× to 4× the predicted
#: saturation throughput so both the flat region and the knee appear.
_LADDER_FACTORS = (0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0)


def default_rate_ladder(n: int) -> list[float]:
    """Offered rates straddling the predicted capacity ``n/2`` op/unit."""
    capacity = n / 2.0
    return [round(capacity * factor, 4) for factor in _LADDER_FACTORS]


@dataclass(slots=True)
class SweepResult:
    """One offered-load sweep: the ladder's reports plus the knee."""

    backend: str
    algorithm: str
    n: int
    points: list[LoadReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every rung's history checked out linearizable."""
        return all(point.ok for point in self.points)

    @property
    def failures(self) -> list[str]:
        """All linearizability violations across the ladder."""
        return [f for point in self.points for f in point.failures]

    @property
    def knee_rate(self) -> float | None:
        """Last offered rate the system kept up with (None: never kept up)."""
        knee = None
        for point in self.points:
            if point.throughput >= KNEE_EFFICIENCY * point.offered_rate:
                knee = point.offered_rate
        return knee

    @property
    def saturated_throughput(self) -> float:
        """Best achieved throughput anywhere on the ladder (the capacity)."""
        return max((point.throughput for point in self.points), default=0.0)

    def summary(self) -> str:
        """Multi-line human-readable sweep table."""
        lines = [
            f"offered-load sweep on {self.backend} "
            f"({self.algorithm}, n={self.n}):",
            f"  {'offered':>8} {'achieved':>9} {'p50':>7} {'p99':>8}  keeping up?",
        ]
        for point in self.points:
            keeping_up = (
                point.throughput >= KNEE_EFFICIENCY * point.offered_rate
            )
            lines.append(
                f"  {point.offered_rate:>8g} {point.throughput:>9.2f}"
                f" {point.latency['all']['p50']:>7.1f}"
                f" {point.latency['all']['p99']:>8.1f}"
                f"  {'yes' if keeping_up else 'SATURATED'}"
            )
        knee = self.knee_rate
        lines.append(
            f"  knee at {knee:g} op/unit, capacity "
            f"{self.saturated_throughput:.2f} op/unit, "
            f"{'all linearizable' if self.ok else 'VIOLATIONS'}"
            if knee is not None
            else f"  saturated below {self.points[0].offered_rate:g} op/unit"
            if self.points
            else "  (no points)"
        )
        return "\n".join(lines)


def sweep_rates(
    backend: str = "sim",
    algorithm: str = "ss-nonblocking",
    n: int = 4,
    rates: list[float] | None = None,
    *,
    duration: float = 60.0,
    write_fraction: float = 0.8,
    skew: float = 0.0,
    seed: int = 0,
    delta: float = 2,
    batch: int | None = None,
    time_scale: float = 0.002,
) -> SweepResult:
    """Run the offered-rate ladder and locate the saturation knee.

    Each rung is an independent open-loop :func:`run_load` pass (fresh
    cluster, same seed) at one offered rate.  ``rates`` defaults to
    :func:`default_rate_ladder`.  ``batch`` sets the transport batch
    window (``ChannelConfig.batch_window``) for every rung.
    """
    rates = rates if rates is not None else default_rate_ladder(n)
    if not rates:
        raise ConfigurationError("sweep needs at least one offered rate")
    result = SweepResult(backend=backend, algorithm=algorithm, n=n)
    for rate in rates:
        spec = LoadSpec(
            mode=OPEN,
            rate=rate,
            duration=duration,
            write_fraction=write_fraction,
            skew=skew,
            seed=seed,
        )
        report = run_load(
            backend=backend,
            algorithm=algorithm,
            config=scenario_config(n=n, seed=seed, delta=delta, batch=batch),
            spec=spec,
            time_scale=time_scale,
        )
        result.points.append(report)
    return result
