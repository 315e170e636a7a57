"""Counterexample minimization: ddmin, config reduction, schedule pinning.

A failing spec found by a fuzz campaign is rarely a good bug report: most
of its events are noise, its cluster is bigger than the bug needs, and
the schedule that triggered it is implicit in a seed.  :func:`shrink_spec`
reduces it in four passes:

1. **ddmin over the event program** — the classic delta-debugging loop:
   remove ever-smaller chunks of events, keeping any reduction that still
   fails.
1b. **reads as snapshots** — each remaining ``read`` is retried as a
   ``snapshot`` at the same node, which observes everything the read
   could; a ``read`` that survives into the final program is one the
   failure needs.
2. **config minimization** — try a smaller cluster (dropping events that
   reference removed nodes), δ = 0, a loss-free channel, and fixed unit
   delays, keeping each simplification that still fails.
3. **schedule pinning** — re-run the reduced spec with the kernel's
   decision capture on, turning the seeded random schedule into an
   explicit decision script, and attach that script to the spec so the
   counterexample replays through ``SCRIPTED`` mode with no random
   tie-breaking at all.

Every candidate is re-executed from scratch (runs are cheap and
perfectly deterministic), so the result provably still fails.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.fuzz.executor import SpecOutcome, run_spec
from repro.fuzz.spec import ScenarioEvent, ScenarioSpec

__all__ = ["ShrinkResult", "shrink_spec"]


@dataclass(frozen=True, slots=True)
class ShrinkResult:
    """A minimized failing spec plus the bookkeeping of getting there."""

    spec: ScenarioSpec
    outcome: SpecOutcome
    original_events: int
    runs: int

    @property
    def final_events(self) -> int:
        """Event count of the minimized spec."""
        return len(self.spec.events)

    def summary(self) -> str:
        """One-line shrink description."""
        pinned = "pinned schedule" if self.spec.decision_script else "seeded"
        return (
            f"shrunk {self.original_events} -> {self.final_events} events "
            f"in {self.runs} runs ({pinned})"
        )


class _Shrinker:
    def __init__(self, spec: ScenarioSpec, max_runs: int) -> None:
        self.max_runs = max_runs
        self.runs = 0
        self.best = spec
        self.best_outcome: SpecOutcome | None = None

    def fails(self, candidate: ScenarioSpec) -> bool:
        """Whether the candidate still fails (within the run budget)."""
        if self.runs >= self.max_runs:
            return False
        self.runs += 1
        outcome = run_spec(candidate)
        if not outcome.ok:
            self.best = candidate
            self.best_outcome = outcome
            return True
        return False

    # -- pass 1: ddmin over the event list --------------------------------

    def ddmin_events(self) -> None:
        events = list(self.best.events)
        granularity = 2
        while len(events) >= 2 and self.runs < self.max_runs:
            chunk = max(1, len(events) // granularity)
            reduced_somewhere = False
            start = 0
            while start < len(events):
                candidate_events = events[:start] + events[start + chunk:]
                if candidate_events and self.fails(
                    self.best.with_events(candidate_events)
                ):
                    events = candidate_events
                    granularity = max(granularity - 1, 2)
                    reduced_somewhere = True
                    break
                start += chunk
            if not reduced_somewhere:
                if granularity >= len(events):
                    break
                granularity = min(len(events), granularity * 2)

    # -- pass 1b: reads as snapshots ---------------------------------------

    def generalize_reads(self) -> None:
        for index in range(len(self.best.events)):
            event = self.best.events[index]
            if event.kind == "read":
                events = list(self.best.events)
                events[index] = replace(event, kind="snapshot", register=0)
                self.fails(self.best.with_events(events))

    # -- pass 2: config minimization ---------------------------------------

    def _events_for_n(self, n: int) -> list[ScenarioEvent] | None:
        """The current event list restricted to a smaller cluster."""
        events: list[ScenarioEvent] = []
        for event in self.best.events:
            if event.kind in ("write", "snapshot", "read", "crash", "resume"):
                if event.node >= n or event.register >= n:
                    continue
            if event.kind == "partition":
                group = tuple(i for i in event.group if i < n)
                if not group or len(group) > (n - 1) // 2:
                    continue
                event = replace(event, group=group)
            events.append(event)
        return events or None

    def minimize_config(self) -> None:
        # Smaller cluster first: it shrinks every remaining dimension's
        # search space (fewer channels, smaller tie groups).
        for n in range(self.best.n - 1, 2, -1):
            events = self._events_for_n(n)
            if events is None:
                break
            candidate = replace(
                self.best,
                n=n,
                events=tuple(events),
                decision_script=None,
            )
            if not self.fails(candidate):
                break
        for change in (
            {"delta": 0.0},
            {"loss": 0.0, "duplication": 0.0},
            {"min_delay": 1.0, "max_delay": 1.0},
        ):
            candidate = replace(self.best, decision_script=None, **change)
            if all(
                getattr(self.best, key) == value
                for key, value in change.items()
            ):
                continue
            self.fails(candidate)

    # -- pass 3: schedule pinning ------------------------------------------

    def pin_schedule(self) -> None:
        """Convert the reduced spec's random schedule to an explicit script.

        The capture run is behaviourally identical to the plain run, so it
        must still fail; the pinned replay is then verified before the
        script is kept (belt and braces — if SCRIPTED replay ever
        diverged, the seeded spec alone is still a valid counterexample).
        """
        if self.best.decision_script is not None:
            return
        self.runs += 1
        captured = run_spec(self.best, capture_decisions=True)
        if captured.ok:
            return
        script = tuple(choice for choice, _n in captured.decision_log)
        pinned = replace(self.best, decision_script=script)
        self.runs += 1
        outcome = run_spec(pinned)
        if not outcome.ok:
            self.best = pinned
            self.best_outcome = outcome


def shrink_spec(spec: ScenarioSpec, max_runs: int = 500) -> ShrinkResult:
    """Minimize a failing spec; raises ``ValueError`` if it does not fail.

    ``max_runs`` bounds the total number of candidate executions across
    all passes; whatever minimum was reached when the budget runs out is
    returned.
    """
    shrinker = _Shrinker(spec, max_runs)
    if not shrinker.fails(spec):
        raise ValueError(
            "shrink_spec needs a failing spec; this one passed its checks"
        )
    shrinker.ddmin_events()
    shrinker.generalize_reads()
    shrinker.minimize_config()
    shrinker.pin_schedule()
    assert shrinker.best_outcome is not None
    return ShrinkResult(
        spec=shrinker.best,
        outcome=shrinker.best_outcome,
        original_events=len(spec.events),
        runs=shrinker.runs,
    )
