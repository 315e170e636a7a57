"""Stateless model checking: exhaustive same-instant schedule exploration.

Randomized schedules (``TieBreak.RANDOM``) sample the space of
asynchronous interleavings; this module *enumerates* it, CHESS-style.
The kernel's ``SCRIPTED`` tie-break consults an explicit decision list
at every point where several events share a timestamp and logs the
branching factor it saw.  The explorer repeatedly re-runs a scenario
from scratch — runs are cheap and perfectly deterministic — walking the
decision tree depth-first:

1. run with the current decision prefix (0-completed past its end);
2. read the decision log: every choice point at or beyond the prefix is
   a branch whose untaken alternatives become new prefixes;
3. repeat until the tree is exhausted or the budget runs out.

Each complete run is handed to a property checker (linearizability of
the recorded history, by default).  A violation is returned with the
exact decision script that produced it — a fully reproducible
counterexample schedule.

Use fixed channel delays (``min_delay == max_delay``) in scenarios:
coincident timestamps are what create choice points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.linearizability import check_snapshot_history
from repro.config import scenario_config
from repro.backend.sim import SimBackend
from repro.sim.kernel import TieBreak

__all__ = [
    "ExplorationResult",
    "Violation",
    "explore",
    "explore_consensus_decision",
    "explore_snapshot_scenario",
    "explore_standard_scenario",
    "run_verify_campaigns",
    "STANDARD_SCENARIO",
]

#: The default concurrent write/write/snapshot scenario model-checked by
#: ``python -m repro verify``: staggered invocations keep same-instant
#: delivery groups small while still racing all three operations.
STANDARD_SCENARIO = (
    ("write", 0, "v1", 0.0),
    ("write", 1, "v1", 0.1),
    ("snapshot", 2, None, 0.2),
)


@dataclass(frozen=True, slots=True)
class Violation:
    """A schedule under which the checked property failed."""

    script: tuple[int, ...]
    details: str


@dataclass(slots=True)
class ExplorationResult:
    """Outcome of a schedule exploration."""

    runs: int = 0
    choice_points_seen: int = 0
    violations: list[Violation] = field(default_factory=list)
    exhausted: bool = False

    @property
    def ok(self) -> bool:
        """Whether every explored schedule satisfied the property."""
        return not self.violations

    @property
    def failures(self) -> list[str]:
        """Violations as strings — the common campaign-report protocol."""
        return [
            f"schedule {list(v.script)}: {v.details}" for v in self.violations
        ]

    def summary(self) -> str:
        """Human-readable outcome."""
        state = "exhausted" if self.exhausted else "budget-limited"
        verdict = (
            "all schedules OK"
            if self.ok
            else f"{len(self.violations)} VIOLATIONS"
        )
        return (
            f"{self.runs} runs ({state}), "
            f"{self.choice_points_seen} choice points: {verdict}"
        )


def explore(
    run_one: Callable[[list[int]], tuple[list[tuple[int, int]], bool, str]],
    max_runs: int = 500,
    max_depth: int = 30,
    strategy: str = "dfs",
    seed: int = 0,
) -> ExplorationResult:
    """Search the decision tree of a scripted scenario.

    Parameters
    ----------
    run_one:
        Executes the scenario under a decision script and returns
        ``(decision_log, ok, details)``.
    max_runs:
        Budget on complete scenario executions.
    max_depth:
        Choice points beyond this depth are not branched on (their
        default-0 choice is still taken), bounding the tree.
    strategy:
        ``"dfs"`` — systematic depth-first enumeration; exhaustive on
        small trees (``result.exhausted`` tells you).
        ``"random-walk"`` — each run draws every choice uniformly at
        random (seeded).  Far better at *finding* bugs in large trees,
        where a systematic search starves the interesting branch; the
        returned violation script replays the counterexample exactly.
    """
    result = ExplorationResult()
    if strategy == "random-walk":
        rng = random.Random(seed)
        seen: set[tuple[int, ...]] = set()
        for _ in range(max_runs):
            script = [rng.randrange(16) for _ in range(max_depth)]
            log, ok, details = run_one(script)
            result.runs += 1
            result.choice_points_seen += len(log)
            taken = tuple(choice for choice, _n in log)
            if not ok and taken not in seen:
                seen.add(taken)
                result.violations.append(
                    Violation(script=taken, details=details)
                )
        return result
    if strategy != "dfs":
        raise ValueError(f"unknown strategy {strategy!r}")
    frontier: list[list[int]] = [[]]
    while frontier and result.runs < max_runs:
        script = frontier.pop()
        log, ok, details = run_one(script)
        result.runs += 1
        result.choice_points_seen += len(log)
        if not ok:
            result.violations.append(
                Violation(script=tuple(c for c, _n in log), details=details)
            )
        for depth in range(len(script), min(len(log), max_depth)):
            taken_prefix = [choice for choice, _n in log[:depth]]
            _taken, n_candidates = log[depth]
            for alternative in range(1, n_candidates):
                frontier.append(taken_prefix + [alternative])
    result.exhausted = not frontier
    return result


def explore_snapshot_scenario(
    algorithm: str,
    operations: list[tuple[str, int, object]],
    n: int = 3,
    delta: float = 0,
    max_runs: int = 300,
    max_depth: int = 25,
    check_values: bool = True,
    strategy: str = "dfs",
    start_loops: bool = True,
    seed: int = 0,
) -> ExplorationResult:
    """Model-check a concurrent operation scenario for linearizability.

    Parameters
    ----------
    algorithm:
        Registry name of the algorithm under test.
    operations:
        Concurrent operations, each ``("write", node, value)`` or
        ``("snapshot", node, None)``, optionally with a fourth element:
        the invocation time.  Staggering invocations (e.g. 0.0, 0.1, …)
        keeps same-instant delivery groups small, which keeps the
        branching factor tractable — all interleavings *within* a group
        are still enumerated.
    n, delta:
        Cluster shape.
    seed:
        Seed for the ``"random-walk"`` strategy's choice draws (``"dfs"``
        is deterministic and ignores it).

    Every explored schedule's history must pass the specialized
    linearizability checker; the result carries any counterexample
    script.
    """

    def run_one(script: list[int]):
        # Fixed delays on purpose: coincident timestamps are what create
        # the choice points the explorer branches on.
        config = scenario_config(n=n, seed=0, delta=delta, fixed_delay=1.0)
        # Disabling the do-forever loops (for algorithms that work
        # without them, i.e. the non-self-stabilizing ones) removes five
        # permanently re-arming timers from every tie group and shrinks
        # the decision tree dramatically.
        cluster = SimBackend(
            algorithm, config, tie_break=TieBreak.SCRIPTED, start=start_loops
        )
        # The checker only reads the operation history; skipping message
        # accounting (and its per-send wire_size walk) buys schedule
        # throughput without touching the explored behaviour.
        cluster.metrics.disable()
        cluster.kernel.decision_script = list(script)

        async def delayed(start_at, operation):
            if start_at:
                await cluster.kernel.sleep(start_at)
            return await operation

        async def scenario():
            tasks = []
            for spec in operations:
                kind, node, value = spec[0], spec[1], spec[2]
                start_at = spec[3] if len(spec) > 3 else 0.0
                if kind == "write":
                    operation = cluster.write(node, value)
                else:
                    operation = cluster.snapshot(node)
                tasks.append(cluster.spawn(delayed(start_at, operation)))
            await cluster.kernel.gather(tasks)

        cluster.run_until(scenario(), max_events=500_000)
        report = check_snapshot_history(
            cluster.history.records(), n, check_values=check_values
        )
        return cluster.kernel.decision_log, report.ok, report.summary()

    return explore(
        run_one,
        max_runs=max_runs,
        max_depth=max_depth,
        strategy=strategy,
        seed=seed,
    )


def explore_consensus_decision(
    n: int = 3,
    proposals: tuple | None = None,
    max_runs: int = 200,
    max_depth: int = 20,
    strategy: str = "random-walk",
    seed: int = 0,
) -> ExplorationResult:
    """Model-check the consensus layer's agreement and validity.

    Every node concurrently proposes its own value for one instance of
    :class:`repro.consensus.ConsensusEndpoint`; the explored property is
    the consensus contract itself — all nodes decide, they decide the
    *same* value, and that value is one of the proposals.  Same
    explorer machinery as the snapshot scenarios: each same-instant
    delivery group is a choice point, so the binary-consensus rounds,
    URB deliveries, and adoption races interleave differently on every
    branch of the decision tree.
    """
    from repro.consensus import ConsensusEndpoint

    values = proposals if proposals is not None else tuple(
        f"v{node}" for node in range(n)
    )

    def run_one(script: list[int]):
        config = scenario_config(n=n, seed=0, fixed_delay=1.0)
        cluster = SimBackend(
            "ss-nonblocking", config, tie_break=TieBreak.SCRIPTED
        )
        cluster.metrics.disable()
        cluster.kernel.decision_script = list(script)
        endpoints = [
            ConsensusEndpoint.ensure(process)
            for process in cluster.processes
        ]

        async def scenario():
            tasks = [
                cluster.spawn(
                    endpoints[node].propose(
                        ("verify", 0), values[node % len(values)]
                    )
                )
                for node in range(n)
            ]
            return await cluster.kernel.gather(tasks)

        decisions = cluster.run_until(scenario(), max_events=500_000)
        agreed = len({repr(d) for d in decisions}) == 1
        valid = decisions and decisions[0] in values
        ok = bool(agreed and valid)
        details = (
            ""
            if ok
            else f"agreement/validity broken: decided {decisions!r} "
            f"from proposals {values!r}"
        )
        return cluster.kernel.decision_log, ok, details

    return explore(
        run_one,
        max_runs=max_runs,
        max_depth=max_depth,
        strategy=strategy,
        seed=seed,
    )


def explore_standard_scenario(
    algorithm: str, seed: int = 0, budget: int = 200
) -> ExplorationResult:
    """One seeded random-walk exploration of :data:`STANDARD_SCENARIO`.

    The parallel runner's ``"verify"`` cell body: each seed walks a
    different sample of the schedule tree, so a campaign over many seeds
    covers far more interleavings than one walk with a bigger budget.
    """
    return explore_snapshot_scenario(
        algorithm,
        list(STANDARD_SCENARIO),
        n=3,
        delta=0,
        max_runs=budget,
        max_depth=20,
        strategy="random-walk",
        seed=seed,
    )


def run_verify_campaigns(
    seeds: list[int],
    jobs: int = 1,
    algorithm: str = "ss-always",
    budget: int = 200,
    backend: str = "sim",
):
    """Run one verification campaign per seed, optionally parallel.

    The unified campaign entry point (same ``(seeds, jobs, algorithm,
    budget)`` shape as the fuzz campaigns); results come back
    in seed order regardless of worker completion order.

    On the ``sim`` backend each seed is a random-walk exploration of
    :data:`STANDARD_SCENARIO`'s schedule tree.  On a live backend
    (``asyncio``/``udp``) schedule exploration does not apply — the
    substrate schedules itself — so each seed drives a concurrent
    workload against a live cluster and checks the produced history for
    linearizability (see :mod:`repro.verify.live`); the reports follow
    the same ``ok``/``failures``/``summary()`` protocol.
    """
    if backend != "sim":
        from repro.verify.live import run_live_verify_campaigns

        return run_live_verify_campaigns(
            seeds, backend, jobs=jobs, algorithm=algorithm, budget=budget
        )
    from repro.harness.parallel import run_cells, verify_cells

    return run_cells(
        verify_cells(seeds, algorithm=algorithm, budget=budget), jobs=jobs
    )
