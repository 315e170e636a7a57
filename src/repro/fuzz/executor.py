"""The one executor giving every :class:`ScenarioSpec` a deterministic meaning.

:func:`run_spec` builds a :class:`~repro.core.cluster.SimBackend`
from the spec's config dimensions and drives its event program, checking
after each phase:

* **linearizability** of the recorded history
  (:func:`~repro.analysis.linearizability.check_snapshot_history`) before
  every corruption burst or detectable restart and at the end of the run;
* **Definition-1 invariants**
  (:func:`~repro.analysis.invariants.definition1_consistent`) after each
  corruption burst's — and each detectable restart's — recovery window
  and at the end (self-stabilizing algorithms only — corruption is
  skipped for algorithms that do not claim recovery);
* **per-operation termination bounds**: an operation invoked while a
  majority is alive and the network unpartitioned must complete within
  :data:`OP_TERMINATION_BOUND` simulated time units.

Runs are pure functions of the spec: the ``RANDOM`` tie-break is seeded
by ``spec.seed``, a pinned ``decision_script`` switches to ``SCRIPTED``,
and the returned :class:`SpecOutcome` carries a canonical history
fingerprint so two runs of the same spec can be compared bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.history import HistoryRecorder
from repro.analysis.invariants import definition1_consistent
from repro.analysis.linearizability import check_snapshot_history
from repro.core.base import SnapshotResult
from repro.core.register import TimestampedValue
from repro.backend.sim import SimBackend
from repro.errors import DeadlockError, ResetInProgressError, SimulationError
from repro.fault import TransientFaultInjector
from repro.fuzz.spec import ScenarioEvent, ScenarioSpec
from repro.sim.kernel import TieBreak

__all__ = ["SpecOutcome", "run_spec", "OP_TERMINATION_BOUND"]

#: Simulated-time budget for one operation invoked under good conditions
#: (majority alive, no partition).  Exceeding it is a termination-bound
#: failure; under a partition it is expected and merely heals the network
#: (aborted operations impose no history constraints).
OP_TERMINATION_BOUND = 300.0

#: Cycles granted to a self-stabilizing algorithm to recover after a
#: corruption burst, matching the chaos campaigns.
_RECOVERY_CYCLES = 8

#: Prefixes of algorithm names that claim transient-fault recovery;
#: ``corrupt`` events are skipped (not failed) for anything else.
#: ``amortized`` batches Algorithm 1's quorum rounds but inherits its
#: merge/gossip recovery unchanged, so it keeps the same claim.
_SELF_STABILIZING_PREFIXES = ("ss-", "bounded-ss", "amortized")


@dataclass(frozen=True, slots=True)
class SpecOutcome:
    """The complete observable outcome of one spec execution."""

    ok: bool
    failures: tuple[str, ...]
    applied: int
    skipped: int
    checks: int
    sim_time: float
    events_processed: int
    history: tuple
    decision_log: tuple[tuple[int, int], ...]

    def summary(self) -> str:
        """One-line outcome."""
        verdict = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"{self.applied} events applied ({self.skipped} skipped), "
            f"{self.checks} checks: {verdict}"
        )

    def fingerprint(self) -> dict:
        """JSON-safe identity of the run, for replay comparison.

        Equal to its own ``json.loads(json.dumps(...))``, so a replay
        can compare a fresh fingerprint against a recorded one.
        """
        return {
            "sim_time": self.sim_time,
            "events_processed": self.events_processed,
            "history": _json_safe(self.history),
        }


def _json_safe(value):
    """``value`` as JSON represents it; ``bytes`` (corruption bursts write
    them into registers, snapshots return them) become tagged hex."""
    if isinstance(value, bytes):
        return {"bytes": value.hex()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _normalize_result(result) -> object:
    if isinstance(result, SnapshotResult):
        return [
            "snapshot",
            list(result.values),
            list(result.vector_clock),
        ]
    if isinstance(result, TimestampedValue):
        return ["read", result.value, result.ts]
    return result


def _history_fingerprint(history: HistoryRecorder) -> tuple:
    return tuple(
        (
            record.node_id,
            record.kind,
            record.argument,
            _normalize_result(record.result),
            record.invoked_at,
            record.responded_at,
            record.aborted,
        )
        for record in history.records()
    )


def _is_self_stabilizing(algorithm: str) -> bool:
    return algorithm.startswith(_SELF_STABILIZING_PREFIXES)


class _SpecRun:
    """Mutable state of one execution (one instance per :func:`run_spec`).

    The driver body (:meth:`drive`) is backend-agnostic — it speaks only
    the :class:`~repro.backend.base.ClusterBackend` contract — so the
    same spec program runs on the simulator or, via a pre-built
    ``cluster``, on a live asyncio/UDP deployment.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        capture_decisions: bool,
        cluster=None,
    ) -> None:
        self.spec = spec
        if cluster is not None:
            self.cluster = cluster
        else:
            scripted = spec.decision_script is not None
            self.cluster = SimBackend(
                spec.algorithm,
                spec.config(),
                tie_break=TieBreak.SCRIPTED if scripted else TieBreak.RANDOM,
            )
            if scripted:
                self.cluster.kernel.decision_script = list(spec.decision_script)
            elif capture_decisions:
                self.cluster.kernel.capture_decisions = True
        self.injector = TransientFaultInjector(self.cluster, seed=spec.seed)
        self.failures: list[str] = []
        self.applied = 0
        self.skipped = 0
        self.checks = 0
        self.partitioned = False
        self.stabilizing = _is_self_stabilizing(spec.algorithm)
        self.bounded = spec.algorithm.startswith("bounded")
        self._history_resets = self._resets_seen()

    # -- helpers -----------------------------------------------------------

    def _majority_alive(self) -> bool:
        return (
            len(self.cluster.alive_nodes())
            >= self.cluster.config.majority
        )

    def _node_busy(self, node: int) -> bool:
        return bool(self.cluster.node(node)._ops_in_flight)

    def _resets_seen(self) -> tuple[int, int]:
        """Global-reset evidence: (max epoch, total completed resets)."""
        epochs = resets = 0
        for process in self.cluster.processes:
            epochs = max(epochs, getattr(process, "epoch", 0))
            resets += getattr(process, "resets_completed", 0)
        return epochs, resets

    def _void_history(self) -> None:
        """Start a fresh evidence window (past records impose nothing)."""
        self.cluster.history = HistoryRecorder()
        self._history_resets = self._resets_seen()

    def _check_history(self, context: str) -> None:
        if self.bounded and self._resets_seen() != self._history_resets:
            # A wraparound reset landed inside this window: every index
            # was rebased to 0, so per-writer monotonicity and vector
            # comparisons across the reset are meaningless.  Void the
            # evidence (the reset aborted the operations it caught) and
            # start checking afresh — same treatment as a corruption
            # burst, whose recovery also rewrites state wholesale.
            self._void_history()
            return
        self.checks += 1
        report = check_snapshot_history(
            self.cluster.history.records(),
            self.cluster.config.n,
            # Post-reset windows legitimately observe survivor values at
            # rebased ts 0 until every node has written again.
            allow_rebased_init=self.bounded,
        )
        if not report.ok:
            self.failures.append(f"{context}: {report.summary()}")

    def _check_invariants(self, context: str) -> None:
        if not self.stabilizing:
            return
        self.checks += 1
        report = definition1_consistent(self.cluster)
        if not report.ok:
            self.failures.append(
                f"{context}: invariants violated: {report.failures[:3]}"
            )

    def _heal(self) -> None:
        self.cluster.network.heal()
        self.partitioned = False

    # -- event handlers ----------------------------------------------------

    async def _operate(self, index: int, event: ScenarioEvent) -> None:
        cluster = self.cluster
        kind, node = event.kind, event.node
        if cluster.node(node).crashed or self._node_busy(node):
            self.skipped += 1
            return
        if not self._majority_alive():
            self.skipped += 1
            return
        unobstructed = not self.partitioned
        if kind == "write":
            operation = cluster.write(node, event.value)
        elif kind == "read":
            operation = cluster.read(node, event.register)
        else:
            operation = cluster.snapshot(node)
        self.applied += 1
        try:
            await cluster.kernel.wait_for(operation, timeout=OP_TERMINATION_BOUND)
        except ResetInProgressError:
            # The bounded variants abort operations caught by a global
            # reset; the backend already marked the op aborted in the
            # history (aborted ops impose no constraints), so this is
            # expected behaviour, not a failure.
            await cluster.kernel.sleep(1.0)
        except TimeoutError:
            if unobstructed:
                self.failures.append(
                    f"event {index}: {kind} at node {node} exceeded the "
                    f"termination bound ({OP_TERMINATION_BOUND} time units) "
                    "with a majority alive and no partition"
                )
            # Break the stall either way (a minority-side operation can
            # only complete once the network heals), then let the
            # cancellation settle before the next event.
            self._heal()
            await cluster.kernel.sleep(1.0)

    async def _corrupt(self, index: int, mode: str) -> None:
        from repro.fuzz.spec import BOUNDED_CORRUPTION_MODES

        if not self.stabilizing:
            self.skipped += 1
            return
        cluster = self.cluster
        # A corruption burst voids past evidence: check the history first,
        # corrupt, then give the algorithm its recovery window.
        self._check_history(f"event {index}: pre-corruption")
        mode = mode if mode in BOUNDED_CORRUPTION_MODES else "ts"
        if mode == "ts":
            self.injector.corrupt_write_indices()
        elif mode == "ssn":
            self.injector.corrupt_snapshot_indices()
            self.injector.corrupt_read_tags()
        elif mode == "registers":
            self.injector.corrupt_registers()
            self.injector.corrupt_told()
        elif mode == "consensus":
            self.injector.corrupt_consensus()
        else:
            self.injector.scramble_channels()
        self.applied += 1
        await self._recover(f"event {index}: post-corruption")

    def _restore_liveness(self) -> None:
        """Full connectivity, every node taking steps again."""
        cluster = self.cluster
        self._heal()
        for node in range(cluster.config.n):
            if cluster.node(node).crashed:
                cluster.resume(node)

    async def _recover(self, context: str) -> None:
        """The window after an event that rewrote state wholesale.

        Restore liveness, grant the algorithm its recovery cycles, check
        Definition 1, then void the history: what was recorded before
        and during recovery imposes nothing on what follows.
        """
        self._restore_liveness()
        self.cluster.tracker.reset()
        await self.cluster.tracker.wait_cycles(_RECOVERY_CYCLES)
        self._check_invariants(f"{context} recovery")
        self._void_history()

    def _crash(self, node: int) -> None:
        cluster = self.cluster
        alive = cluster.alive_nodes()
        if len(alive) <= cluster.config.majority or cluster.node(node).crashed:
            self.skipped += 1
            return
        cluster.crash(node)
        self.applied += 1

    async def _resume(self, index: int, node: int, mode: str) -> None:
        cluster = self.cluster
        crashed = [p.node_id for p in cluster.processes if p.crashed]
        if not crashed:
            self.skipped += 1
            return
        target = crashed[node % len(crashed)]
        # A detectable restart wipes ts/reg/ssn: to the rest of the
        # system it is a transient fault at one node (a write invoked
        # there inside the next gossip period reuses ts 1), so it gets
        # the evidence window a corruption burst gets.
        wiped = mode == "restart" and self.stabilizing
        if wiped:
            self._check_history(f"event {index}: pre-restart")
        cluster.resume(target, restart=(mode == "restart"))
        self.applied += 1
        if wiped:
            await self._recover(f"event {index}: post-restart")

    def _partition(self, group: tuple[int, ...]) -> None:
        cluster = self.cluster
        n = cluster.config.n
        minority = {i for i in group if 0 <= i < n}
        if not minority or len(minority) > (n - 1) // 2:
            self.skipped += 1
            return
        cluster.network.partition(minority, set(range(n)) - minority)
        self.partitioned = True
        self.applied += 1

    # -- the program -------------------------------------------------------

    async def drive(self) -> None:
        cluster = self.cluster
        for index, event in enumerate(self.spec.events):
            kind = event.kind
            if kind in ("write", "snapshot", "read"):
                await self._operate(index, event)
            elif kind == "crash":
                self._crash(event.node)
            elif kind == "resume":
                await self._resume(index, event.node, event.mode)
            elif kind == "partition":
                self._partition(event.group)
            elif kind == "heal":
                self._heal()
                self.applied += 1
            elif kind == "corrupt":
                await self._corrupt(index, event.mode)
            elif kind == "settle":
                await cluster.kernel.sleep(
                    2.0 * cluster.config.gossip_interval
                )
                self.applied += 1
            if event.gap:
                await cluster.kernel.sleep(event.gap)
        # Final phase: restore full connectivity and liveness, settle,
        # then check everything one last time.
        self._restore_liveness()
        if self.stabilizing:
            await cluster.tracker.wait_cycles(4)
        else:
            await cluster.kernel.sleep(4.0 * cluster.config.gossip_interval)
        self._check_history("final")
        self._check_invariants("final")


#: Wall-clock guard (seconds) for one whole spec executed on a live
#: backend — generous, so tripping it is itself a liveness failure.
_LIVE_WALL_TIMEOUT = 60.0


def _outcome_from(run: _SpecRun) -> SpecOutcome:
    failures = tuple(run.failures)
    kernel = run.cluster.kernel
    return SpecOutcome(
        ok=not failures,
        failures=failures,
        applied=run.applied,
        skipped=run.skipped,
        checks=run.checks,
        sim_time=kernel.now,
        # Live kernels have no event counter or decision log — the loop
        # schedules itself — so those fingerprint fields stay empty.
        events_processed=getattr(kernel, "events_processed", 0),
        history=_history_fingerprint(run.cluster.history),
        decision_log=tuple(getattr(kernel, "decision_log", ())),
    )


def _run_spec_live(
    spec: ScenarioSpec, backend: str, time_scale: float
) -> SpecOutcome:
    """Execute one spec against a live backend (wall-clock, own loop)."""
    import asyncio

    from repro.backend import backend_capabilities, create_backend

    capabilities = backend_capabilities(backend)  # validates the name
    if spec.decision_script is not None:
        capabilities.require(
            "schedule_pinning", "replaying a pinned decision_script"
        )

    async def main() -> _SpecRun:
        cluster = await create_backend(
            backend, spec.algorithm, spec.config(), time_scale=time_scale
        )
        try:
            run = _SpecRun(spec, capture_decisions=False, cluster=cluster)
            try:
                await asyncio.wait_for(run.drive(), timeout=_LIVE_WALL_TIMEOUT)
            except TimeoutError:
                run.failures.append(
                    f"liveness: spec did not complete within "
                    f"{_LIVE_WALL_TIMEOUT}s wall-clock on {backend}"
                )
            return run
        finally:
            await cluster.close()

    return _outcome_from(asyncio.run(main()))


def run_spec(
    spec: ScenarioSpec,
    capture_decisions: bool = False,
    max_events: int = 5_000_000,
    backend: str = "sim",
    time_scale: float = 0.002,
) -> SpecOutcome:
    """Execute one spec and return its outcome (deterministic on ``sim``).

    ``capture_decisions`` records every same-instant tie decision of a
    ``RANDOM``-mode run in the kernel's decision log without changing the
    run — the raw material the shrinker pins into an explicit
    ``decision_script``.  ``max_events`` bounds the kernel event count; a
    run that exhausts it (or deadlocks) is reported as a liveness
    failure, not an exception.

    With ``backend`` set to ``"asyncio"`` or ``"udp"`` the same event
    program and checks run against a live cluster under a wall-clock
    guard; outcomes are then *not* reproducible run-to-run (the substrate
    schedules itself), and a spec carrying a pinned ``decision_script``
    raises :class:`~repro.errors.ConfigurationError` naming the
    ``schedule_pinning`` capability.
    """
    if backend != "sim":
        return _run_spec_live(spec, backend, time_scale)
    run = _SpecRun(spec, capture_decisions)
    try:
        run.cluster.run_until(run.drive(), max_events=max_events)
    except (TimeoutError, DeadlockError, SimulationError) as exc:
        run.failures.append(f"liveness: {type(exc).__name__}: {exc}")
    return _outcome_from(run)
