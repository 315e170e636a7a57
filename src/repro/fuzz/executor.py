"""The one executor giving every :class:`ScenarioSpec` a deterministic meaning.

:func:`run_spec` builds a :class:`~repro.backend.sim.SimBackend` — or,
for a spec with ``shards``, a :class:`~repro.shard.fabric.ShardedFabric`
— from the spec's config dimensions and drives its event program,
checking after each phase:

* **linearizability** of the recorded history
  (:func:`~repro.analysis.linearizability.check_snapshot_history`) before
  every corruption burst or detectable restart and at the end of the run
  (on a fabric, ``fabric.check()`` at the end);
* **Definition-1 invariants**
  (:func:`~repro.analysis.invariants.definition1_consistent`) after each
  corruption burst's — and each detectable restart's — recovery window
  and at the end (self-stabilizing algorithms only — corruption is
  skipped for algorithms that do not claim recovery, and a detectable
  restart there runs as a plain resume);
* **per-operation termination bounds**: an operation invoked while a
  majority is alive and the network unpartitioned must complete within
  :data:`OP_TERMINATION_BOUND` simulated time units (on a fabric, every
  keyed operation, composed cut, split and reconfiguration).

An observed run (``--stats``) samples each cluster's health through an
:class:`~repro.obs.alerts.AlertEngine` per event; alerts ride back on the
outcome.

Runs are pure functions of the spec: the ``RANDOM`` tie-break is seeded
by ``spec.seed``, a pinned ``decision_script`` switches to ``SCRIPTED``,
and the returned :class:`SpecOutcome` carries a canonical history
fingerprint so two runs of the same spec can be compared bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.history import HistoryRecorder
from repro.analysis.invariants import definition1_consistent
from repro.analysis.linearizability import check_snapshot_history
from repro.core.base import SnapshotResult
from repro.core.cluster import ALGORITHMS
from repro.core.register import TimestampedValue
from repro.backend.sim import SimBackend
from repro.errors import DeadlockError, ResetInProgressError, SimulationError
from repro.fault import TransientFaultInjector
from repro.fuzz.spec import ScenarioEvent, ScenarioSpec
from repro.obs.alerts import AlertEngine
from repro.shard.fabric import build_sim_fabric, create_fabric
from repro.sim.kernel import TieBreak

__all__ = ["SpecOutcome", "run_spec", "OP_TERMINATION_BOUND"]

#: Simulated-time budget for one operation invoked under good conditions
#: (majority alive, no partition).  Exceeding it is a termination-bound
#: failure; under a partition it is expected and merely heals the network
#: (aborted operations impose no history constraints).
OP_TERMINATION_BOUND = 300.0

#: Cycles granted to a self-stabilizing algorithm to recover after a
#: corruption burst.
_RECOVERY_CYCLES = 8

#: Cycles the final check grants a bounded variant's global reset that is
#: under way to finish; one still under way after them is a failure.
_RESET_CYCLES = 20

#: Event kinds with a meaning on one target only; the other skips them.
_FABRIC_ONLY = frozenset(("split", "reconfigure"))
_CLUSTER_ONLY = frozenset(("partition", "heal", "corrupt"))


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
    #: Alerts raised while an observability session was installed.
    alerts: tuple[dict, ...] = ()

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
    them into registers, snapshots return them) become tagged hex, and a
    fabric slot's key map a plain object."""
    if isinstance(value, bytes):
        return {"bytes": value.hex()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
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


class _SpecRun:
    """Mutable state of one execution (one instance per :func:`run_spec`).

    The driver body (:meth:`drive`) is backend-agnostic — it speaks only
    the :class:`~repro.backend.base.ClusterBackend` contract — so the
    same spec program runs on the simulator or, via a pre-built
    ``target`` cluster or fabric, on a live asyncio/UDP deployment.
    On a fabric (``self.fabric``) keyed operations route by key, a
    ``snapshot`` is a composed cut, crashes and resumes pick a shard's
    node, and an operation that outlives its bound is a wedge: it fails
    the run and ends the program.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        capture_decisions: bool,
        target=None,
    ) -> None:
        self.spec = spec
        if target is None:
            scripted = spec.decision_script is not None
            tie_break = TieBreak.SCRIPTED if scripted else TieBreak.RANDOM
            if spec.shards:
                target = build_sim_fabric(
                    spec.shards, spec.algorithm, spec.config(), tie_break=tie_break
                )
            else:
                target = SimBackend(spec.algorithm, spec.config(), tie_break=tie_break)
            if scripted:
                target.kernel.decision_script = list(spec.decision_script)
            elif capture_decisions:
                target.kernel.capture_decisions = True
        self.kernel = target.kernel
        self.fabric = target if spec.shards else None
        self.cluster = None if spec.shards else target
        self.failures: list[str] = []
        self.applied = 0
        self.skipped = 0
        self.checks = 0
        self.partitioned = False
        self.wedged = False
        #: Whether the algorithm claims transient-fault recovery; its
        #: class says so, and ``corrupt`` events are skipped otherwise.
        self.stabilizing = getattr(
            ALGORITHMS[spec.algorithm], "SELF_STABILIZING", False
        )
        self.bounded = spec.algorithm.startswith("bounded")
        self.alerts: list[dict] = []
        self._alert_engines: dict[str | None, AlertEngine] = {}
        if self.cluster is not None:
            self.injector = TransientFaultInjector(self.cluster, seed=spec.seed)
            self._history_resets = self._resets_seen()

    # -- helpers -----------------------------------------------------------

    def _majority_alive(self) -> bool:
        return (
            len(self.cluster.alive_nodes())
            >= self.cluster.config.majority
        )

    def _clusters(self) -> list:
        return self.fabric.backends() if self.fabric else [self.cluster]

    def _resets_seen(self) -> tuple[int, int]:
        """Global-reset evidence: (max epoch, total completed resets)."""
        epochs = resets = 0
        for process in self.cluster.processes:
            epochs = max(epochs, getattr(process, "epoch", 0))
            resets += getattr(process, "resets_completed", 0)
        return epochs, resets

    def _reset_under_way(self) -> bool:
        """A node is resetting, or the nodes name different epochs."""
        processes = self.cluster.processes
        epochs = {p.epoch for p in processes}
        return len(epochs) > 1 or any(p.resetting for p in processes)

    async def _finish_reset(self, context: str) -> None:
        """Let a global reset under way finish before the final check.

        Definition 1's ``ts`` checks know no epochs: mid-reset they
        would compare nodes already in the new epoch (every ts 0) with
        nodes still in the old one.  A reset still under way after
        ``_RESET_CYCLES`` cycles is a failure.
        """
        if not self.bounded:
            return
        for _ in range(_RESET_CYCLES):
            if not self._reset_under_way():
                return
            await self.cluster.tracker.wait_cycles(1)
        if self._reset_under_way():
            self.failures.append(
                f"{context}: a global reset was still under way after "
                f"{_RESET_CYCLES} cycles"
            )

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
        if cluster.node(node).crashed or cluster.node(node).busy:
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
            self.injector.corrupt_heard_sns()
        elif mode == "consensus":
            self.injector.corrupt_consensus()
        else:
            self.injector.scramble_channels()
        self.applied += 1
        await self._recover(f"event {index}: post-corruption")

    def _restore_liveness(self) -> None:
        """Full connectivity, every node taking steps again."""
        if self.fabric is None:
            self._heal()
        for cluster in self._clusters():
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

    def _crash(self, event: ScenarioEvent) -> None:
        cluster, node = self.cluster, event.node
        if self.fabric is not None:
            if event.shard not in self.fabric.shard_ids:
                self.skipped += 1
                return
            cluster = self.fabric.shard(event.shard)
        alive = cluster.alive_nodes()
        if (
            len(alive) <= cluster.config.majority
            or node >= cluster.config.n
            or cluster.node(node).crashed
        ):
            self.skipped += 1
            return
        cluster.crash(node)
        self.applied += 1

    async def _resume(self, index: int, node: int, mode: str) -> None:
        clusters = self._clusters()
        crashed = [(c, p.node_id) for c in clusters for p in c.processes if p.crashed]
        if not crashed:
            self.skipped += 1
            return
        cluster, target = crashed[node % len(crashed)]
        if mode == "restart" and not self.stabilizing:
            # A detectable restart wipes ts/reg/ssn, which only the
            # self-stabilizing variants claim to survive: the node
            # resumes with its state, and the restart counts as skipped,
            # as a corruption burst does.
            cluster.resume(target)
            self.skipped += 1
            return
        # A detectable restart wipes ts/reg/ssn: to the rest of the
        # system it is a transient fault at one node (a write invoked
        # there inside the next gossip period reuses ts 1), so it gets
        # the evidence window a corruption burst gets.
        wiped = mode == "restart"
        # On a fabric a restart gets no evidence window yet: what the
        # node's shard records across it is checked like the rest.
        window = wiped and self.fabric is None
        if window:
            self._check_history(f"event {index}: pre-restart")
        cluster.resume(target, restart=wiped)
        self.applied += 1
        if window:
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

    # -- fabric handlers ---------------------------------------------------

    async def _bounded(self, index: int, what: str, operation) -> None:
        """Await a fabric operation; past the bound the fabric is wedged."""
        try:
            await self.kernel.wait_for(operation, timeout=OP_TERMINATION_BOUND)
        except TimeoutError:
            self.failures.append(
                f"event {index}: {what} exceeded the termination bound "
                f"({OP_TERMINATION_BOUND} time units) with a majority of "
                "every shard alive"
            )
            self.wedged = True

    async def _operate_keyed(self, index: int, event: ScenarioEvent) -> None:
        fabric, kind, key = self.fabric, event.kind, event.key
        shard_id, node = fabric.slot_of(key)
        if kind != "snapshot" and fabric.shard(shard_id).node(node).crashed:
            self.skipped += 1  # the slot's node is the key's only client
            return
        self.applied += 1
        if kind == "snapshot":
            operation, what = fabric.compose_snapshot(), "composed snapshot"
        elif kind == "write":
            operation, what = fabric.write(key, event.value), f"write of key {key!r}"
        else:
            operation, what = fabric.scan(key), f"read of key {key!r}"
        await self._bounded(index, what, operation)

    async def _change_epoch(self, index: int, kind: str) -> None:
        fabric, config = self.fabric, self.fabric.base_config
        if kind == "split":
            operation = fabric.split()
        else:
            operation = fabric.reconfigure(replace(config, n=config.n + 1))
        self.applied += 1
        await self._bounded(index, kind, operation)

    async def _finish_fabric(self) -> None:
        """Resume every node, take one last composed cut, check both layers."""
        self._restore_liveness()
        if not self.wedged:
            await self._bounded(
                len(self.spec.events), "final composed snapshot",
                self.fabric.compose_snapshot(),
            )
        self.checks += 1
        self.failures.extend(f"final: {failure}" for failure in self.fabric.check())

    def _evaluate_alerts(self) -> None:
        """Sample every observed cluster's health through the alert rules."""
        for cluster in self._clusters():
            cobs = cluster.obs
            if cobs is None:
                continue
            engine = self._alert_engines.setdefault(cobs.label, AlertEngine())
            for alert in engine.evaluate(cobs.health.sample()):
                self.alerts.append({**alert.to_dict(), "cluster": cobs.label})

    def history_fingerprint(self) -> tuple:
        if self.fabric is None:
            return _history_fingerprint(self.cluster.history)
        fabric = self.fabric
        clusters = [(f"shard{sid}", fabric.shard(sid)) for sid in fabric.shard_ids]
        clusters += [(f"shard{sid} (retired)", b) for sid, b in fabric.retired]
        return tuple(
            (label, *record)
            for label, cluster in clusters
            for record in _history_fingerprint(cluster.history)
        )

    # -- the program -------------------------------------------------------

    async def drive(self) -> None:
        kernel, events = self.kernel, self.spec.events
        for index, event in enumerate(events):
            kind = event.kind
            if kind in (_CLUSTER_ONLY if self.fabric else _FABRIC_ONLY):
                self.skipped += 1
            elif kind in _FABRIC_ONLY:
                await self._change_epoch(index, kind)
            elif kind in ("write", "snapshot", "read"):
                operate = self._operate_keyed if self.fabric else self._operate
                await operate(index, event)
            elif kind == "crash":
                self._crash(event)
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
                await kernel.sleep(2.0 * self._clusters()[0].config.gossip_interval)
                self.applied += 1
            if self.wedged:
                self.skipped += len(events) - index - 1
                break
            if event.gap:
                await kernel.sleep(event.gap)
            self._evaluate_alerts()
        if self.fabric is not None:
            await self._finish_fabric()
            self._evaluate_alerts()
            return
        # Final phase: restore full connectivity and liveness, settle,
        # then check everything one last time.
        cluster = self.cluster
        self._restore_liveness()
        if self.stabilizing:
            await cluster.tracker.wait_cycles(4)
            await self._finish_reset("final")
        else:
            await cluster.kernel.sleep(4.0 * cluster.config.gossip_interval)
        self._check_history("final")
        self._check_invariants("final")
        self._evaluate_alerts()


#: Wall-clock guard (seconds) for one whole spec executed on a live
#: backend — generous, so tripping it is itself a liveness failure.
_LIVE_WALL_TIMEOUT = 60.0


def _outcome_from(run: _SpecRun) -> SpecOutcome:
    failures = tuple(run.failures)
    kernel = run.kernel
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
        history=run.history_fingerprint(),
        decision_log=tuple(getattr(kernel, "decision_log", ())),
        alerts=tuple(run.alerts),
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
        args = (spec.algorithm, spec.config())
        if spec.shards:
            target = await create_fabric(
                backend, spec.shards, *args, time_scale=time_scale
            )
        else:
            target = await create_backend(backend, *args, time_scale=time_scale)
        try:
            run = _SpecRun(spec, capture_decisions=False, target=target)
            try:
                await asyncio.wait_for(run.drive(), timeout=_LIVE_WALL_TIMEOUT)
            except TimeoutError:
                run.failures.append(
                    f"liveness: spec did not complete within "
                    f"{_LIVE_WALL_TIMEOUT}s wall-clock on {backend}"
                )
            return run
        finally:
            await target.close()

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
        run.kernel.run_until_complete(run.drive(), max_events=max_events)
    except (TimeoutError, DeadlockError, SimulationError) as exc:
        run.failures.append(f"liveness: {type(exc).__name__}: {exc}")
    return _outcome_from(run)
