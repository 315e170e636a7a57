"""Recovery experiments: E7, E8 (Theorems 1–2), E14 (Section 5), E20.

E7/E8 measure each corruption class twice over: for the paper's
unbounded algorithms (the original Theorem 1/2 claims) and for the
bounded variants, whose corrupted wild indices overflow MAXINT, so their
cells time a consensus-decided global reset end to end.  E20 is the
liveness experiment for that reset: with node 0 — the fixed coordinator
of the paper's Step-2 sketch — crashed, the surviving majority still
decides the reset and re-enables operations.
"""

from __future__ import annotations

from repro.analysis.invariants import (
    definition1_consistent,
    ssn_consistent,
    ts_consistent,
)
from repro.config import scenario_config
from repro.backend.sim import SimBackend
from repro.errors import ResetInProgressError
from repro.fault import TransientFaultInjector
from repro.obs.observe import Observability

__all__ = [
    "e07_recovery_nonblocking",
    "e08_recovery_always",
    "e14_bounded_reset",
    "e20_reset_node0_crashed",
]

#: Upper bound on the cycles we wait before declaring non-recovery.
_CYCLE_CAP = 20

_CORRUPTIONS = {
    "ts": lambda inj: inj.corrupt_write_indices(),
    "ssn": lambda inj: inj.corrupt_snapshot_indices(),
    "registers": lambda inj: inj.corrupt_registers(),
    "channels": lambda inj: inj.scramble_channels(),
    "everything": lambda inj: inj.scramble_everything(),
}

#: MAXINT for the bounded E7/E8 rows: small enough that the injector's
#: wild indices (< 1e6) usually overflow it — so those recoveries
#: include a full global reset — yet far above anything a legitimate run
#: reaches.
_BOUNDED_MAX_INT = 100_000


def _reset_settled(cluster: SimBackend) -> bool:
    """No reset in flight and every node in the same epoch."""
    if any(getattr(p, "resetting", False) for p in cluster.processes):
        return False
    return len({getattr(p, "epoch", 0) for p in cluster.processes}) == 1


def _cycles_until(cluster: SimBackend, predicate) -> int | None:
    """Count cycle boundaries until ``predicate(cluster)`` holds."""
    cluster.tracker.reset()

    async def measure():
        for _ in range(_CYCLE_CAP):
            if predicate(cluster):
                return cluster.tracker.cycles_elapsed
            await cluster.tracker.wait_cycles(1)
        return None

    return cluster.run_until(measure(), max_events=None)


def _recovery_cell(algorithm, config, corrupt, predicate):
    """One corruption → recovery measurement, observed through the registry.

    Builds the cluster under an :class:`Observability` session (spans and
    message tracing off — only the metric registry is needed), runs the
    corruption and the recovery wait, pushes the measured cycle count into
    the ``stabilization.recovery_cycles`` gauge, and returns ``(cycles,
    detections)`` where ``detections`` is this cell's contribution to
    ``stabilization.corrupted_state_detections`` — the number of
    self-stabilizing cleanup-line executions that actually changed state
    while healing.

    If an ambient session is installed (the experiments CLI is capturing
    with ``--trace-out``), the cluster already attached to it during
    construction; detections are then computed as the delta of the
    session-wide metric, so earlier cells' counts are not re-reported.
    """
    obs = Observability(trace_messages=False)
    cluster = SimBackend(algorithm, config)
    cobs = obs.attach(cluster)  # no-op if an ambient session attached first
    session = cobs.session
    baseline = session.collect().get(
        "stabilization.corrupted_state_detections", 0
    )
    cluster.write_sync(0, b"pre")
    corrupt(TransientFaultInjector(cluster, seed=config.seed))
    cycles = _cycles_until(cluster, predicate)
    session.registry.gauge("stabilization.recovery_cycles").set(
        float(_CYCLE_CAP + 1) if cycles is None else float(cycles)
    )
    metrics = session.collect()
    detections = int(
        metrics["stabilization.corrupted_state_detections"] - baseline
    )
    return cycles, detections


def _recovery_rows(base, n_values, seed, corruptions, invariant, **extra):
    """Shared E7/E8 driver: every variant × n × corruption class.

    The invariant for the bounded variants additionally requires the
    reset machinery to be quiescent (no reset in flight, one epoch) —
    corrupted wild indices overflow ``max_int``, so these recoveries
    run a full global reset.
    """
    rows = []
    for variant in ("unbounded", "bounded+consensus"):
        for n in n_values:
            if variant == "unbounded":
                algorithm = f"ss-{base}"
                config = scenario_config(n=n, seed=seed, **extra)
                predicate = invariant
            else:
                algorithm = f"bounded-ss-{base}"
                config = scenario_config(
                    n=n, seed=seed, max_int=_BOUNDED_MAX_INT, **extra
                )
                predicate = lambda c: invariant(c) and _reset_settled(c)
            row = {"variant": variant, "n": n}
            detections = 0
            for name, corrupt in corruptions.items():
                cycles, healed = _recovery_cell(
                    algorithm, config, corrupt, predicate
                )
                detections += healed
                row[name] = cycles if cycles is not None else f">{_CYCLE_CAP}"
            row["detections"] = detections
            rows.append(row)
    return rows


def e07_recovery_nonblocking(n_values=(4, 8, 12), seed=0):
    """E7 (Theorem 1): Algorithm 1 recovery cycles per corruption class.

    Paper claim: within O(1) asynchronous cycles of a fair execution the
    ts/ssn consistency invariants hold — a bound independent of n.  The
    ``detections`` column reports ``stabilization.corrupted_state_detections``
    summed over the row's corruption classes: how many cleanup-line
    executions actually repaired state during those recoveries.

    Two row blocks: the unbounded baseline, then the bounded variant
    (wild corrupted indices overflow MAXINT, so these rows time a
    corruption-triggered, consensus-decided global reset end to end).
    """
    return _recovery_rows(
        "nonblocking",
        n_values,
        seed,
        _CORRUPTIONS,
        lambda c: ts_consistent(c).ok and ssn_consistent(c).ok,
    )


def e08_recovery_always(n_values=(4, 8, 12), seed=0, delta=2):
    """E8 (Theorem 2): Algorithm 3 cycles to a Definition-1 state.

    As in E7, ``detections`` comes from the observability registry's
    ``stabilization.corrupted_state_detections``, and the bounded row
    block times the consensus-decided reset.
    """
    corruptions = dict(_CORRUPTIONS)
    corruptions["pndTsk"] = lambda inj: inj.corrupt_pending_tasks()
    return _recovery_rows(
        "always",
        n_values,
        seed,
        corruptions,
        lambda c: definition1_consistent(c).ok,
        delta=delta,
    )


def e14_bounded_reset(max_int=10, rounds=25, n=5, seed=0):
    """E14 (Section 5): bounded counters with global reset.

    Drives enough writes to overflow MAXINT several times; reports resets
    completed, operations aborted by the reset window (the bounded abort
    the criteria permit), whether register values survived each reset,
    and final epoch agreement.
    """
    cluster = SimBackend(
        "bounded-ss-nonblocking",
        scenario_config(n=n, seed=seed, max_int=max_int),
    )
    aborted = 0
    completed = 0

    async def drive():
        nonlocal aborted, completed
        for round_index in range(rounds):
            for node in range(n):
                try:
                    await cluster.write(node, (round_index, node))
                    completed += 1
                except ResetInProgressError:
                    aborted += 1
                    await cluster.tracker.wait_cycles(3)
        await cluster.tracker.wait_cycles(4)
        return await cluster.snapshot(0)

    final = cluster.run_until(drive(), max_events=None)
    values_survived = all(value is not None for value in final.values)
    epochs = {p.epoch for p in cluster.processes}
    return [
        {
            "max_int": max_int,
            "writes_ok": completed,
            "writes_aborted": aborted,
            "resets": cluster.node(0).resets_completed,
            "values_survive": values_survived,
            "epochs_agree": len(epochs) == 1,
            "final_epoch": epochs.pop(),
        }
    ]


def e20_reset_node0_crashed(n=5, seed=0, max_int=8):
    """E20 (Section 5): reset termination with node 0 crashed.

    Node 0 — the fixed coordinator of the paper's Step-2 sketch, which
    could never commit with it dead — is crashed, then node 1's writes
    overflow MAXINT and trigger a global reset.  The surviving majority
    decides the commit through :mod:`repro.consensus` and operations
    resume; the second row re-runs the scenario with the injector
    scrambling the consensus state itself mid-reset (the
    self-stabilization claim).
    """
    rows = []
    for corrupt_consensus in (False, True):
        cluster = SimBackend(
            "bounded-ss-nonblocking",
            scenario_config(n=n, seed=seed, max_int=max_int),
        )
        injector = TransientFaultInjector(cluster, seed=seed)
        alive = [node for node in range(n) if node != 0]

        def settled() -> bool:
            procs = [cluster.node(node) for node in alive]
            if any(p.resetting for p in procs):
                return False
            return all(p.epoch >= 1 for p in procs)

        async def drive():
            cluster.crash(0)
            # Overflow node 1's write index to trigger the global reset.
            for index in range(max_int + 1):
                try:
                    await cluster.write(1, (0, index))
                except ResetInProgressError:
                    break
            if corrupt_consensus:
                # The reset window is open: scramble the consensus
                # instances deciding the commit, mid-decision.
                await cluster.tracker.wait_cycles(1)
                injector.corrupt_consensus()
            cluster.tracker.reset()
            cycles = None
            for _ in range(_CYCLE_CAP):
                if settled():
                    cycles = cluster.tracker.cycles_elapsed
                    break
                await cluster.tracker.wait_cycles(1)
            write_ok = False
            try:
                await cluster.kernel.wait_for(
                    cluster.write(1, b"post-reset"), timeout=50.0
                )
                write_ok = True
            except (TimeoutError, ResetInProgressError):
                pass
            return cycles, write_ok

        cycles, write_ok = cluster.run_until(drive(), max_events=None)
        epochs = {cluster.node(node).epoch for node in alive}
        rows.append(
            {
                "corrupt_consensus": corrupt_consensus,
                "reset_completed": cycles is not None,
                "recovery_cycles": (
                    cycles if cycles is not None else f">{_CYCLE_CAP}"
                ),
                "epochs_agree": len(epochs) == 1,
                "writes_reenabled": write_ok,
            }
        )
    return rows
