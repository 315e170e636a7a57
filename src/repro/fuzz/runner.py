"""Fuzz campaigns: seed fan-out, shrinking, counterexample files.

:func:`run_fuzz_campaign` is the campaign entry point behind
``python -m repro fuzz``: it generates one :class:`ScenarioSpec` per
seed, probes them through :func:`run_spec` (fanning out across worker
processes via :mod:`repro.harness.parallel` — results merge in seed
order, so ``--jobs 4`` output is identical to ``--jobs 1``), then
shrinks every failing spec to a minimal deterministic counterexample
and, when ``out_dir`` is given, writes each one as a JSON file that
``python -m repro replay`` reproduces bit-identically.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.fuzz.executor import SpecOutcome, run_spec
from repro.fuzz.shrink import shrink_spec
from repro.fuzz.spec import ScenarioSpec, generate_spec

__all__ = [
    "FuzzReport",
    "ReplayResult",
    "run_fuzz_campaign",
    "write_counterexample",
    "load_counterexample",
    "replay_counterexample",
    "COUNTEREXAMPLE_FORMAT",
]

#: ``format`` marker of counterexample files (versioned for evolution).
#: Version 2 added ``register`` to events (the ``read`` kind); version-1
#: files still load, their events reading register 0.
COUNTEREXAMPLE_FORMAT = "repro-fuzz-counterexample"
COUNTEREXAMPLE_VERSION = 2


@dataclass(frozen=True, slots=True)
class FuzzReport:
    """Outcome of one fuzzed seed, after any shrinking."""

    seed: int
    algorithm: str
    events: int
    ok: bool
    failures: tuple[str, ...] = ()
    shrunk_events: int | None = None
    shrink_runs: int = 0
    counterexample: str | None = None
    #: Alerts the observed probe raised (see :attr:`SpecOutcome.alerts`).
    alerts: tuple[dict, ...] = ()
    #: Shards of the fabric the program ran on (0: one cluster).
    shards: int = 0

    def summary(self) -> str:
        """One-line outcome."""
        alerts = f", {len(self.alerts)} alerts" if self.alerts else ""
        if self.ok:
            fabric = f" on {self.shards} shards" if self.shards else ""
            return f"seed {self.seed}: {self.events} events{fabric}: OK{alerts}"
        parts = [
            f"seed {self.seed}: {len(self.failures)} FAILURES{alerts}",
        ]
        if self.shrunk_events is not None:
            parts.append(
                f"shrunk {self.events} -> {self.shrunk_events} events "
                f"({self.shrink_runs} runs)"
            )
        if self.counterexample:
            parts.append(self.counterexample)
        return ", ".join(parts)


@dataclass(frozen=True, slots=True)
class ReplayResult:
    """Outcome of replaying a counterexample file."""

    outcome: SpecOutcome
    reproduced: bool
    fingerprint_matches: bool
    fingerprint_checked: bool = True

    @property
    def ok(self) -> bool:
        """A replay is good when it reproduces the recorded violation."""
        return self.reproduced and self.fingerprint_matches

    def summary(self) -> str:
        """One-line outcome."""
        if self.ok:
            if not self.fingerprint_checked:
                return (
                    f"violation reproduced on a live backend "
                    f"({len(self.outcome.failures)} failures; bit-identical "
                    f"fingerprint comparison requires the sim backend)"
                )
            return (
                f"violation reproduced bit-identically "
                f"({len(self.outcome.failures)} failures, "
                f"t={self.outcome.sim_time:g})"
            )
        if not self.reproduced:
            return "replay DID NOT reproduce the recorded violation"
        return "violation reproduced but the run fingerprint DIVERGED"


# -- counterexample files ----------------------------------------------------


def write_counterexample(
    path: str | Path,
    spec: ScenarioSpec,
    outcome: SpecOutcome,
    shrink_info: dict | None = None,
    backend: str = "sim",
) -> None:
    """Write a failing spec plus its evidence as a counterexample file.

    Counterexamples found on a live backend record that backend; replay
    then re-runs them there by default (checking violation reproduction
    only — the run fingerprint is a sim-determinism artifact).
    """
    payload = {
        "format": COUNTEREXAMPLE_FORMAT,
        "version": COUNTEREXAMPLE_VERSION,
        "spec": spec.to_dict(),
        "failures": list(outcome.failures),
        "fingerprint": outcome.fingerprint(),
    }
    if backend != "sim":
        payload["backend"] = backend
    if shrink_info:
        payload["shrink"] = shrink_info
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text)


def load_counterexample(path: str | Path) -> tuple[ScenarioSpec, dict]:
    """Read a counterexample file; returns ``(spec, full_payload)``."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != COUNTEREXAMPLE_FORMAT:
        raise ValueError(
            f"{path}: not a {COUNTEREXAMPLE_FORMAT} file "
            f"(format={payload.get('format')!r})"
        )
    if payload.get("version", 1) > COUNTEREXAMPLE_VERSION:
        raise ValueError(
            f"{path}: counterexample version {payload['version']} is newer "
            f"than this tree reads ({COUNTEREXAMPLE_VERSION})"
        )
    return ScenarioSpec.from_dict(payload["spec"]), payload


def replay_counterexample(
    path: str | Path, backend: str | None = None
) -> ReplayResult:
    """Re-execute a counterexample and compare against its recording.

    ``backend`` overrides where the spec re-runs (default: the backend
    recorded in the file, or ``sim``).  On the sim backend the replay
    must match the recorded fingerprint bit-for-bit; on a live backend
    only violation reproduction is checked — wall-clock runs have no
    deterministic fingerprint — and a pinned ``decision_script`` raises
    :class:`~repro.errors.ConfigurationError` (``schedule_pinning`` is
    sim-only).
    """
    spec, payload = load_counterexample(path)
    backend = backend if backend is not None else payload.get("backend", "sim")
    outcome = run_spec(spec, backend=backend)
    reproduced = (not outcome.ok) and list(outcome.failures) == payload[
        "failures"
    ]
    fingerprint_checked = backend == "sim"
    fingerprint_matches = (
        outcome.fingerprint() == payload["fingerprint"]
        if fingerprint_checked
        else True
    )
    return ReplayResult(
        outcome=outcome,
        reproduced=reproduced,
        fingerprint_matches=fingerprint_matches,
        fingerprint_checked=fingerprint_checked,
    )


# -- the campaign ------------------------------------------------------------


def probe_seed(seed: int, algorithm: str, budget: int, shards: int = 0) -> SpecOutcome:
    """Generate and execute one seed's spec (the parallel worker body)."""
    return run_spec(generate_spec(seed, algorithm, budget, shards))


def run_fuzz_campaign(
    seeds: Iterable[int],
    jobs: int = 1,
    algorithm: str = "ss-always",
    budget: int = 40,
    out_dir: str | Path | None = None,
    shrink: bool = True,
    max_shrink_runs: int = 500,
    backend: str = "sim",
    time_scale: float = 0.002,
    shards: int = 0,
) -> list[FuzzReport]:
    """Fuzz one generated spec per seed; shrink and record every failure.

    ``shards`` of ``K`` > 0 draws fabric storms on ``K`` shards
    (:func:`~repro.fuzz.spec.generate_spec`) instead of single-cluster
    programs.  On the ``sim`` backend, probing fans out across ``jobs``
    worker processes; shrinking runs in the parent (it is a sequential
    search, and failures are rare).  With ``out_dir`` set, each failing
    seed leaves a ``counterexample-<algorithm>-<seed>.json`` file there
    (``counterexample-<algorithm>-shards<K>-<seed>.json`` for a fabric
    campaign, so the two never overwrite each other).

    On a live backend (``asyncio``/``udp``) the same generated specs run
    against wall-clock clusters — serially (worker fan-out is a sim
    capability; ``jobs`` > 1 raises ``ConfigurationError``) and without
    shrinking (the shrinker's schedule pinning needs the deterministic
    simulator; failures are recorded unshrunk, with the backend noted in
    the counterexample file).
    """
    from repro.harness.parallel import fuzz_cells, run_cells

    seeds = list(seeds)
    if backend != "sim":
        from repro.backend import backend_capabilities

        capabilities = backend_capabilities(backend)  # validates the name
        if jobs > 1:
            capabilities.require("process_fanout", f"--jobs {jobs}")
        if shrink:
            print(
                "note: shrinking requires the deterministic 'sim' backend "
                f"(schedule pinning); recording {backend} failures unshrunk",
                file=sys.stderr,
            )
            shrink = False
        outcomes: Sequence[SpecOutcome] = [
            run_spec(
                generate_spec(seed, algorithm, budget, shards),
                backend=backend,
                time_scale=time_scale,
            )
            for seed in seeds
        ]
    else:
        outcomes = run_cells(
            fuzz_cells(seeds, algorithm=algorithm, budget=budget, shards=shards),
            jobs=jobs,
        )
    reports: list[FuzzReport] = []
    for seed, outcome in zip(seeds, outcomes):
        if outcome.ok:
            reports.append(
                FuzzReport(
                    seed=seed,
                    algorithm=algorithm,
                    events=budget,
                    ok=True,
                    alerts=outcome.alerts,
                    shards=shards,
                )
            )
            continue
        spec = generate_spec(seed, algorithm, budget, shards)
        shrunk_events: int | None = None
        shrink_runs = 0
        shrink_info: dict | None = None
        final_spec, final_outcome = spec, outcome
        if shrink:
            result = shrink_spec(spec, max_runs=max_shrink_runs)
            final_spec, final_outcome = result.spec, result.outcome
            shrunk_events = result.final_events
            shrink_runs = result.runs
            shrink_info = {
                "original_events": result.original_events,
                "final_events": result.final_events,
                "runs": result.runs,
            }
        counterexample: str | None = None
        if out_dir is not None:
            directory = Path(out_dir)
            directory.mkdir(parents=True, exist_ok=True)
            fabric = f"shards{shards}-" if shards else ""
            target = directory / f"counterexample-{algorithm}-{fabric}{seed}.json"
            write_counterexample(
                target, final_spec, final_outcome, shrink_info, backend=backend
            )
            counterexample = str(target)
        reports.append(
            FuzzReport(
                seed=seed,
                algorithm=algorithm,
                events=budget,
                ok=False,
                failures=final_outcome.failures,
                shrunk_events=shrunk_events,
                shrink_runs=shrink_runs,
                counterexample=counterexample,
                alerts=outcome.alerts,
                shards=shards,
            )
        )
    return reports
