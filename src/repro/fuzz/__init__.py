"""Counterexample-driven fuzz campaigns over scenario specifications.

The fuzz subsystem is the repository's one fault-storm engine, on a
single cluster or a sharded fabric, and closes the loop between
randomized endurance testing and the model checker's exact schedule
control (the SCRIPTED explorer):

* :mod:`repro.fuzz.spec` — :class:`ScenarioSpec`, a serializable
  generative program of workload operations, fault events, and config
  dimensions, drawn from a seed;
* :mod:`repro.fuzz.executor` — :func:`run_spec`, the one deterministic
  meaning of a spec, with linearizability / invariant / termination
  checks after every phase;
* :mod:`repro.fuzz.shrink` — :func:`shrink_spec`, ddmin + config
  minimization + schedule pinning, turning a failing spec into a minimal
  counterexample with an explicit kernel decision script;
* :mod:`repro.fuzz.runner` — :func:`run_fuzz_campaign` /
  counterexample files / :func:`replay_counterexample`, behind
  ``python -m repro fuzz`` and ``python -m repro replay``.
"""

from repro.fuzz.executor import OP_TERMINATION_BOUND, SpecOutcome, run_spec
from repro.fuzz.runner import (
    COUNTEREXAMPLE_FORMAT,
    FuzzReport,
    ReplayResult,
    load_counterexample,
    replay_counterexample,
    run_fuzz_campaign,
    write_counterexample,
)
from repro.fuzz.shrink import ShrinkResult, shrink_spec
from repro.fuzz.spec import (
    EVENT_KINDS,
    ScenarioEvent,
    ScenarioSpec,
    generate_spec,
)

__all__ = [
    "ScenarioEvent",
    "ScenarioSpec",
    "generate_spec",
    "EVENT_KINDS",
    "SpecOutcome",
    "run_spec",
    "OP_TERMINATION_BOUND",
    "ShrinkResult",
    "shrink_spec",
    "FuzzReport",
    "ReplayResult",
    "run_fuzz_campaign",
    "write_counterexample",
    "load_counterexample",
    "replay_counterexample",
    "COUNTEREXAMPLE_FORMAT",
]
