"""Scenario specifications: serializable generative fuzz programs.

A :class:`ScenarioSpec` is a complete, self-contained description of one
verification run: the configuration dimensions (``n``, δ, channel delay /
loss / duplication, algorithm, and ``shards`` — one cluster, or a
sharded fabric of that many), an event program over workload operations
(writes, snapshots and single-register reads on chosen nodes; keyed
writes and reads, composed snapshots, splits and reconfigurations on a
fabric) and fault events (crashes, resumes, partitions, heals, transient
corruption bursts), and — optionally — a pinned kernel decision script
that fixes the exact same-instant schedule.  Specs are pure data:
JSON-round-trippable, so a failing spec can be written to disk as a
counterexample file and replayed bit-identically by
``python -m repro replay``.

:func:`generate_spec` draws a spec from a seed; the executor
(:mod:`repro.fuzz.executor`) gives every spec one deterministic meaning.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.config import ClusterConfig, scenario_config
from repro.errors import ConfigurationError

__all__ = [
    "ScenarioEvent",
    "ScenarioSpec",
    "generate_spec",
    "EVENT_KINDS",
    "CORRUPTION_MODES",
    "BOUNDED_CORRUPTION_MODES",
]

#: Every event kind the executor understands.
EVENT_KINDS = (
    "write",
    "snapshot",
    "read",
    "crash",
    "resume",
    "partition",
    "heal",
    "corrupt",
    "settle",
    "split",
    "reconfigure",
)

#: Corruption classes a ``corrupt`` event may name (see
#: :class:`repro.fault.TransientFaultInjector`).
CORRUPTION_MODES = ("ts", "ssn", "registers", "channels")

#: Extended corruption classes for the bounded algorithms, which carry a
#: consensus endpoint whose per-instance state is itself a corruption
#: target.  Kept separate from :data:`CORRUPTION_MODES` so existing
#: seeds' RNG draw sequences (and thus their pinned counterexamples) are
#: untouched for every other algorithm.
BOUNDED_CORRUPTION_MODES = CORRUPTION_MODES + ("consensus",)


@dataclass(frozen=True, slots=True)
class ScenarioEvent:
    """One step of a scenario program.

    ``node`` targets write/snapshot/read/crash/resume events; ``value`` is
    the written payload; ``register`` is the index a ``read`` reads;
    ``group`` is a partition's minority side; ``mode`` selects a
    corruption class (``corrupt``) or ``"restart"`` semantics
    (``resume``); ``gap`` is the simulated-time pause after the event.
    On a fabric, ``key`` names what a ``write`` or ``read`` touches and
    ``shard`` the shard a ``crash`` hits.
    """

    kind: str
    node: int = 0
    value: str = ""
    group: tuple[int, ...] = ()
    mode: str = ""
    gap: float = 1.0
    register: int = 0
    key: str = ""
    shard: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ConfigurationError(f"unknown event kind {self.kind!r}")

    def to_dict(self) -> dict:
        """A JSON-safe dict (primitives only): a stable key set, plus
        ``key`` and ``shard`` where set, so single-cluster events keep
        their bytes."""
        payload = {
            "kind": self.kind,
            "node": self.node,
            "value": self.value,
            "group": list(self.group),
            "mode": self.mode,
            "gap": self.gap,
            "register": self.register,
        }
        fabric = (("key", self.key), ("shard", self.shard))
        payload.update((name, value) for name, value in fabric if value)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioEvent":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=payload["kind"],
            node=int(payload.get("node", 0)),
            value=payload.get("value", ""),
            group=tuple(int(i) for i in payload.get("group", ())),
            mode=payload.get("mode", ""),
            gap=float(payload.get("gap", 1.0)),
            # .get: version-1 counterexample files predate reads.
            register=int(payload.get("register", 0)),
            key=payload.get("key", ""),
            shard=int(payload.get("shard", 0)),
        )


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """A complete fuzz scenario: config dimensions + event program.

    ``decision_script`` of ``None`` means the spec runs under the
    ``RANDOM`` tie-break (seeded, still deterministic); a tuple pins the
    exact same-instant schedule via the kernel's ``SCRIPTED`` tie-break —
    the shrinker's final, fully explicit counterexample form.
    ``shards`` of 0 is one cluster; ``K`` runs the program on a
    ``K``-shard fabric, where a ``snapshot`` is a composed cut.
    """

    algorithm: str = "ss-always"
    n: int = 4
    seed: int = 0
    delta: float = 2.0
    min_delay: float = 0.5
    max_delay: float = 1.5
    loss: float = 0.0
    duplication: float = 0.0
    events: tuple[ScenarioEvent, ...] = ()
    decision_script: tuple[int, ...] | None = None
    #: Bounded-variant wraparound threshold; ``None`` keeps the config
    #: default (effectively unbounded), so specs for the unbounded
    #: algorithms are unchanged on disk and in behaviour.
    max_int: int | None = None
    #: Transport batch window (maps to ``ChannelConfig.batch_window``);
    #: ``None`` keeps the default unbatched send path, so specs for the
    #: other algorithms are unchanged on disk and in behaviour.
    batch_window: int | None = None
    #: Shards of the fabric the program runs on; 0 (omitted on disk) is
    #: one cluster.
    shards: int = 0

    def config(self) -> ClusterConfig:
        """The cluster configuration this spec describes."""
        overrides = dict(
            n=self.n,
            seed=self.seed,
            delta=self.delta,
            min_delay=self.min_delay,
            max_delay=self.max_delay,
            loss=self.loss,
            duplication=self.duplication,
        )
        if self.max_int is not None:
            overrides["max_int"] = self.max_int
        if self.batch_window is not None:
            overrides["batch"] = self.batch_window
        return scenario_config(**overrides)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe dict representation."""
        payload = {
            "algorithm": self.algorithm,
            "n": self.n,
            "seed": self.seed,
            "delta": self.delta,
            "min_delay": self.min_delay,
            "max_delay": self.max_delay,
            "loss": self.loss,
            "duplication": self.duplication,
            "events": [event.to_dict() for event in self.events],
            "decision_script": (
                None
                if self.decision_script is None
                else list(self.decision_script)
            ),
            "max_int": self.max_int,
            "batch_window": self.batch_window,
        }
        if self.shards:
            payload["shards"] = self.shards
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`."""
        script = payload.get("decision_script")
        return cls(
            algorithm=payload["algorithm"],
            n=int(payload["n"]),
            seed=int(payload["seed"]),
            delta=float(payload["delta"]),
            min_delay=float(payload["min_delay"]),
            max_delay=float(payload["max_delay"]),
            loss=float(payload["loss"]),
            duplication=float(payload["duplication"]),
            events=tuple(
                ScenarioEvent.from_dict(event) for event in payload["events"]
            ),
            decision_script=None if script is None else tuple(script),
            # .get: counterexample files written before the field existed.
            max_int=(
                None
                if payload.get("max_int") is None
                else int(payload["max_int"])
            ),
            batch_window=(
                None
                if payload.get("batch_window") is None
                else int(payload["batch_window"])
            ),
            shards=int(payload.get("shards", 0)),
        )

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, so equal specs are equal bytes)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> None:
        """Write the canonical JSON form to ``path``."""
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "ScenarioSpec":
        """Read a spec previously written with :meth:`save`."""
        return cls.from_json(Path(path).read_text())

    # -- shrinking helpers -------------------------------------------------

    def with_events(self, events) -> "ScenarioSpec":
        """A copy with a different event program (script unpinned)."""
        return replace(self, events=tuple(events), decision_script=None)


#: Event mix for generated single-cluster specs (operations dominate;
#: faults and corruption bursts are salted in).
_EVENT_WEIGHTS = (
    ("write", 6),
    ("snapshot", 3),
    ("read", 3),
    ("crash", 1),
    ("resume", 2),
    ("partition", 2),
    ("heal", 2),
    ("corrupt", 1),
    ("settle", 1),
)

_DELAY_PROFILES = ((0.5, 1.5), (1.0, 1.0), (0.2, 2.0))
_LOSS_PROFILES = (0.0, 0.05, 0.1)
_DELTA_PROFILES = (0.0, 1.0, 2.0, 4.0)
#: Wraparound thresholds drawn for bounded-algorithm specs — small
#: enough that a 40-event program crosses them and exercises the
#: consensus-backed global reset.
_MAX_INT_PROFILES = (8, 16, 48)
#: Transport batch windows drawn for ``amortized`` specs (plus ``None``,
#: so the unbatched send path stays in the fuzzed mix too).
_BATCH_WINDOW_PROFILES = (None, 2, 4, 8)


@dataclass(slots=True)
class _Weighted:
    """Internal: flattened weighted kind list for ``rng.choice``."""

    kinds: list[str] = field(default_factory=list)


#: Event mix for generated fabric specs: keyed writes and reads,
#: composed cuts, per-shard crashes and resumes.
_FABRIC_MIX = ("write",) * 6 + ("read",) * 3 + ("snapshot", "crash") + ("resume",) * 2


def _fabric_program(
    rng: random.Random, events: int, n: int, shards: int
) -> list[ScenarioEvent]:
    """A fabric storm: one split at ``events // 2`` and one
    reconfiguration to ``n + 1`` nodes at ``3 * events // 4`` take the
    place of a drawn event; a crash draws from the shards and nodes that
    exist at its point in the program."""
    split_at, reconfigure_at = events // 2, 3 * events // 4
    program: list[ScenarioEvent] = []
    for index in range(events):
        if index == split_at:
            kind = "split"
        elif index == reconfigure_at:
            kind = "reconfigure"
        else:
            kind = rng.choice(_FABRIC_MIX)
        fields: dict = {"gap": round(rng.uniform(0.5, 3.0), 2)}
        if kind in ("write", "read"):
            fields["key"] = f"c{rng.randrange(32 * shards)}"
            fields["value"] = f"w{index}" if kind == "write" else ""
        elif kind == "crash":
            fields["shard"] = rng.randrange(shards + (index > split_at))
            fields["node"] = rng.randrange(n + (index > reconfigure_at))
        elif kind == "resume":
            fields["mode"] = "restart" if rng.random() < 0.3 else ""
            fields["node"] = rng.randrange(n)
        program.append(ScenarioEvent(kind=kind, **fields))
    return program


def generate_spec(
    seed: int,
    algorithm: str = "ss-always",
    events: int = 40,
    shards: int = 0,
) -> ScenarioSpec:
    """Draw one scenario spec from a seed.

    Everything — cluster size, δ, the channel model, and the event
    program — derives from ``random.Random(seed)``, so a seed fully
    identifies a spec and a campaign is just a seed range.

    With ``shards`` set the spec is a fabric storm on that many shards
    of ``n = 4`` nodes at δ = 2 over the default channel: only the
    program is drawn (:data:`_FABRIC_MIX`).

    For the bounded algorithms two extra dimensions open up — a small
    ``max_int`` (so wraparound resets actually fire mid-program) and the
    ``consensus`` corruption mode — drawn *after* the shared dimensions
    and only on the bounded path, so every pre-existing seed for the
    other algorithms maps to the byte-identical spec it always did.
    The ``amortized`` variant likewise draws a transport
    ``batch_window`` after the shared dimensions, on its path only.
    """
    rng = random.Random(seed)
    if shards:
        program = tuple(_fabric_program(rng, events, n=4, shards=shards))
        return ScenarioSpec(
            algorithm, n=4, seed=seed, delta=2.0, events=program, shards=shards
        )
    bounded = algorithm.startswith("bounded")
    amortized = algorithm == "amortized"
    n = rng.choice((3, 4, 5))
    delta = rng.choice(_DELTA_PROFILES)
    min_delay, max_delay = rng.choice(_DELAY_PROFILES)
    loss = rng.choice(_LOSS_PROFILES)
    max_int = rng.choice(_MAX_INT_PROFILES) if bounded else None
    batch_window = rng.choice(_BATCH_WINDOW_PROFILES) if amortized else None
    corruption_modes = BOUNDED_CORRUPTION_MODES if bounded else CORRUPTION_MODES
    weighted = _Weighted()
    for kind, weight in _EVENT_WEIGHTS:
        weighted.kinds.extend([kind] * weight)
    program: list[ScenarioEvent] = []
    for index in range(events):
        kind = rng.choice(weighted.kinds)
        node = rng.randrange(n)
        gap = round(rng.uniform(0.0, 2.5), 2)
        if kind == "write":
            event = ScenarioEvent(
                kind=kind, node=node, value=f"w{index}", gap=gap
            )
        elif kind == "read":
            event = ScenarioEvent(
                kind=kind, node=node, register=rng.randrange(n), gap=gap
            )
        elif kind == "partition":
            size = rng.randrange(1, max(2, (n - 1) // 2 + 1))
            group = tuple(sorted(rng.sample(range(n), size)))
            event = ScenarioEvent(kind=kind, group=group, gap=gap)
        elif kind == "resume":
            mode = "restart" if rng.random() < 0.3 else ""
            event = ScenarioEvent(kind=kind, node=node, mode=mode, gap=gap)
        elif kind == "corrupt":
            mode = rng.choice(corruption_modes)
            event = ScenarioEvent(kind=kind, mode=mode, gap=gap)
        else:
            event = ScenarioEvent(kind=kind, node=node, gap=gap)
        program.append(event)
    return ScenarioSpec(
        algorithm=algorithm,
        n=n,
        seed=seed,
        delta=delta,
        min_delay=min_delay,
        max_delay=max_delay,
        loss=loss,
        duplication=round(loss / 2, 3),
        events=tuple(program),
        max_int=max_int,
        batch_window=batch_window,
    )
