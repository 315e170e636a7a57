"""The sharded snapshot fabric: K independent clusters, one object.

A :class:`ShardedFabric` runs ``K`` full snapshot-object deployments —
each a :class:`~repro.backend.base.ClusterBackend` on any substrate —
behind the consistent-hash :class:`~repro.shard.ring.ShardMap`.  Client
keys route to one register *slot* ``(shard, node)``; the fabric is the
slot's single writer, exactly the paper's SWMR model with the fabric
playing the clients' role, so every per-shard guarantee (Definition 1
atomicity, self-stabilization, crash tolerance) applies per key
unchanged.

Three mechanisms make the composition more than K disjoint objects:

* **one submission discipline, the backend's** — a keyed write, a keyed
  read and a collect each pass the admission gate, route under the
  *installed* map, and hand the slot's cluster a coroutine factory
  through :meth:`ClusterBackend.submit
  <repro.backend.base.ClusterBackend.submit>`.  The backend alone
  decides when it starts (FIFO per node for the sequential algorithms,
  at once for the round-sharing ones), so the fabric keeps no queue of
  its own and never asks which algorithm it fronts.  The slot's
  key→value map is read, extended and handed to the algorithm *inside*
  that factory, in one step: two same-instant writes to different keys
  of one slot then publish in the order they extend the map, whichever
  order their tasks happen to start in.  Per-key order needs no queue
  either: a write takes its sequence number at submission and the map
  keeps the highest, so pipelined writes to one key end at the last
  one submitted.
* **composed snapshots** — a globally-consistent cut across all shards.
  Per-shard snapshots are atomic and their vector clocks monotone, so a
  *double collect* (two rounds of parallel per-shard snapshots returning
  identical vectors) proves every shard's state was unchanged between
  the two rounds' linearization points, i.e. the composed vector is the
  true global state at any instant in between — the same argument as the
  stacked double-collect scan, lifted one level.  A double collect
  cannot succeed while writes keep landing, so a compose that finds
  fabric writes in flight — when invoked, or after a round that did not
  agree — or that runs out of optimistic rounds *fences*: it closes
  admission to **writes only**, waits for the writes already admitted,
  and takes one parallel collect of a state that can no longer move —
  the paper's Algorithm 3 trade-off (pause writers briefly so snapshots
  terminate).  Keyed reads keep flowing throughout.
* **epoch-stamped reconfiguration** — a shard split installs a successor
  :class:`ShardMap` (epoch + 1, decided through the
  :class:`~repro.shard.epoch.EpochDecider` seam) only at a drained
  quiescent point (reads and writes both paused).  An operation routes
  *after* it is admitted, so one submitted before or during a split
  simply runs at its key's new home under the new epoch.  No operation
  is lost (the gate only pauses, never drops) and none is duplicated
  (an operation executes exactly once, at its final slot).
  State moves by taking the drained point as the transfer point and
  re-publishing moved entries through ordinary paper writes — the same
  snapshot-as-linearization-point handoff as
  :func:`repro.reconfig.migration.reconfigure`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import Any, Awaitable, Callable

from repro.backend.base import ClusterBackend, backend_class
from repro.config import ClusterConfig
from repro.errors import ConfigurationError, ReproError
from repro.shard.epoch import (
    ConsensusEpochDecider,
    EpochDecider,
    LocalEpochDecider,
)
from repro.shard.ring import DEFAULT_VNODES, ShardMap

__all__ = [
    "ComposedSnapshot",
    "KeyView",
    "ShardedFabric",
    "SplitReport",
    "WriteRecord",
    "build_sim_fabric",
    "create_fabric",
    "run_on_fabric",
]


@dataclass(frozen=True, slots=True)
class WriteRecord:
    """One fabric-level write, as the per-key checker sees it."""

    key: Any
    seq: int
    slot: tuple[int, int]
    epoch: int
    invoked: float
    responded: float
    ts: int


@dataclass(frozen=True, slots=True)
class KeyView:
    """A keyed read: one key projected out of an atomic read of its slot."""

    key: Any
    seq: int
    value: Any
    found: bool
    shard: int
    epoch: int


@dataclass(frozen=True, slots=True)
class ComposedSnapshot:
    """A globally-consistent cut across every shard.

    ``shard_vectors`` maps shard id → that shard's snapshot vector
    clock; ``shard_slots`` maps shard id → the per-node slot maps
    (``{key: (seq, value)}`` or ``None`` for never-written registers).
    ``fenced`` records whether the cut came from the optimistic
    double-collect (``False``) or the drained fallback (``True``) —
    both are linearizable; they differ only in how they terminated.
    """

    epoch: int
    invoked: float
    responded: float
    shard_vectors: dict[int, tuple[int, ...]]
    shard_slots: dict[int, tuple[Any, ...]]
    rounds: int
    fenced: bool

    def vector(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The composed vector clock: ``((shard_id, vc), …)`` sorted."""
        return tuple(sorted(self.shard_vectors.items()))

    def items(self) -> dict[Any, tuple[int, Any]]:
        """Merged ``{key: (seq, value)}`` across every slot of the cut."""
        merged: dict[Any, tuple[int, Any]] = {}
        for shard_id in sorted(self.shard_slots):
            for slot_map in self.shard_slots[shard_id]:
                if not slot_map:
                    continue
                for key, entry in slot_map.items():
                    current = merged.get(key)
                    if current is None or entry[0] > current[0]:
                        merged[key] = entry
        return merged

    def get(self, key: Any, default: Any = None) -> Any:
        """The value of ``key`` in the cut (``default`` if unwritten)."""
        entry = self.items().get(key)
        return entry[1] if entry is not None else default

    def __contains__(self, key: Any) -> bool:
        return key in self.items()


@dataclass(frozen=True, slots=True)
class SplitReport:
    """Outcome of one shard split."""

    old_epoch: int
    new_epoch: int
    new_shard_ids: tuple[int, ...]
    moved_keys: int
    transfer_vector: tuple[tuple[int, tuple[int, ...]], ...]


class _Admission:
    """One class of fabric operations: a gate in front, a count behind.

    ``async with admission:`` waits at the gate, then counts the
    operation as in flight until the block exits.  :meth:`drain` closes
    the gate and returns once nothing admitted is still running;
    :meth:`open` lets the waiters through again.
    """

    def __init__(self, kernel: Any) -> None:
        self._kernel = kernel
        self._gate = kernel.create_gate(True)
        self.inflight = 0
        self._idle: Any = None

    async def __aenter__(self) -> None:
        # Re-test after waking: another admin section may have closed
        # the gate again before this waiter got to run.
        while not self._gate.is_open:
            await self._gate.passthrough()
        self.inflight += 1

    async def __aexit__(self, *exc_info: object) -> None:
        self.inflight -= 1
        if self.inflight == 0 and self._idle is not None:
            self._idle.set()

    def close(self) -> None:
        self._gate.close()

    def open(self) -> None:
        self._gate.open()

    async def drain(self) -> None:
        self._gate.close()
        if self.inflight:
            self._idle = self._kernel.create_event()
            await self._idle.wait()
            self._idle = None


class ShardedFabric:
    """K snapshot clusters behind one consistent-hash router.

    Build through :func:`build_sim_fabric` (synchronous, simulator) or
    :func:`create_fabric` (any backend, inside an event loop); drive
    whole workloads with :func:`run_on_fabric`.  The documented client
    entry point wrapping this is
    :class:`repro.client.SnapshotClient`.
    """

    def __init__(
        self,
        shards: dict[int, ClusterBackend],
        shard_map: ShardMap,
        *,
        backend_name: str,
        algorithm: str,
        base_config: ClusterConfig,
        time_scale: float = 0.002,
        decider: EpochDecider | str | None = None,
    ) -> None:
        if sorted(shards) != list(shard_map.shard_ids):
            raise ConfigurationError(
                f"shard clusters {sorted(shards)} do not match the map "
                f"{shard_map.shard_ids}"
            )
        self._shards = dict(shards)
        self.map = shard_map
        self.backend_name = backend_name
        self.algorithm_name = algorithm
        self.base_config = base_config
        self.time_scale = time_scale
        if decider is None or decider == "local":
            self.decider: EpochDecider = LocalEpochDecider()
        elif decider == "consensus":
            # The lowest shard always exists (shards are only added),
            # so its cluster is the stable home for epoch agreement.
            anchor = self._shards[min(self._shards)]
            self.decider = ConsensusEpochDecider(anchor)
        elif isinstance(decider, str):
            raise ConfigurationError(
                f"unknown decider {decider!r}: use 'local', 'consensus', "
                f"or an EpochDecider instance"
            )
        else:
            self.decider = decider
        self.kernel = next(iter(self._shards.values())).kernel
        self.n = base_config.n
        #: Authoritative per-slot key→(seq, value) maps.  The fabric is
        #: each slot's single writer (SWMR), so this is the writer's own
        #: copy of its register contents — what the paper's node keeps
        #: in ``reg[i]`` — not a cache that can go stale.  A published
        #: map is never mutated; each write installs a fresh dict.
        self._slots: dict[tuple[int, int], dict[Any, tuple[int, Any]]] = {}
        self._key_seq: dict[Any, int] = {}
        #: Admission, per operation class.  A fenced compose pauses
        #: writes only; a split pauses both.  Pausing never drops.
        self._reads = _Admission(self.kernel)
        self._writes = _Admission(self.kernel)
        self._admin_chain: Any = None
        self._closed = False
        #: Fabric-level operation records for the composed checker.
        self.writes: list[WriteRecord] = []
        self.composed: list[ComposedSnapshot] = []
        self.splits: list[SplitReport] = []
        self._label_shards()

    # -- topology ----------------------------------------------------------

    @property
    def shard_ids(self) -> tuple[int, ...]:
        """The live configuration's shard ids."""
        return self.map.shard_ids

    @property
    def epoch(self) -> int:
        """The installed shard-map epoch."""
        return self.map.epoch

    def shard(self, shard_id: int) -> ClusterBackend:
        """The cluster backend running shard ``shard_id``."""
        return self._shards[shard_id]

    def backends(self) -> list[ClusterBackend]:
        """Every shard's backend, in shard-id order."""
        return [self._shards[sid] for sid in sorted(self._shards)]

    def slot_of(self, key: Any) -> tuple[int, int]:
        """Where ``key`` routes under the installed map."""
        return self.map.slot(key, self.n)

    def _label_shards(self) -> None:
        """Tag observed shard clusters so blame/health rows name shards."""
        for shard_id, backend in self._shards.items():
            obs = getattr(backend, "obs", None)
            if obs is not None:
                obs.label = f"shard{shard_id}"

    # -- operations --------------------------------------------------------

    def submit_write(self, key: Any, value: Any) -> Any:
        """Pipelined write: returns a task completing with the key's seq.

        The sequence number is taken here, at submission, so writes one
        caller pipelines to one key keep their program order whatever
        order their tasks start in.
        """
        seq = self._key_seq[key] = self._key_seq.get(key, 0) + 1
        return self.kernel.create_task(
            self._write(key, seq, value, self.kernel.now), name=f"w:{key}"
        )

    async def write(self, key: Any, value: Any) -> int:
        """Write ``key`` and return its per-key sequence number."""
        return await self.submit_write(key, value)

    def submit_scan(self, key: Any) -> Any:
        """Pipelined keyed read of ``key`` (an atomic read of its slot)."""
        return self.kernel.create_task(self._read(key), name=f"s:{key}")

    async def scan(self, key: Any) -> KeyView:
        """Read ``key`` through an atomic read of its slot's register."""
        return await self.submit_scan(key)

    async def _write(
        self, key: Any, seq: int, value: Any, invoked: float
    ) -> int:
        if self._closed:
            raise ReproError("fabric is closed")
        async with self._writes:
            slot = shard_id, node = self.slot_of(key)
            backend = self._shards[shard_id]

            async def publish() -> int:
                # No suspension between extending the slot's map and
                # enqueueing it at the algorithm: a task hop here would
                # let a same-instant write of another key publish its
                # larger map first and this one overwrite it.
                state = self._slots.get(slot, {})
                if state.get(key, (0, None))[0] < seq:
                    state = self._slots[slot] = {**state, key: (seq, value)}
                return await backend.write(node, state)

            ts = await backend.submit(node, publish)
            self.writes.append(
                WriteRecord(
                    key=key,
                    seq=seq,
                    slot=slot,
                    epoch=self.epoch,
                    invoked=invoked,
                    responded=self.kernel.now,
                    ts=ts,
                )
            )
            return seq

    async def _read(self, key: Any) -> KeyView:
        if self._closed:
            raise ReproError("fabric is closed")
        async with self._reads:
            shard_id, node = self.slot_of(key)
            # The slot's writer reads its own register: one quorum round,
            # untouched by writes to the shard's other slots.
            result = await self._shards[shard_id].submit_read(node, node)
            entry = (result.value or {}).get(key)
            if entry is None:
                return KeyView(key, 0, None, False, shard_id, self.epoch)
            return KeyView(key, entry[0], entry[1], True, shard_id, self.epoch)

    # -- composed snapshots ------------------------------------------------

    #: Optimistic double-collect rounds before a compose falls back to
    #: the fenced (drain-and-collect) path.
    MAX_OPTIMISTIC_ROUNDS = 4

    async def _collect(self, map_: ShardMap) -> dict[int, Any] | None:
        """One parallel round of per-shard snapshots under ``map_``.

        A collect is a read at each shard's node 0.  Returns ``None`` if
        an epoch change was installed while it waited for admission.
        """
        async with self._reads:
            if self.map is not map_:
                return None
            tasks = {
                shard_id: self._shards[shard_id].submit_snapshot(0)
                for shard_id in map_.shard_ids
            }
            return {shard_id: await task for shard_id, task in tasks.items()}

    async def compose_snapshot(
        self, max_rounds: int | None = None, fence: bool = True
    ) -> ComposedSnapshot:
        """A linearizable cut across every shard.

        Runs up to ``max_rounds`` optimistic double-collects; if writers
        keep the composed vector moving and ``fence`` is true (the
        default, the always-terminating flavour), falls back to a brief
        write fence — without spending a round whenever fabric writes
        are in flight, since a double collect cannot succeed then.  With
        ``fence=False`` the compose is non-blocking only: it retries
        until a clean double collect succeeds, like the stacked scan.
        """
        if max_rounds is None:
            max_rounds = self.MAX_OPTIMISTIC_ROUNDS
        invoked = self.kernel.now
        rounds = 0
        while not (fence and (self._writes.inflight or rounds >= max_rounds)):
            map_ = self.map
            first = await self._collect(map_)
            if first is None:
                continue
            second = await self._collect(map_)
            if second is None:
                continue
            rounds += 1
            stable = all(
                first[sid].vector_clock == second[sid].vector_clock
                for sid in map_.shard_ids
            )
            if stable:
                return self._record_compose(
                    map_, second, invoked, rounds, fenced=False
                )
        return await self._admin(lambda: self._fenced_compose(invoked, rounds))

    async def _fenced_compose(
        self, invoked: float, optimistic_rounds: int
    ) -> ComposedSnapshot:
        """Pause writes, wait for those in flight, one stable collect.

        With no fabric write admitted, no shard's vector can move (a
        split cannot interleave either — both run on the admin chain),
        so every per-shard snapshot returns that shard's one settled
        state and the parallel collect is a cut at any instant inside
        the fence.  Keyed reads are not paused.
        """
        await self._writes.drain()
        try:
            map_ = self.map
            results = await self._collect(map_)
            return self._record_compose(
                map_, results, invoked, optimistic_rounds + 1, fenced=True
            )
        finally:
            self._writes.open()

    def _record_compose(
        self,
        map_: ShardMap,
        results: dict[int, Any],
        invoked: float,
        rounds: int,
        fenced: bool,
    ) -> ComposedSnapshot:
        snap = ComposedSnapshot(
            epoch=map_.epoch,
            invoked=invoked,
            responded=self.kernel.now,
            shard_vectors={
                sid: tuple(results[sid].vector_clock)
                for sid in map_.shard_ids
            },
            shard_slots={
                sid: tuple(results[sid].values) for sid in map_.shard_ids
            },
            rounds=rounds,
            fenced=fenced,
        )
        self.composed.append(snap)
        return snap

    # -- quiescence + admin serialization ----------------------------------

    async def _quiesce(self) -> None:
        """Pause every admission and wait until nothing is in flight."""
        self._reads.close()
        await self._writes.drain()
        await self._reads.drain()

    def _release(self) -> None:
        self._reads.open()
        self._writes.open()

    async def _admin(self, factory: Callable[[], Awaitable[Any]]) -> Any:
        """Serialize administrative sections (splits, fenced composes)."""
        previous = self._admin_chain

        async def chained() -> Any:
            if previous is not None:
                try:
                    await previous
                except BaseException:  # noqa: BLE001
                    pass
            return await factory()

        task = self.kernel.create_task(chained(), name="fabric-admin")
        self._admin_chain = task
        return await task

    # -- reconfiguration: shard split --------------------------------------

    async def split(self, new_shard_id: int | None = None) -> SplitReport:
        """Split the keyspace: add one shard and migrate its keys.

        The successor map is decided through the epoch seam, installed
        only after the fabric drains, and every moved entry is
        re-published at its new home through ordinary writes before
        admissions resume — operations held at the gate route under the
        new map once admitted, so none is lost or duplicated across the
        split.
        """
        return await self._admin(lambda: self._do_split(new_shard_id))

    async def _do_split(self, new_shard_id: int | None) -> SplitReport:
        old_map = self.map
        proposal = old_map.grown(new_shard_id)
        decided = self.decider.propose(proposal, old_map)
        if inspect.isawaitable(decided):
            # The consensus decider blocks until the backing cluster
            # has agreed on the successor configuration.
            decided = await decided
        fresh = tuple(
            sid for sid in decided.shard_ids if sid not in old_map.shard_ids
        )
        await self._quiesce()
        try:
            for sid in fresh:
                self._shards[sid] = await self._spawn_shard(sid)
            self._label_shards()
            # The drained point is the transfer point: nothing is in
            # flight, so a plain collect is a stable global cut.
            transfer = {
                sid: tuple(
                    (await self._shards[sid].snapshot(0)).vector_clock
                )
                for sid in old_map.shard_ids
            }
            moved = await self._migrate(decided)
            self.map = decided
        finally:
            self._release()
        report = SplitReport(
            old_epoch=old_map.epoch,
            new_epoch=decided.epoch,
            new_shard_ids=fresh,
            moved_keys=moved,
            transfer_vector=tuple(sorted(transfer.items())),
        )
        self.splits.append(report)
        return report

    async def _spawn_shard(self, shard_id: int) -> ClusterBackend:
        cls = backend_class(self.backend_name)
        config = replace(
            self.base_config, seed=self.base_config.seed + 101 * shard_id
        )
        if cls.capabilities.simulated_time:
            backend = cls(
                self.algorithm_name, config, start=False, kernel=self.kernel
            )
        else:
            backend = cls(
                self.algorithm_name, config, time_scale=self.time_scale
            )
        await backend.create()
        backend.start()
        return backend

    async def _migrate(self, new_map: ShardMap) -> int:
        """Move every key whose slot changed; publish both sides."""
        moved = 0
        arrivals: dict[tuple[int, int], dict[Any, tuple[int, Any]]] = {}
        for slot, state in sorted(self._slots.items(), key=lambda kv: kv[0]):
            moving = {
                key: entry
                for key, entry in state.items()
                if new_map.slot(key, self.n) != slot
            }
            if not moving:
                continue
            remaining = {
                key: entry for key, entry in state.items() if key not in moving
            }
            self._slots[slot] = remaining
            shard_id, node = slot
            await self._shards[shard_id].write(node, remaining)
            for key, entry in moving.items():
                arrivals.setdefault(new_map.slot(key, self.n), {})[key] = entry
            moved += len(moving)
        for slot, entries in sorted(arrivals.items(), key=lambda kv: kv[0]):
            state = dict(self._slots.get(slot, {}))
            state.update(entries)
            self._slots[slot] = state
            shard_id, node = slot
            await self._shards[shard_id].write(node, state)
        return moved

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start every shard's do-forever loops."""
        for backend in self.backends():
            backend.start()

    def stop(self) -> None:
        """Stop every shard's do-forever loops."""
        for backend in self.backends():
            backend.stop()

    async def close(self) -> None:
        """Tear every shard down; idempotent."""
        if self._closed:
            return
        self._closed = True
        for backend in self.backends():
            await backend.close()

    # -- verification ------------------------------------------------------

    def check(self) -> list[str]:
        """Check every shard history and the composed/per-key records."""
        from repro.shard.check import check_fabric

        return check_fabric(self)

    def __repr__(self) -> str:
        return (
            f"<ShardedFabric K={self.map.shards} epoch={self.epoch} "
            f"n={self.n} backend={self.backend_name} "
            f"algorithm={self.algorithm_name}>"
        )


# -- factories -------------------------------------------------------------


def build_sim_fabric(
    shards: int = 2,
    algorithm: str = "ss-nonblocking",
    config: ClusterConfig | None = None,
    *,
    vnodes: int = DEFAULT_VNODES,
    decider: EpochDecider | str | None = None,
) -> ShardedFabric:
    """Synchronously build a simulator fabric on one shared kernel.

    Every shard cluster shares a single deterministic kernel (one
    simulated timeline, one tie-break RNG), so a sharded run is exactly
    as reproducible as a single-cluster run: same seed ⇒ same history.
    """
    if shards < 1:
        raise ConfigurationError(f"need at least 1 shard, got {shards}")
    base = config if config is not None else ClusterConfig(n=4, delta=2)
    cls = backend_class("sim")
    shard_map = ShardMap(epoch=0, shard_ids=tuple(range(shards)), vnodes=vnodes)
    clusters: dict[int, ClusterBackend] = {}
    kernel = None
    for shard_id in shard_map.shard_ids:
        shard_config = replace(base, seed=base.seed + 101 * shard_id)
        if kernel is None:
            backend = cls(algorithm, shard_config, start=True)
            kernel = backend.kernel
        else:
            backend = cls(algorithm, shard_config, start=True, kernel=kernel)
        clusters[shard_id] = backend
    return ShardedFabric(
        clusters,
        shard_map,
        backend_name="sim",
        algorithm=algorithm,
        base_config=base,
        decider=decider,
    )


async def create_fabric(
    backend: str = "sim",
    shards: int = 2,
    algorithm: str = "ss-nonblocking",
    config: ClusterConfig | None = None,
    *,
    time_scale: float = 0.002,
    vnodes: int = DEFAULT_VNODES,
    decider: EpochDecider | str | None = None,
) -> ShardedFabric:
    """Build and start a fabric on any backend (run inside a loop)."""
    if backend_class(backend).capabilities.simulated_time:
        return build_sim_fabric(
            shards, algorithm, config, vnodes=vnodes, decider=decider
        )
    if shards < 1:
        raise ConfigurationError(f"need at least 1 shard, got {shards}")
    base = config if config is not None else ClusterConfig(n=4, delta=2)
    cls = backend_class(backend)
    shard_map = ShardMap(epoch=0, shard_ids=tuple(range(shards)), vnodes=vnodes)
    clusters: dict[int, ClusterBackend] = {}
    for shard_id in shard_map.shard_ids:
        shard_config = replace(base, seed=base.seed + 101 * shard_id)
        cluster = cls(algorithm, shard_config, time_scale=time_scale)
        await cluster.create()
        cluster.start()
        clusters[shard_id] = cluster
    return ShardedFabric(
        clusters,
        shard_map,
        backend_name=backend,
        algorithm=algorithm,
        base_config=base,
        time_scale=time_scale,
        decider=decider,
    )


def run_on_fabric(
    backend: str,
    shards: int,
    algorithm: str,
    config: ClusterConfig | None,
    body: Callable[[ShardedFabric], Awaitable[Any]],
    *,
    time_scale: float = 0.002,
    max_events: int | None = None,
    vnodes: int = DEFAULT_VNODES,
    decider: EpochDecider | str | None = None,
) -> Any:
    """Run ``async body(fabric)`` to completion on the named backend.

    The sharded sibling of
    :func:`repro.backend.base.run_on_backend`: the simulator drives its
    virtual clock, live backends run under ``asyncio.run``, and the
    fabric is torn down afterwards either way.
    """
    import asyncio

    cls = backend_class(backend)
    if cls.capabilities.simulated_time:
        fabric = build_sim_fabric(
            shards, algorithm, config, vnodes=vnodes, decider=decider
        )
        try:
            return fabric.kernel.run_until_complete(
                body(fabric), max_events=max_events
            )
        finally:
            fabric.stop()

    async def main() -> Any:
        fabric = await create_fabric(
            backend,
            shards,
            algorithm,
            config,
            time_scale=time_scale,
            vnodes=vnodes,
            decider=decider,
        )
        try:
            return await body(fabric)
        finally:
            await fabric.close()

    return asyncio.run(main())
