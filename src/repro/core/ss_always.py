"""The paper's Algorithm 3: self-stabilizing always-terminating snapshot.

Differences from the Algorithm 2 baseline, following Section 4:

* **Bounded task state.**  Instead of the unbounded ``repSnap`` table,
  each node keeps one :class:`PendingTask` entry per node —
  ``pndTsk[k] = (sns, vc, fnl)`` — holding the most recent snapshot task
  it knows of node ``k``: its index ``sns``, the vector clock ``vc``
  sampled when the task was first observed to be interfered with, and the
  final result ``fnl`` (or ``⊥`` while running).
* **No reliable broadcast.**  Task results are delivered through an
  emulated *safe register*: the finisher broadcasts ``SAVE`` and waits for
  ``SAVEack`` from a majority (``safeReg``, line 71); any node holding a
  result for a task it sees queried forwards it (line 107).
* **The δ knob.**  Other nodes join ("steal") a task only after observing
  at least δ write operations concurrent with it (measured as growth of
  the register vector clock since the task's ``vc`` sample).  ``δ = 0``
  reproduces Algorithm 2's always-blocking O(n²)-message behaviour;
  ``δ = ∞`` reproduces Algorithm 1's O(n)-message non-blocking behaviour;
  finite ``δ > 0`` buys an O(δ)-cycle termination bound (Theorem 3) at
  O(n) messages per uncontended snapshot.
* **Many-jobs stealing.**  A single run of ``baseSnapshot`` serves *all*
  currently eligible tasks (the set Δ, line 70): one interference-free
  round resolves every one of them with a single ``safeReg`` call.
* **Self-stabilization.**  The do-forever loop discards stale acks,
  re-asserts index consistency (``ts``, ``sns``), clears illogical vector
  clocks and corrupted own-task entries, and gossips register entries and
  indices — giving the O(1)-cycle recovery of Theorem 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.config import ClusterConfig
from repro.core.base import SnapshotAlgorithm, SnapshotResult
from repro.core.register import RegisterArray, TimestampedValue
from repro.net.message import Message
from repro.net.quorum import AckCollector, broadcast_until
from repro.sim.kernel import Kernel

__all__ = [
    "SelfStabilizingAlwaysTerminating",
    "PendingTask",
    "TaskDescriptor",
    "GossipMessage3",
    "SnapshotMessage3",
    "SnapshotAckMessage3",
    "SaveMessage",
    "SaveAckMessage",
]


@dataclass(slots=True)
class PendingTask:
    """One ``pndTsk`` entry: ``(sns, vc, fnl)`` (line 68).

    ``sns`` is the task index (0 = no task ever observed), ``vc`` the
    vector-clock sample time-stamping the task's observed start (``⊥``
    until the task survives an interfered round), ``fnl`` the final
    snapshot result (``⊥`` while the task is unresolved).
    """

    sns: int = 0
    vc: tuple[int, ...] | None = None
    fnl: RegisterArray | None = None

    def copy(self) -> "PendingTask":
        """Independent copy (results are immutable once stored)."""
        return PendingTask(sns=self.sns, vc=self.vc, fnl=self.fnl)


@dataclass(frozen=True, slots=True)
class TaskDescriptor:
    """A task triple ``(k, sns, vc)`` as carried in SNAPSHOT messages."""

    node: int
    sns: int
    vc: tuple[int, ...] | None


@dataclass(frozen=True)
class GossipMessage3(Message):
    """``GOSSIP(reg[k], pndTsk[k].sns)`` to node k (line 78) — O(ν) bits.

    Carries the *receiver's* own register entry and the sender's view of
    the *receiver's* snapshot-task index.  The receiver absorbs both
    maxima, healing a corrupted-low ``ts`` and ``sns`` (the paper's
    ``max{sns, snsJ}`` on line 99; Definition 1(iii) requires
    ``pndTsk_j[i].sns ≤ sns_i``, so the gossiped index must be the
    sender's view of the receiver's task, not the sender's own counter —
    absorbing the sender's own ``sns`` would manufacture phantom tasks at
    every peer).
    """

    KIND = "GOSSIP"
    entry: TimestampedValue
    task_sns: int


@dataclass(frozen=True)
class SnapshotMessage3(Message):
    """``SNAPSHOT(S ∩ Δ, reg, ssn)``: query carrying the served tasks."""

    KIND = "SNAPSHOT"
    tasks: tuple[TaskDescriptor, ...]
    reg: RegisterArray
    ssn: int


@dataclass(frozen=True)
class SnapshotAckMessage3(Message):
    """``SNAPSHOTack(reg, ssn)`` (line 107)."""

    KIND = "SNAPSHOTack"
    reg: RegisterArray
    ssn: int


@dataclass(frozen=True)
class SaveMessage(Message):
    """``SAVE(A)``: task results ``(k, s, r)`` to store (lines 71, 95)."""

    KIND = "SAVE"
    entries: tuple[tuple[int, int, RegisterArray], ...]


@dataclass(frozen=True)
class SaveAckMessage(Message):
    """``SAVEack({(k, s)})``: acknowledgment of stored results (line 97)."""

    KIND = "SAVEack"
    ids: frozenset[tuple[int, int]]


class SelfStabilizingAlwaysTerminating(SnapshotAlgorithm):
    """Algorithm 3; δ comes from ``config.delta`` (∞ = UNBOUNDED_DELTA)."""

    SELF_STABILIZING = True

    def __init__(
        self,
        node_id: int,
        kernel: Kernel,
        network: Any,
        config: ClusterConfig,
    ) -> None:
        super().__init__(node_id, kernel, network, config)
        self.register_handler(SnapshotMessage3.KIND, self._on_snapshot_query)
        self.register_handler(SaveMessage.KIND, self._on_save)
        self.register_handler(GossipMessage3.KIND, self._on_gossip)

    def initialize_state(self) -> None:
        """Line 68 (optional in the self-stabilizing context)."""
        super().initialize_state()
        self.ssn: int = 0
        self.sns: int = 0
        self.write_pending: Any = None
        self.pnd_tsk: list[PendingTask] = [
            PendingTask() for _ in range(self.config.n)
        ]
        self._changed = self.kernel.create_event()
        #: Observability hook: callables invoked as ``listener(process,
        #: foreign_tasks)`` when a baseSnapshot call starts serving a
        #: *foreign* task — i.e. a write-blocking helping episode begins;
        #: ``foreign_tasks`` is the [(owner, sns), …] being helped.
        #: Used by experiment E11.
        self.helping_listeners: list = []
        self.helping_episodes: int = 0

    # -- macros (lines 69–72) --------------------------------------------------------

    def vc_now(self) -> tuple[int, ...]:
        """Line 69: the vector-clock view of ``reg`` (timestamps only)."""
        return self.reg.vector_clock()

    def _writes_observed_since(self, vc: tuple[int, ...]) -> float:
        """Σ_ℓ VC[ℓ] − vc[ℓ]: writes observed since the sample ``vc``."""
        return sum(self.vc_now()) - sum(vc)

    def delta_set(self) -> dict[int, TaskDescriptor]:
        """Line 70: the set Δ of snapshot tasks eligible for service now.

        A task of another node ``k`` is eligible when unresolved and
        either δ = 0 (serve everything, Algorithm 2 style) or at least δ
        writes were observed since its ``vc`` sample.  The node's own
        unresolved task is always eligible.  Tasks with ``sns = 0`` never
        exist legitimately (operation indices start at 1), so they are
        excluded — matching the ``sns > 0`` guards in the paper.
        """
        delta = self.config.delta
        eligible: dict[int, TaskDescriptor] = {}
        for k, task in enumerate(self.pnd_tsk):
            if task.fnl is not None or task.sns <= 0:
                continue
            if k == self.node_id:
                eligible[k] = TaskDescriptor(k, task.sns, task.vc)
                continue
            if delta == 0:
                eligible[k] = TaskDescriptor(k, task.sns, task.vc)
            elif (
                task.vc is not None
                and delta <= self._writes_observed_since(task.vc)
            ):
                eligible[k] = TaskDescriptor(k, task.sns, task.vc)
        return eligible

    async def safe_reg(self, entries: list[tuple[int, int, RegisterArray]]) -> None:
        """Line 71: store results in the emulated safe register.

        Broadcast ``SAVE(A)`` until a majority acknowledges exactly the
        ids in ``A`` — a majority intersection then guarantees any future
        reader of the task encounters the result.
        """
        ids = frozenset((k, s) for (k, s, _r) in entries)
        wire_entries = tuple(entries)

        def matches(sender: int, msg: Message) -> bool:
            return msg.ids == ids

        with AckCollector(
            self, SaveAckMessage.KIND, self.majority, match=matches
        ) as collector:
            await broadcast_until(
                self, lambda: SaveMessage(entries=wire_entries), collector
            )

    # -- change notification ------------------------------------------------------------

    def _notify(self) -> None:
        self._changed.set()

    async def _wait_until(self, condition: Callable[[], bool]) -> None:
        while not condition():
            self._changed.clear()
            await self._changed.wait()

    # -- the do-forever loop (lines 73–80) ------------------------------------------------

    async def do_forever_iteration(self) -> None:
        """Cleanup, gossip, then serve pending write and eligible tasks."""
        # Line 74: stale SNAPSHOTack replies are structurally discarded —
        # collectors filter on the current ssn and store nothing else.
        # Line 75: heal the operation indices from local evidence.  Each
        # branch fires only when the cleanup actually changed state — a
        # corrupted-state detection, counted for E7/E8.
        obs = self.obs
        reg_ts = self.reg[self.node_id].ts
        if self.ts < reg_ts:
            self.ts = reg_ts
            if obs is not None:
                obs.ts_heals += 1
        task_sns = self.pnd_tsk[self.node_id].sns
        if self.sns < task_sns:
            self.sns = task_sns
            if obs is not None:
                obs.sns_heals += 1
        # Line 76: clear vector clocks that could not have been sampled
        # from any past register state (they exceed the current VC).
        vc = self.vc_now()
        for task in self.pnd_tsk:
            if task.vc is not None and any(
                sample > current for sample, current in zip(task.vc, vc)
            ):
                task.vc = None
                if obs is not None:
                    obs.vc_clears += 1
        # Line 77: re-assert the own-task invariant sns = pndTsk[i].sns.
        mine = self.pnd_tsk[self.node_id]
        if self.sns != mine.sns:
            self.pnd_tsk[self.node_id] = PendingTask(sns=self.sns)
            if obs is not None:
                obs.task_repairs += 1
            self._notify()
        # Line 78: gossip each peer its own entry and task index.
        for peer in self.peers():
            self.send(
                peer,
                GossipMessage3(
                    entry=self.reg[peer],
                    task_sns=self.pnd_tsk[peer].sns,
                ),
            )
        # Line 79: serve the pending write task first.
        if self.write_pending is not None:
            value = self.write_pending
            await self.base_write(value)
            self.write_pending = None
            self._notify()
        # Line 80: serve every currently eligible snapshot task.  The
        # sample S is a set of (node, sns) task identities: the paper's
        # S ∩ Δ intersects *triples*, so a task whose sns advances while
        # being served drops out of the served set — otherwise a view
        # computed for task s could be stored as the result of the newer
        # task s+1, which would violate real-time order.
        eligible = self.delta_set()
        if eligible:
            await self.base_snapshot(
                frozenset(
                    (k, descriptor.sns) for k, descriptor in eligible.items()
                )
            )

    # -- operations (lines 81–83) ------------------------------------------------------------

    async def write(self, value: Any) -> int:
        """Line 81: deposit the value; the loop's baseWrite serves it."""
        self._begin_operation("write")
        try:
            self.write_pending = value
            if self.obs is not None:
                self.obs.phase("write.deposited")
            self._notify()
            await self._wait_until(lambda: self.write_pending is None)
            return self.reg[self.node_id].ts
        finally:
            self._end_operation("write")

    async def snapshot(self) -> SnapshotResult:
        """Lines 82–83: register the task, wait for its final result."""
        self._begin_operation("snapshot")
        try:
            self.sns += 1
            self.pnd_tsk[self.node_id] = PendingTask(sns=self.sns)
            if self.obs is not None:
                self.obs.phase("snapshot.task_registered")
            self._notify()
            mine = lambda: self.pnd_tsk[self.node_id]  # noqa: E731
            await self._wait_until(lambda: mine().fnl is not None)
            return SnapshotResult.from_registers(mine().fnl)
        finally:
            self._end_operation("snapshot")

    # -- baseSnapshot (lines 85–94) --------------------------------------------------------------

    def _served_now(
        self, sampled: frozenset[tuple[int, int]]
    ) -> dict[int, TaskDescriptor]:
        """The dynamic ``S ∩ Δ``: sampled task identities still eligible.

        Matches on ``(node, sns)`` so a task superseded by a newer
        invocation (higher sns) leaves the served set immediately.
        """
        return {
            k: descriptor
            for k, descriptor in self.delta_set().items()
            if (k, descriptor.sns) in sampled
        }

    async def base_snapshot(self, sampled: frozenset[tuple[int, int]]) -> None:
        """Serve the sampled tasks until none remains eligible here.

        The outer loop runs query rounds; an interference-free round
        (``prev = reg``) resolves every still-eligible sampled task with
        one ``safeReg`` call (many-jobs stealing).  An interfered round
        samples the vector clock into the own task's ``vc`` (line 93),
        which is what lets other nodes count concurrent writes against δ.
        The outer loop exits early once only the own task remains and δ
        concurrent writes have been observed — control returns to the
        do-forever loop, where every node's Δ now includes the task and
        the cluster-wide helping scheme finishes it (Theorem 3).
        """
        i = self.node_id
        episode_reported = False
        while True:
            foreign = [
                (k, self.pnd_tsk[k].sns)
                for k in self._served_now(sampled)
                if k != i
            ]
            if not episode_reported and foreign:
                episode_reported = True
                self.helping_episodes += 1
                for listener in self.helping_listeners:
                    listener(self, foreign)
            self.ssn += 1
            prev = self.reg.copy()
            await self._query_round(sampled)
            served = self._served_now(sampled)
            if prev == self.reg and served:
                await self.safe_reg(
                    [
                        (k, self.pnd_tsk[k].sns, prev.copy())
                        for k in sorted(served)
                    ]
                )
            elif i in served and self.pnd_tsk[i].vc is None:
                self.pnd_tsk[i].vc = self.vc_now()
                if self.obs is not None:
                    self.obs.phase("snapshot.interference_observed")
            # Line 94: the outer until.
            served = self._served_now(sampled)
            if not served:
                return
            if set(served) == {i}:
                mine = self.pnd_tsk[i]
                if (
                    mine.sns > 0
                    and mine.fnl is None
                    and mine.vc is not None
                    and self.config.delta <= self._writes_observed_since(mine.vc)
                ):
                    if self.obs is not None:
                        self.obs.phase("snapshot.delegated")
                    return

    async def _query_round(self, sampled: frozenset[int]) -> None:
        """Lines 87–90: one ``repeat broadcast SNAPSHOT until …`` round.

        Ends when the served set empties (results arrived via SAVE) or a
        majority of ssn-matching acks arrived; then merges the replies.
        """

        def matches(sender: int, msg: Message) -> bool:
            return msg.ssn == self.ssn

        interval = self.config.retransmit_interval
        next_send = -math.inf
        with AckCollector(
            self, SnapshotAckMessage3.KIND, self.majority, match=matches
        ) as collector:
            while True:
                served = self._served_now(sampled)
                if not served or collector.satisfied:
                    break
                await self.gate.passthrough()
                # Re-broadcast at most once per retransmit interval; wakes
                # in between (SAVE arrivals shrinking the served set, acks)
                # only re-evaluate the exit conditions.
                now = self.kernel.now
                if now >= next_send:
                    if next_send != -math.inf and self.obs is not None:
                        # Re-broadcasts after the first are retransmissions,
                        # same accounting as quorum.broadcast_until.
                        self.obs.retransmit()
                    self.broadcast(
                        SnapshotMessage3(
                            tasks=tuple(served[k] for k in sorted(served)),
                            reg=self.reg.copy(),
                            ssn=self.ssn,
                        )
                    )
                    next_send = now + interval
                self._changed.clear()
                await self.kernel.first_of(
                    collector.wait(),
                    self._changed.wait(),
                    timeout=max(next_send - self.kernel.now, 0.0) or interval,
                )
            replies = collector.reply_messages()
        self.merge(msg.reg for msg in replies)

    # -- server side (lines 95–107) -----------------------------------------------------------------

    def _on_save(self, sender: int, message: SaveMessage) -> None:
        """Lines 95–97: adopt newer results, acknowledge the stored ids."""
        for k, s, result in message.entries:
            task = self.pnd_tsk[k]
            if task.sns < s or (task.sns == s and task.fnl is None):
                task.sns = s
                task.fnl = result
        self.send(
            sender,
            SaveAckMessage(
                ids=frozenset((k, s) for (k, s, _r) in message.entries)
            ),
        )
        self._notify()

    def _on_gossip(self, sender: int, message: GossipMessage3) -> None:
        """Lines 98–99: merge own entry; absorb operation indices."""
        i = self.node_id
        obs = self.obs
        if obs is not None:
            # In a legitimate execution our own entry and sns are always
            # at least as fresh as any peer's view of them, so either
            # comparison firing means gossip is healing corrupted state.
            if message.entry.ts > self.reg[i].ts:
                obs.ts_heals += 1
            if message.task_sns > self.sns:
                obs.sns_heals += 1
        self.reg.merge_entry(i, message.entry)
        self.ts = max(self.ts, self.reg[i].ts)
        self.sns = max(self.sns, message.task_sns)

    def _on_snapshot_query(self, sender: int, message: SnapshotMessage3) -> None:
        """Lines 103–107: merge, adopt task descriptors, ack, and help."""
        self.reg.merge_from(message.reg)
        for descriptor in message.tasks:
            if not 0 <= descriptor.node < self.config.n or descriptor.sns <= 0:
                continue  # corrupted descriptor; ignore
            task = self.pnd_tsk[descriptor.node]
            if task.sns < descriptor.sns or (
                task.sns == descriptor.sns
                and task.vc is None
                and task.fnl is None
            ):
                self.pnd_tsk[descriptor.node] = PendingTask(
                    sns=descriptor.sns, vc=descriptor.vc
                )
        # Line 106: collect results we already hold for the queried tasks.
        help_entries = [
            (d.node, self.pnd_tsk[d.node].sns, self.pnd_tsk[d.node].fnl)
            for d in message.tasks
            if 0 <= d.node < self.config.n
            and self.pnd_tsk[d.node].fnl is not None
        ]
        self.send(
            sender, SnapshotAckMessage3(reg=self.reg.copy(), ssn=message.ssn)
        )
        if help_entries:
            self.send(sender, SaveMessage(entries=tuple(help_entries)))
        self._notify()

    def _on_write(self, sender: int, message: Message) -> None:
        """Write handler (lines 100–102) — as base, plus Δ re-evaluation."""
        super()._on_write(sender, message)
        self._notify()

    def merge(self, received: Iterable[RegisterArray]) -> None:
        """Line 72's merge; register growth may change Δ, so notify."""
        super().merge(received)
        self._notify()

    def merge_entry(self, j: int, entry: TimestampedValue) -> None:
        """A read's single-entry merge grows ``reg`` too; same notify."""
        super().merge_entry(j, entry)
        self._notify()

    @property
    def delta(self) -> float:
        """The configured δ (``math.inf`` disables write blocking)."""
        return self.config.delta

    def is_unbounded_delta(self) -> bool:
        """Whether δ = ∞ (Algorithm 1-like behaviour)."""
        return math.isinf(self.config.delta)
