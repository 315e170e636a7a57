"""The paper's Algorithm 3: self-stabilizing always-terminating snapshot.

Differences from the Algorithm 2 baseline, following Section 4:

* **Bounded task state.**  Instead of the unbounded ``repSnap`` table,
  each node keeps one :class:`PendingTask` entry per node —
  ``pndTsk[k] = (sns, vc, fnl)`` — holding the most recent snapshot task
  it knows of node ``k``: its index ``sns``, the vector clock ``vc``
  sampled when the task was first observed to be interfered with, and the
  final result ``fnl`` (or ``⊥`` while running).
* **No reliable broadcast.**  Task results are delivered through an
  emulated *safe register*: the finisher stores them and re-broadcasts
  ``SAVE`` until a majority sends ``SAVEack`` (``safeReg``, line 71); any
  node holding a result for a task it sees queried forwards it (line
  107).  The paper's finisher waits for that majority; here the node's
  outbox (:class:`~repro.net.outbox.Outbox`) re-sends the ``SAVE``
  (``save_results``), so the do-forever loop goes on to line 79's write
  while the acks are still on their way.
* **The δ knob.**  Other nodes join ("steal") a task only after observing
  at least δ write operations concurrent with it (measured as growth of
  the register vector clock since the task's ``vc`` sample).  ``δ = 0``
  reproduces Algorithm 2's always-blocking O(n²)-message behaviour;
  ``δ = ∞`` reproduces Algorithm 1's O(n)-message non-blocking behaviour;
  finite ``δ > 0`` buys an O(δ)-cycle termination bound (Theorem 3) at
  O(n) messages per uncontended snapshot.
* **Many-jobs stealing.**  A single run of ``baseSnapshot`` serves *all*
  currently eligible tasks (the set Δ, line 70): one interference-free
  round resolves every one of them with a single ``safeReg`` hand-off.
* **Work wakes the loop; state changes wake only whom they concern.**
  The paper runs the do-forever loop back to back; here it sleeps
  ``gossip_interval`` between iterations, and a write deposit or a newly
  registered snapshot task ends that sleep
  (:meth:`~repro.net.node.Process.wake`), so line 79 or line 80 serves
  it in the next iteration rather than after the rest of a tick.  The
  waits on the node's state — line 83's ``wait until pndTsk[i].fnl ≠ ⊥``
  and the query round's exit once the served set empties — are watches
  (:class:`~repro.net.quorum.Watches`): every handler that may change
  the state tests them inline, and only a wait whose condition now holds
  resumes.
* **Self-stabilization.**  The do-forever loop discards stale acks,
  re-asserts index consistency (``ts``, ``sns``), clears illogical vector
  clocks and corrupted own-task entries, and gossips register timestamps
  and task indices — giving the O(1)-cycle recovery of Theorem 2.  As in
  Algorithm 1 (:mod:`repro.core.ss_nonblocking`), a register entry
  itself travels only when its owner is behind and pulls it, and
  requests stand in for digests under Algorithm 1's rule
  (:class:`~repro.core.ss_nonblocking.RequestEvidence`) with an ``sns``
  half added: ``WRITE`` and ``SNAPSHOT`` also name the sender's own
  ``sns``, and while an operation is in flight a tick skips the digest
  to ``p_k`` when requests since the last tick named ``p_k``'s current
  ``reg[k].ts`` and, from ``p_k``, an ``sns`` at least ``pndTsk[k].sns``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.core.base import DepositedWrites, SnapshotResult, WriteMessage
from repro.core.register import AckItem, RegisterArray, TimestampedValue
from repro.core.ss_nonblocking import GossipPullMessage, RequestEvidence
from repro.net.message import Message

__all__ = [
    "SelfStabilizingAlwaysTerminating",
    "PendingTask",
    "TaskDescriptor",
    "GossipMessage3",
    "SnapshotMessage3",
    "WriteMessage3",
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
    """``GOSSIP(ts, entry, pndTsk[k].sns)`` to node k (line 78).

    Carries the timestamp of the *receiver's* own register entry, and the
    entry itself only in the answer to a ``GOSSIPpull`` (``None`` in the
    do-forever digest, a constant-size message), plus the sender's view
    of the *receiver's* snapshot-task index.  The receiver absorbs both
    maxima, healing a corrupted-low ``ts`` and ``sns`` (the paper's
    ``max{sns, snsJ}`` on line 99; Definition 1(iii) requires
    ``pndTsk_j[i].sns ≤ sns_i``, so the gossiped index must be the
    sender's view of the receiver's task, not the sender's own counter —
    absorbing the sender's own ``sns`` would manufacture phantom tasks at
    every peer).  While an operation is in flight the digest is skipped
    where requests since the last tick already said both halves
    (:meth:`SelfStabilizingAlwaysTerminating.stands_in`).
    """

    KIND = "GOSSIP"
    ts: int
    entry: TimestampedValue | None
    task_sns: int


@dataclass(frozen=True)
class SnapshotMessage3(Message):
    """``SNAPSHOT(S ∩ Δ, reg, ssn)``: query carrying the served tasks.

    ``reg`` is request items
    (:meth:`~repro.core.base.SnapshotAlgorithm.request_items`).  ``sns``
    is the sender's own task index, as in :class:`WriteMessage3`.
    """

    KIND = "SNAPSHOT"
    tasks: tuple[TaskDescriptor, ...]
    reg: tuple[AckItem, ...]
    ssn: int
    sns: int


@dataclass(frozen=True)
class WriteMessage3(WriteMessage):
    """Algorithm 3's ``WRITE(lReg)``, also naming the sender's own ``sns``.

    With it a request from ``p_k`` shows its receiver both halves of the
    digest that receiver would send ``p_k`` (:class:`GossipMessage3`),
    so the receiver's next tick may skip that digest.
    """

    sns: int


@dataclass(frozen=True)
class SnapshotAckMessage3(Message):
    """``SNAPSHOTack(reg, ssn)`` (line 107), ``reg`` relative to the query."""

    KIND = "SNAPSHOTack"
    reg: tuple[AckItem, ...]
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


class SelfStabilizingAlwaysTerminating(RequestEvidence, DepositedWrites):
    """Algorithm 3; δ comes from ``config.delta`` (∞ = UNBOUNDED_DELTA)."""

    SELF_STABILIZING = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.register_handler(SnapshotMessage3.KIND, self._on_snapshot_query)
        self.register_handler(SaveMessage.KIND, self._on_save)
        self.register_handler(SaveAckMessage.KIND, self._on_save_ack)
        self.register_handler(GossipMessage3.KIND, self._on_gossip)
        self.register_handler(GossipPullMessage.KIND, self._on_gossip_pull)

    def initialize_state(self) -> None:
        """Line 68 (optional in the self-stabilizing context)."""
        super().initialize_state()
        self.ssn: int = 0
        self.sns: int = 0
        self.pnd_tsk: list[PendingTask] = [
            PendingTask() for _ in range(self.config.n)
        ]
        self.outbox.drop(SaveMessage.KIND)  # results still owed a majority
        #: Observability hook: callables invoked as ``listener(process,
        #: foreign_tasks)`` when a baseSnapshot call starts serving a
        #: *foreign* task — i.e. a write-blocking helping episode begins;
        #: ``foreign_tasks`` is the [(owner, sns), …] being helped.
        #: Used by experiment E11.
        self.helping_listeners: list = []

    # -- requests stand in for digests (the sns half) ------------------------------

    def forget_evidence(self) -> None:
        """Also empties ``_heard_sns``: peer ``k`` → the largest ``sns``
        its requests since the last tick named."""
        super().forget_evidence()
        self._heard_sns: dict[int, int] = {}

    def stands_in(self, k: int) -> bool:
        """Both halves of the digest to ``p_k`` were said since the last tick.

        The ``ts`` half is Algorithm 1's.  The ``sns`` half: a request from
        ``p_k`` named an ``sns`` at least ``pndTsk[k].sns``.  Outside a
        fault ``sns_k`` only grows, so ``p_k``'s ``max{sns, snsJ}`` (line
        99) would change nothing, and Definition 1(iii)'s ``pndTsk[k].sns
        ≤ sns_k`` already holds for this node's view.
        """
        return (
            super().stands_in(k)
            and self._heard_sns.get(k, -1) >= self.pnd_tsk[k].sns
        )

    def heard_request(self, sender: int, message: Message) -> None:
        """Note the own entry and the own ``sns`` ``p_sender``'s request named.

        A ``WRITE`` of the shared base class names no ``sns``: it shows
        the ``ts`` half only.
        """
        super().heard_request(sender, message)
        sns = getattr(message, "sns", None)
        if sns is not None and sender != self.node_id:
            if self._heard_sns.get(sender, -1) < sns:
                self._heard_sns[sender] = sns

    def write_request(self, items: tuple[AckItem, ...]) -> WriteMessage3:
        """A ``WRITE`` naming this node's own ``sns`` too."""
        return WriteMessage3(reg=items, sns=self.sns)

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

    def save_results(self, entries: list[tuple[int, int, RegisterArray]]) -> None:
        """Line 71: store results in the emulated safe register.

        Each result is stored here first, by the rule a SAVE arriving
        from elsewhere follows, and sent to the other nodes at once; the
        node's outbox then owes ``(k, s, r)`` to ``majority − 1`` peers
        (key ``("SAVE", k)``) and re-sends it every retransmit interval,
        one ``SAVE`` per peer, to those yet to acknowledge it.  A majority
        intersection then guarantees any future reader of the task
        encounters the result.  The paper's finisher waits for that
        majority; this one returns at once, so the do-forever loop serves
        the next write during the round trip.  A newer result for an
        owner replaces an older one still owed: that owner has moved past
        the older task.
        """
        for k, s, result in entries:
            self._store_result(k, s, result)
        self._notify()
        self.broadcast(SaveMessage(entries=tuple(entries)), include_self=False)
        for k, s, result in entries:
            key = (SaveMessage.KIND, k)
            owed = self.outbox.entries.get(key)
            if owed is None or owed.item[1] < s:
                self.outbox.post(key, (k, s, result), self.majority - 1, SaveMessage)

    def owed_saves(self) -> list[tuple[int, int, RegisterArray]]:
        """The results ``(k, s, r)`` the outbox still owes, by owner."""
        entries = self.outbox.entries
        return [entries[key].item for key in self.outbox.keys(SaveMessage.KIND)]

    # -- the do-forever loop (lines 73–80) ------------------------------------------------

    async def do_forever_iteration(self) -> None:
        """Cleanup, gossip, then serve pending write and eligible tasks."""
        # Line 74: stale SNAPSHOTack replies are structurally discarded —
        # collectors filter on the current ssn and store nothing else.
        # Line 75: heal the operation indices from local evidence.  Each
        # branch fires only when the cleanup actually changed state — a
        # corrupted-state detection, counted for E7/E8.  A detection on
        # lines 75–77 also voids the digest-skip evidence, which the same
        # fault may have written: this tick gossips to every peer.
        obs = self.obs
        reg_ts = self.reg[self.node_id].ts
        if self.ts < reg_ts:
            self.ts = reg_ts
            self.forget_evidence()
            if obs is not None:
                obs.ts_heals += 1
        task_sns = self.pnd_tsk[self.node_id].sns
        if self.sns < task_sns:
            self.sns = task_sns
            self.forget_evidence()
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
                self.forget_evidence()
                if obs is not None:
                    obs.vc_clears += 1
        # Line 77: re-assert the own-task invariant sns = pndTsk[i].sns.
        mine = self.pnd_tsk[self.node_id]
        if self.sns != mine.sns:
            self.pnd_tsk[self.node_id] = PendingTask(sns=self.sns)
            self.forget_evidence()
            if obs is not None:
                obs.task_repairs += 1
            self._notify()
        # Line 78: gossip each peer its own entry's timestamp and task index,
        # but for the peers requests since the last tick told both already.
        for peer in self.digest_peers():
            self.send(
                peer,
                GossipMessage3(
                    ts=self.reg[peer].ts,
                    entry=None,
                    task_sns=self.pnd_tsk[peer].sns,
                ),
            )
        # Line 79: serve the pending write task first.
        await self.serve_write()
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

    # -- operations (lines 81–83; the write is DepositedWrites') ------------------

    async def snapshot(self) -> SnapshotResult:
        """Lines 82–83: register the task, wait for its final result.

        Registering wakes the do-forever loop, as a write deposit does:
        line 80 serves the task in the next iteration, not after the
        rest of a gossip period.
        """
        with self.operation("snapshot"):
            self.sns += 1
            self.pnd_tsk[self.node_id] = PendingTask(sns=self.sns)
            if self.obs is not None:
                self.obs.phase("snapshot.task_registered")
            self._notify()
            self.wake()
            mine = lambda: self.pnd_tsk[self.node_id]  # noqa: E731
            await self._wait_until(lambda: mine().fnl is not None)
            return SnapshotResult.from_registers(mine().fnl)

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

        The outer loop runs query rounds; an interference-free round (a
        majority of its replies reported exactly ``prev``, the equivalence
        quorum that the paper's ``prev = reg`` implies) resolves every
        still-eligible sampled task with ``prev`` in one ``safeReg``
        hand-off (many-jobs stealing), which does not wait for the SAVE
        acks.  An interfered round samples the vector clock into the own
        task's ``vc`` (line 93), which is what lets other nodes count
        concurrent writes against δ.
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
                for listener in self.helping_listeners:
                    listener(self, foreign)
            self.ssn += 1
            prev = self.reg.copy()
            replies = await self._query_round(sampled)
            served = self._served_now(sampled)
            if served and self.equivalence_quorum(prev, replies):
                self.save_results(
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

    async def _query_round(
        self, sampled: frozenset[tuple[int, int]]
    ) -> list[tuple[AckItem, ...]]:
        """Lines 87–90: one ``repeat broadcast SNAPSHOT until …`` round.

        Ends when the served set empties (results arrived via SAVE; a
        watch tests that at each state change) or the ssn-matching acks
        decide the round
        (:meth:`~repro.core.base.SnapshotAlgorithm.query_collector`), or
        at the first retransmission instant that finds a majority of them
        undecided; then merges the replies and returns their ack items —
        possibly fewer than a majority in the first case.
        """

        def matches(sender: int, msg: Message) -> bool:
            return msg.ssn == self.ssn

        def query() -> SnapshotMessage3:
            served = self._served_now(sampled)
            return SnapshotMessage3(
                tasks=tuple(served[k] for k in sorted(served)),
                reg=self.request_items(self.reg),
                ssn=self.ssn,
                sns=self.sns,
            )

        def wanted() -> bool:
            return bool(self._served_now(sampled))

        return await self.query_round(
            SnapshotAckMessage3.KIND,
            matches,
            query,
            watches=self.watches,
            wanted=wanted,
        )

    # -- server side (lines 95–107) -----------------------------------------------------------------

    def _store_result(self, k: int, s: int, result: RegisterArray) -> None:
        """Line 96: adopt the result of task ``(k, s)`` unless it is stale."""
        task = self.pnd_tsk[k]
        if task.sns < s or (task.sns == s and task.fnl is None):
            task.sns = s
            task.fnl = result

    def _on_save(self, sender: int, message: SaveMessage) -> None:
        """Lines 95–97: adopt newer results, acknowledge the stored ids."""
        for k, s, result in message.entries:
            self._store_result(k, s, result)
        self.send(
            sender,
            SaveAckMessage(
                ids=frozenset((k, s) for (k, s, _r) in message.entries)
            ),
        )
        self._notify()

    def _on_save_ack(self, sender: int, message: SaveAckMessage) -> None:
        """Count an acknowledgment toward each owed result it names."""
        named = [
            key
            for key, entry in self.outbox.entries.items()
            if key[0] == SaveMessage.KIND and (key[1], entry.item[1]) in message.ids
        ]
        self.outbox.ack(sender, named)

    def _on_gossip(self, sender: int, message: GossipMessage3) -> None:
        """Lines 98–99: absorb operation indices; pull or merge own entry."""
        i = self.node_id
        obs = self.obs
        # In a legitimate execution our own entry and sns are always at
        # least as fresh as any peer's view of them, so either comparison
        # firing means gossip is healing corrupted state.
        if obs is not None and message.task_sns > self.sns:
            obs.sns_heals += 1
        self.sns = max(self.sns, message.task_sns)
        if message.entry is None:
            if message.ts > self.reg[i].ts:
                if obs is not None:
                    obs.ts_heals += 1
                self.send(sender, GossipPullMessage())
            self.ts = max(self.ts, message.ts)
            return
        self.reg.merge_entry(i, message.entry)
        self.ts = max(self.ts, message.ts, self.reg[i].ts)

    def _on_gossip_pull(self, sender: int, message: GossipPullMessage) -> None:
        """Answer a pull with the full entry the sender is behind on."""
        entry = self.reg[sender]
        self.send(
            sender,
            GossipMessage3(
                ts=entry.ts, entry=entry, task_sns=self.pnd_tsk[sender].sns
            ),
        )

    def _on_snapshot_query(self, sender: int, message: SnapshotMessage3) -> None:
        """Lines 103–107: merge, adopt task descriptors, ack, and help."""
        self.reg.merge_items(message.reg)
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
            sender,
            SnapshotAckMessage3(reg=self.reg.reply_to(message.reg), ssn=message.ssn),
        )
        if help_entries:
            self.send(sender, SaveMessage(entries=tuple(help_entries)))
        self.heard_request(sender, message)
        self._notify()

    def _on_write(self, sender: int, message: Message) -> None:
        """Write handler (lines 100–102) — as base, plus Δ re-evaluation."""
        super()._on_write(sender, message)
        self._notify()

    def merge(self, received: Iterable[tuple[AckItem, ...]]) -> None:
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
