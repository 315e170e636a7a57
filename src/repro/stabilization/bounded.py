"""Bounded-counter variants of Algorithms 1 and 3 (paper Section 5).

Wraps the self-stabilizing algorithms with the MAXINT → global-reset
transformation:

* every algorithm message travels inside an :class:`EpochEnvelope`;
  envelopes from other epochs are dropped, so stale pre-reset indices
  cannot re-poison a reset node;
* when any local operation index reaches ``config.max_int`` the node
  raises a ``RESET_ALERT``, stops admitting operations, and votes its
  maximal state in a ``RESET_JOIN``;
* the commit is decided by the self-stabilizing consensus layer
  (:mod:`repro.consensus`): every node that has collected a majority of
  join votes proposes the pointwise join of those votes for the
  instance ``("reset", epoch)``, and the decided merge is installed —
  indices restart at 0, register *values* survive.  A majority merge
  suffices because a completed write reached a majority of registers,
  so quorum intersection puts its value in every majority's join.  The
  reset therefore terminates despite any minority of crashes — in
  particular the crash of the PR-5 sketch's fixed coordinator, which is
  still available as ``config.reset_mode = "coordinator"`` for the
  regression tests and the E20 comparison;
* operations invoked or in flight during the reset window abort with
  :class:`~repro.errors.ResetInProgressError` — the bounded abort the
  paper's criteria explicitly permit during the seldom reset.

Stragglers (nodes that slept through the agreement, or whose consensus
state was corrupted into a wrong decision) catch up through commit
replay: a node that already moved to a newer epoch answers any stale
``RESET_ALERT``/``RESET_JOIN`` with its last applied
``RESET_COMMIT``, and commits for *newer* epochs are accepted while a
node is resetting or overflowed — so reset liveness never depends on
the consensus instance converging at every single node.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.core import ConsensusEndpoint
from repro.consensus.messages import (
    CsBdecMessage,
    CsDecideMessage,
    CsProposalMessage,
    CsRbAckMessage,
    CsRbDataMessage,
    CsVoteMessage,
)
from repro.core.base import SnapshotResult
from repro.core.register import RegisterArray, TimestampedValue
from repro.core.ss_always import PendingTask, SelfStabilizingAlwaysTerminating
from repro.core.ss_nonblocking import SelfStabilizingNonBlocking
from repro.errors import ResetInProgressError
from repro.net.message import Message
from repro.stabilization.reset import (
    EpochEnvelope,
    ResetAlertMessage,
    ResetCommitAckMessage,
    ResetCommitMessage,
    ResetJoinMessage,
)

__all__ = [
    "BoundedSelfStabilizingNonBlocking",
    "BoundedSelfStabilizingAlwaysTerminating",
]

#: Message types that travel *outside* the epoch envelope.  Reset
#: messages must cross epochs by design; so must the whole consensus
#: stream — the instance that decides epoch ``e + 1`` necessarily spans
#: the ``e → e + 1`` boundary.
_RESET_MESSAGE_TYPES = (
    EpochEnvelope,
    ResetAlertMessage,
    ResetJoinMessage,
    ResetCommitMessage,
    ResetCommitAckMessage,
    CsRbDataMessage,
    CsRbAckMessage,
    CsProposalMessage,
    CsVoteMessage,
    CsBdecMessage,
    CsDecideMessage,
)


def _reset_validator(expected_epoch: int, n: int):
    """Well-formedness check for a reset decision ``(new_epoch, values)``.

    Installed as the consensus instance's validator, so a transiently
    corrupted proposal (or decided value) is purged by the consensus
    layer's healing instead of being installed as the next epoch.  The
    validator is *code*, not state — corruption cannot reach it.
    """

    def validate(value: Any) -> bool:
        if not isinstance(value, tuple) or len(value) != 2:
            return False
        new_epoch, values = value
        if not isinstance(new_epoch, int) or new_epoch != expected_epoch:
            return False
        if not isinstance(values, RegisterArray):
            return False
        try:
            entries = list(values)
        except Exception:  # noqa: BLE001 - corrupt payloads iterate badly
            return False
        return len(entries) == n and all(
            isinstance(entry, TimestampedValue) for entry in entries
        )

    return validate


class _BoundedCounterMixin:
    """The MAXINT/epoch/global-reset machinery shared by both variants.

    Subclasses provide :meth:`_max_local_index` (overflow detection) and
    :meth:`_apply_index_reset` (zero the indices, keep the values).
    """

    def initialize_state(self) -> None:
        super().initialize_state()
        self.epoch: int = 0
        self.resetting: bool = False
        self.resets_completed: int = 0
        self._join_votes: dict[int, RegisterArray] = {}
        self._commit_acks: set[int] = set()
        self._pending_commit: ResetCommitMessage | None = None
        self._last_commit: ResetCommitMessage | None = None
        self._reset_proposed: bool = False
        endpoint = getattr(self, "consensus", None)
        if isinstance(endpoint, ConsensusEndpoint):
            # Detectable restart: consensus instance state is volatile.
            endpoint.reinitialize()

    def _install_reset_handlers(self) -> None:
        self.register_handler(ResetAlertMessage.KIND, self._on_reset_alert)
        self.register_handler(ResetJoinMessage.KIND, self._on_reset_join)
        self.register_handler(ResetCommitMessage.KIND, self._on_reset_commit)
        self.register_handler(
            ResetCommitAckMessage.KIND, self._on_reset_commit_ack
        )
        if self.config.reset_mode == "consensus":
            ConsensusEndpoint.ensure(self).add_listener(
                self._on_consensus_decide
            )

    # -- variant hooks ---------------------------------------------------------

    def _max_local_index(self) -> int:
        """The largest operation index anywhere in this node's state."""
        return max(self.ts, self.ssn, self.tag, self.reg.max_timestamp())

    def _apply_index_reset(self, values: RegisterArray) -> None:
        """Install the agreed values with all indices back at 0."""
        for k in range(self.config.n):
            self.reg[k] = TimestampedValue(0, values[k].value)
        self.ts = 0
        self.ssn = 0
        self.tag = 0

    # -- epoch envelope ------------------------------------------------------------

    def send(self, dst: int, message: Message) -> None:
        """Wrap algorithm traffic in the current epoch; reset traffic is bare."""
        if isinstance(message, _RESET_MESSAGE_TYPES):
            super().send(dst, message)
        else:
            super().send(dst, EpochEnvelope(epoch=self.epoch, inner=message))

    def deliver(self, sender: int, message: Message) -> None:
        """Unwrap envelopes, dropping those from other epochs.

        A skewed envelope is also the epoch *catch-up* signal.  A node
        that restarts (or sleeps through a reset) wakes up in an old
        epoch; without catch-up it would drop every peer's traffic and
        peers would drop its own — a permanent wedge.  So: traffic from
        a behind sender is answered with the commit that ended its
        epoch, and traffic from an ahead sender triggers a bare alert
        carrying our stale epoch, which that sender answers the same
        way (see :meth:`_on_reset_alert` / :meth:`_replay_commit`).
        """
        if isinstance(message, EpochEnvelope):
            if self.crashed:
                return
            epoch = message.epoch
            if epoch == self.epoch:
                super().deliver(sender, message.inner)
            elif isinstance(epoch, int) and epoch < self.epoch:
                self._replay_commit(sender, epoch)
            elif isinstance(epoch, int) and not self.resetting:
                self.send(sender, ResetAlertMessage(epoch=self.epoch))
            return
        super().deliver(sender, message)

    # -- the reset do-forever ----------------------------------------------------------

    @property
    def _coordinator(self) -> int:
        return 0

    async def do_forever_iteration(self) -> None:
        if not self.resetting and self._max_local_index() >= self.config.max_int:
            self._enter_reset()
        if self.resetting:
            # Step 1: alert everyone and vote the maximal local state.
            self.broadcast(
                ResetAlertMessage(epoch=self.epoch), include_self=False
            )
            join = ResetJoinMessage(epoch=self.epoch, reg=self.reg.copy())
            if self.config.reset_mode == "coordinator":
                self.send(self._coordinator, join)
            else:
                # Step 2 (consensus): votes go to everyone, so *any*
                # majority-holder can propose the merge — no single
                # node's survival is load-bearing.
                self.broadcast(join, include_self=False)
                self._maybe_propose_reset()
            return  # normal gossip is pointless during the reset window
        if self._pending_commit is not None:
            # Coordinator only: re-broadcast the commit until all acked.
            if len(self._commit_acks) >= self.config.n:
                self._pending_commit = None
                self._commit_acks = set()
            else:
                self.broadcast(self._pending_commit, include_self=False)
        await super().do_forever_iteration()

    def _enter_reset(self) -> None:
        self.resetting = True
        self._reset_proposed = False
        self._join_votes = {self.node_id: self.reg.copy()}
        if self.obs is not None:
            self.obs.reset_invocations += 1

    def _maybe_propose_reset(self) -> None:
        """Propose the join of a majority of votes, once per reset."""
        if self._reset_proposed:
            return
        if len(self._join_votes) < self.config.majority:
            return
        merged = RegisterArray(self.config.n)
        for vote in self._join_votes.values():
            merged.merge_from(vote)
        self._reset_proposed = True
        self.consensus.submit(
            ("reset", self.epoch),
            (self.epoch + 1, merged),
            validator=_reset_validator(self.epoch + 1, self.config.n),
        )

    def _on_consensus_decide(self, tag: tuple, value: Any) -> None:
        """Install a consensus-decided reset commit (listener callback)."""
        if not isinstance(tag, tuple) or len(tag) != 2 or tag[0] != "reset":
            return  # some other layer's instance on the shared endpoint
        if tag[1] != self.epoch:
            return  # stale or future epoch; commit replay covers stragglers
        if not _reset_validator(self.epoch + 1, self.config.n)(value):
            return  # corrupt decision; never install it
        commit = ResetCommitMessage(new_epoch=value[0], values=value[1])
        self._apply_commit(commit)

    # -- reset protocol handlers ----------------------------------------------------------

    def _replay_commit(self, sender: int, stale_epoch: int) -> None:
        """Answer a stale reset message with the commit that ended it."""
        commit = self._last_commit
        if commit is not None and stale_epoch < self.epoch:
            self.send(sender, commit)

    def _on_reset_alert(self, sender: int, message: ResetAlertMessage) -> None:
        if message.epoch == self.epoch and not self.resetting:
            self._enter_reset()
        elif message.epoch < self.epoch:
            self._replay_commit(sender, message.epoch)

    def _on_reset_join(self, sender: int, message: ResetJoinMessage) -> None:
        if self.config.reset_mode == "coordinator":
            if self.node_id != self._coordinator or message.epoch != self.epoch:
                return
            if not self.resetting:
                self._enter_reset()
            self._join_votes[sender] = message.reg
            if len(self._join_votes) >= self.config.n:
                merged = RegisterArray(self.config.n)
                for vote in self._join_votes.values():
                    merged.merge_from(vote)
                commit = ResetCommitMessage(
                    new_epoch=self.epoch + 1, values=merged
                )
                self._pending_commit = commit
                self._commit_acks = {self.node_id}
                self._apply_commit(commit)
                self.broadcast(commit, include_self=False)
            return
        if message.epoch < self.epoch:
            self._replay_commit(sender, message.epoch)
            return
        if message.epoch != self.epoch:
            return
        if not self.resetting:
            self._enter_reset()
        self._join_votes[sender] = message.reg
        self._maybe_propose_reset()

    def _commit_well_formed(self, message: ResetCommitMessage) -> bool:
        """Shape check before installing a commit we did not decide."""
        if not isinstance(message.new_epoch, int) or message.new_epoch <= 0:
            return False
        values = message.values
        if not isinstance(values, RegisterArray):
            return False
        try:
            entries = list(values)
        except Exception:  # noqa: BLE001 - corrupt payloads iterate badly
            return False
        return len(entries) == self.config.n and all(
            isinstance(entry, TimestampedValue) for entry in entries
        )

    def _on_reset_commit(self, sender: int, message: ResetCommitMessage) -> None:
        if self.config.reset_mode == "coordinator":
            accept = message.new_epoch == self.epoch + 1 and (
                self.resetting
                or self._max_local_index() >= self.config.max_int
            )
        else:
            # Commit replay may skip epochs for a long-partitioned or
            # restarted straggler; every replayed commit was
            # consensus-decided, so a well-formed newer commit is
            # always installable — this is what re-synchronizes a node
            # that slept through the reset entirely (it is not
            # ``resetting`` and its fresh indices never overflow).
            accept = message.new_epoch > self.epoch and (
                self._commit_well_formed(message)
            )
        if accept:
            self._apply_commit(message)
        if message.new_epoch == self.epoch:
            # Already applied (duplicate commit): just re-acknowledge.
            self.send(sender, ResetCommitAckMessage(new_epoch=message.new_epoch))

    def _on_reset_commit_ack(
        self, sender: int, message: ResetCommitAckMessage
    ) -> None:
        if message.new_epoch == self.epoch:
            self._commit_acks.add(sender)

    def _apply_commit(self, commit: ResetCommitMessage) -> None:
        """Step 2: indices restart at 0; register values survive."""
        self._apply_index_reset(commit.values)
        self.epoch = commit.new_epoch
        self.resetting = False
        self._reset_proposed = False
        self._join_votes = {}
        self._last_commit = commit
        self.resets_completed += 1

    # -- abortable operations --------------------------------------------------------------

    async def write(self, value: Any) -> int:
        return await self._abortable(super().write(value), "write")

    async def snapshot(self) -> SnapshotResult:
        return await self._abortable(super().snapshot(), "snapshot")

    async def read(self, j: int) -> TimestampedValue:
        return await self._abortable(super().read(j), "read")

    async def _abortable(self, operation, name: str) -> Any:
        """Run an operation, aborting it if a global reset intervenes.

        Operations invoked during a reset are rejected immediately; an
        epoch change mid-operation cancels it.  Both abort paths raise
        :class:`ResetInProgressError`, which the paper's criteria allow
        for the bounded number of operations caught by the seldom reset.
        """
        if self.resetting:
            operation.close()
            raise ResetInProgressError(
                f"node {self.node_id}: global reset in progress"
            )
        epoch_at_start = self.epoch
        task = self.kernel.create_task(
            operation, name=f"node{self.node_id}.{name}"
        )
        poll = self.config.retransmit_interval
        while not task.done():
            if self.resetting or self.epoch != epoch_at_start:
                task.cancel()
                raise ResetInProgressError(
                    f"node {self.node_id}: {name} aborted by global reset"
                )
            await self.kernel.first_of(
                task, timeout=poll, cancel_on_timeout=False
            )
        return task.result()


class BoundedSelfStabilizingNonBlocking(
    _BoundedCounterMixin, SelfStabilizingNonBlocking
):
    """Algorithm 1 with bounded operation indices (MAXINT + global reset)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._install_reset_handlers()


class BoundedSelfStabilizingAlwaysTerminating(
    _BoundedCounterMixin, SelfStabilizingAlwaysTerminating
):
    """Algorithm 3 with bounded operation indices (MAXINT + global reset).

    On top of the Algorithm 1 machinery, the reset also restarts the
    snapshot-task indices (``sns``/``ssn``) and clears the pending-task
    table: pre-reset tasks are among the aborted operations the criteria
    permit, and their initiators observe the abort through the epoch
    change.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._install_reset_handlers()

    def _max_local_index(self) -> int:
        indices = [
            self.ts, self.ssn, self.sns, self.tag, self.reg.max_timestamp()
        ]
        indices.extend(task.sns for task in self.pnd_tsk)
        return max(indices)

    def _apply_index_reset(self, values: RegisterArray) -> None:
        super()._apply_index_reset(values)
        self.sns = 0
        self.pnd_tsk = [PendingTask() for _ in range(self.config.n)]
        self._notify()
