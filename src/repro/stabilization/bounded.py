"""Bounded-counter variants of Algorithms 1 and 3 (paper Section 5).

Wraps the self-stabilizing algorithms with the MAXINT → global-reset
transformation:

* every algorithm message travels inside an :class:`EpochEnvelope` —
  broadcast requests (``WRITE``, ``SNAPSHOT``, ``READ``) too, since
  :meth:`~repro.net.node.Process.broadcast` sends through :meth:`send`;
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
  particular the crash of node 0, the fixed coordinator of the paper's
  Step-2 sketch (E20);
* operations invoked or in flight during the reset window abort with
  :class:`~repro.errors.ResetInProgressError` — the bounded abort the
  paper's criteria explicitly permit during the seldom reset.  An
  in-flight operation is cancelled the moment its node enters the reset
  or installs a commit: the views it collected predate the new epoch,
  and merging them afterwards would re-plant the overflowed indices.

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
from repro.core.ss_always import (
    PendingTask,
    SaveMessage,
    SelfStabilizingAlwaysTerminating,
)
from repro.core.ss_nonblocking import SelfStabilizingNonBlocking
from repro.errors import ResetInProgressError
from repro.net.message import Message
from repro.stabilization.reset import (
    EpochEnvelope,
    ResetAlertMessage,
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

    Subclasses may extend :meth:`_max_local_index` (overflow detection)
    and :meth:`_apply_index_reset` (zero the indices, keep the values).
    """

    def initialize_state(self) -> None:
        super().initialize_state()
        self.epoch: int = 0
        self.resetting: bool = False
        self.resets_completed: int = 0
        self._join_votes: dict[int, RegisterArray] = {}
        self._last_commit: ResetCommitMessage | None = None
        self._reset_proposed: bool = False
        endpoint = getattr(self, "consensus", None)
        if isinstance(endpoint, ConsensusEndpoint):
            # Detectable restart: consensus instance state is volatile.
            endpoint.reinitialize()

    def _install_reset_handlers(self) -> None:
        #: In-flight operation tasks, cancelled by any epoch transition.
        self._operations: set[Any] = set()
        self.register_handler(ResetAlertMessage.KIND, self._on_reset_alert)
        self.register_handler(ResetJoinMessage.KIND, self._on_reset_join)
        self.register_handler(ResetCommitMessage.KIND, self._on_reset_commit)
        ConsensusEndpoint.ensure(self).add_listener(self._on_consensus_decide)

    # -- variant hooks ---------------------------------------------------------

    def _max_local_index(self) -> int:
        """The largest operation index anywhere in this node's state."""
        return max(self.ts, self.ssn, self.tag, self.reg.max_timestamp())

    def _apply_index_reset(self, values: RegisterArray) -> None:
        """Install the agreed values with all indices back at 0.

        The peer clocks and the digest-skip evidence empty too: they name
        pre-reset timestamps, which would be too high for, or match, the
        restarted indices — and a resetting node skips the gossip tick
        that empties the evidence.
        """
        for k in range(self.config.n):
            self.reg[k] = TimestampedValue(0, values[k].value)
        self.ts = 0
        self.ssn = 0
        self.tag = 0
        self.peer_clocks = {}
        self.forget_evidence()

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

    async def do_forever_iteration(self) -> None:
        if not self.resetting and self._max_local_index() >= self.config.max_int:
            self._enter_reset()
        if self.resetting:
            # Step 1: alert everyone and vote the maximal local state.
            self.broadcast(
                ResetAlertMessage(epoch=self.epoch), include_self=False
            )
            # Step 2: votes go to everyone, so *any* majority-holder can
            # propose the merge — no single node's survival is
            # load-bearing.
            self.broadcast(
                ResetJoinMessage(epoch=self.epoch, reg=self.reg.copy()),
                include_self=False,
            )
            self._maybe_propose_reset()
            return  # normal gossip is pointless during the reset window
        await super().do_forever_iteration()

    def _enter_reset(self) -> None:
        self.resetting = True
        self._reset_proposed = False
        self._join_votes = {self.node_id: self.reg.copy()}
        self._abort_operations()
        if self.obs is not None:
            self.obs.reset_invocations += 1

    def _abort_operations(self) -> None:
        for task in self._operations:
            task.cancel()

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
        # Commit replay may skip epochs for a long-partitioned or
        # restarted straggler; every replayed commit was
        # consensus-decided, so a well-formed newer commit is always
        # installable — this is what re-synchronizes a node that slept
        # through the reset entirely (it is not ``resetting`` and its
        # fresh indices never overflow).
        if message.new_epoch > self.epoch and self._commit_well_formed(message):
            self._apply_commit(message)

    def _apply_commit(self, commit: ResetCommitMessage) -> None:
        """Step 2: indices restart at 0; register values survive."""
        self._apply_index_reset(commit.values)
        self.epoch = commit.new_epoch
        self.resetting = False
        self._reset_proposed = False
        self._join_votes = {}
        self._last_commit = commit
        self.resets_completed += 1
        self._abort_operations()

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
        epoch transition mid-operation cancels it
        (:meth:`_abort_operations`).  Both abort paths raise
        :class:`ResetInProgressError`, which the paper's criteria allow
        for the bounded number of operations caught by the seldom reset.
        The operation runs as its own task and stays tracked until it
        finishes: a caller that abandons the call leaves it running, as
        on the unbounded variants, but no longer than its epoch.
        """
        if self.resetting:
            operation.close()
            raise ResetInProgressError(
                f"node {self.node_id}: global reset in progress"
            )
        task = self.kernel.create_task(
            operation, name=f"node{self.node_id}.{name}"
        )
        finished = self.kernel.create_future()

        def settle(_: Any) -> None:
            self._operations.discard(task)
            if not finished.done():
                finished.set_result(None)

        self._operations.add(task)
        task.add_done_callback(settle)
        await finished
        if task.cancelled():
            raise ResetInProgressError(
                f"node {self.node_id}: {name} aborted by global reset"
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
    table and the results the outbox still owes: pre-reset tasks are
    among the aborted operations the criteria permit, and their
    initiators observe the abort through the epoch change.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._install_reset_handlers()

    def _max_local_index(self) -> int:
        indices = [
            self.ts, self.ssn, self.sns, self.tag, self.reg.max_timestamp()
        ]
        indices.extend(task.sns for task in self.pnd_tsk)
        indices.extend(s for _k, s, _r in self.owed_saves())
        return max(indices)

    def _apply_index_reset(self, values: RegisterArray) -> None:
        # An owed SAVE names a pre-reset (k, s): sent in the new epoch,
        # it would plant that index among the restarted ones.
        super()._apply_index_reset(values)
        self.sns = 0
        self.pnd_tsk = [PendingTask() for _ in range(self.config.n)]
        self.outbox.drop(SaveMessage.KIND)
        self._notify()
