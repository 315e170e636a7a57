"""Global-reset protocol messages and epoch envelope (Section 5).

The bounded-counter transformation (paper Section 5, after Dolev, Petig &
Schiller §10) has two steps once a node observes an operation index at
MAXINT:

* **Step 1** — disable new operations and gossip the maximal indices
  (merging arriving maxima) until all nodes share them;
* **Step 2** — a consensus-based global reset replaces, per operation
  type, the highest index with its initial value 0 while keeping all
  register *values*; then operations are re-enabled.  The decision is
  reached through the self-stabilizing consensus layer
  (:mod:`repro.consensus`) on the instance tag ``("reset", epoch)``, in
  place of the paper's fixed coordinator.

Epoch hygiene: every algorithm message is wrapped in an
:class:`EpochEnvelope`; receivers drop envelopes from other epochs, so
pre-reset messages carrying huge indices cannot re-poison a reset node
(this is the "coloring" of Awerbuch et al.'s reset).  Reset-protocol
messages travel outside the envelope because they must cross epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.register import RegisterArray
from repro.net.message import Message

__all__ = [
    "EpochEnvelope",
    "ResetAlertMessage",
    "ResetJoinMessage",
    "ResetCommitMessage",
    "RESET_KINDS",
]


@dataclass(frozen=True)
class EpochEnvelope(Message):
    """Wraps an algorithm message with the sender's epoch."""

    KIND = "EPOCH"
    epoch: int
    inner: Message

    @property
    def kind(self) -> str:
        # Metrics and experiments should see the inner message kind; the
        # envelope adds only an 8-byte epoch to the wire size.
        return self.inner.kind


@dataclass(frozen=True)
class ResetAlertMessage(Message):
    """Step 1 trigger: some index reached MAXINT; join the reset."""

    KIND = "RESET_ALERT"
    epoch: int


@dataclass(frozen=True)
class ResetJoinMessage(Message):
    """A node's vote: it stopped operations and reports its maximal state.

    Carrying the full register array implements Step 1's "gossip the
    maximal indices while merging arriving information": the pointwise
    join of the votes is the state whose *values* survive the reset.
    Zeroing timestamps without first agreeing on values would leave
    divergent ts-0 entries that ``max⪯`` ties could never reconcile.
    Joins are broadcast so every node can assemble the merge.
    """

    KIND = "RESET_JOIN"
    epoch: int
    reg: RegisterArray


@dataclass(frozen=True)
class ResetCommitMessage(Message):
    """The decided reset: move to ``new_epoch``.

    ``values`` is the agreed maximal register array; every node installs
    its values with all operation indices reset to 0.  The message only
    *replays* a decision already reached through :mod:`repro.consensus`
    (straggler catch-up).
    """

    KIND = "RESET_COMMIT"
    new_epoch: int
    values: RegisterArray


#: Message kinds that bypass the epoch envelope.
RESET_KINDS = frozenset(
    {
        ResetAlertMessage.KIND,
        ResetJoinMessage.KIND,
        ResetCommitMessage.KIND,
    }
)
