"""Epoch agreement: who decides the next shard map.

A shard split is a *configuration change*: every router must agree on
the successor :class:`~repro.shard.ring.ShardMap` (and on when it takes
effect) or two routers could disagree about which shard owns a key —
exactly the split-brain a snapshot fabric must rule out.  The principled
primitive for that decision in our failure model is the self-stabilizing
multivalued consensus of Lundström, Raynal & Schiller (see PAPERS.md and
ROADMAP item 5): each proposer submits a candidate map for epoch ``e+1``
and all correct participants decide the *same* candidate, even from a
transiently corrupted starting state.

:class:`ConsensusEpochDecider` is the one decider: it runs every epoch
install through :class:`repro.consensus.ConsensusEndpoint` on one
shard's node cluster.  It keeps only a sliding window of decided epochs
(bounded space); :meth:`~ConsensusEpochDecider.decided` raises
:class:`~repro.errors.EpochEvictedError` for epochs older than the
window.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.consensus import ConsensusEndpoint
from repro.errors import ConfigurationError, EpochEvictedError, ReproError
from repro.shard.ring import ShardMap

__all__ = [
    "ConsensusEpochDecider",
    "DECIDED_EPOCH_WINDOW",
]

#: How many decided epochs a decider retains.  Reconfigurations are
#: rare and callers consult recent epochs only (the fabric installs a
#: decision as soon as it is made), so a short window suffices — and an
#: unbounded decided map is exactly the ever-growing state the paper's
#: bounded-space discipline forbids.
DECIDED_EPOCH_WINDOW = 16


def _shard_map_validator(expected_epoch: int):
    """Accept only well-formed ``(epoch, shard_ids, vnodes)`` proposals.

    Runs inside the consensus layer at every node, so a transiently
    corrupted proposal is purged there instead of being installed as a
    routing table.
    """

    def validate(value) -> bool:
        if not isinstance(value, tuple) or len(value) != 3:
            return False
        epoch, shard_ids, vnodes = value
        if not isinstance(epoch, int) or epoch != expected_epoch:
            return False
        if not isinstance(vnodes, int) or vnodes < 1:
            return False
        return (
            isinstance(shard_ids, tuple)
            and len(shard_ids) > 0
            and all(
                isinstance(sid, int) and not isinstance(sid, bool) and sid >= 0
                for sid in shard_ids
            )
            and len(set(shard_ids)) == len(shard_ids)
        )

    return validate


class ConsensusEpochDecider:
    """Decides which shard map governs each epoch: the cluster agrees.

    Runs every install through the self-stabilizing multivalued
    consensus layer (:mod:`repro.consensus`) on the nodes of one
    backing cluster — the fabric uses its lowest shard, which always
    exists (shards are only ever added), and moves to that shard's new
    cluster when a reconfiguration replaces it.  The map travels as a plain
    ``(epoch, shard_ids, vnodes)`` tuple — :class:`ShardMap` derives
    its ring locally — under the instance tag ``("shard-epoch", e)``.
    What that buys:

    * **Agreement** — several routers proposing different successors
      for the same epoch decide one common map (the split-brain guard).
    * **Validity** — the decided map was proposed by some router.
    * **Monotonicity** — epochs decide in order; a decided epoch is
      never re-decided to a different value.
    * **Self-stabilization** — after transient state corruption the
      consensus layer heals, and the above hold for all future epochs.

    A proposal enters through the lowest-numbered live node, so no
    single node's crash blocks a split.
    """

    def __init__(self, backend, window: int = DECIDED_EPOCH_WINDOW) -> None:
        if not getattr(backend, "processes", None):
            raise ConfigurationError(
                "ConsensusEpochDecider needs a created backend with processes"
            )
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self._backend = backend
        self._window = window
        self._decisions: "OrderedDict[int, ShardMap]" = OrderedDict()
        self._evicted_through = -1
        for process in backend.processes:
            ConsensusEndpoint.ensure(process)

    async def propose(self, proposal: ShardMap, current: ShardMap) -> ShardMap:
        """Propose ``proposal`` as the successor of ``current`` and await
        the cluster's decision for ``current.epoch + 1`` — not
        necessarily the proposal."""
        if proposal.epoch != current.epoch + 1:
            raise ConfigurationError(
                f"epoch proposal must be {current.epoch + 1}, "
                f"got {proposal.epoch}"
            )
        existing = self.decided(proposal.epoch)
        if existing is not None:
            return existing
        live = [p for p in self._backend.processes if not p.crashed]
        if not live:
            raise ReproError("every node of the epoch cluster is crashed")
        value = (proposal.epoch, tuple(proposal.shard_ids), proposal.vnodes)
        decided = await live[0].consensus.propose(
            ("shard-epoch", proposal.epoch),
            value,
            validator=_shard_map_validator(proposal.epoch),
        )
        if not _shard_map_validator(proposal.epoch)(decided):
            # The decision fell out of the consensus retention window
            # (or was corrupted past the validator at a non-proposer);
            # our own — validated — proposal is the fallback.
            decided = value
        shard_map = ShardMap(
            epoch=decided[0], shard_ids=decided[1], vnodes=decided[2]
        )
        self._decisions[shard_map.epoch] = shard_map
        self._decisions.move_to_end(shard_map.epoch)
        while len(self._decisions) > self._window:
            evicted, _ = self._decisions.popitem(last=False)
            self._evicted_through = max(self._evicted_through, evicted)
        return shard_map

    def decided(self, epoch: int) -> ShardMap | None:
        """The map this router saw decided at ``epoch``, ``None`` if
        undecided; raises :class:`~repro.errors.EpochEvictedError` once
        evicted."""
        decision = self._decisions.get(epoch)
        if decision is not None:
            return decision
        if epoch <= self._evicted_through:
            raise EpochEvictedError(
                f"epoch {epoch} left the decided window "
                f"(evicted through {self._evicted_through}, "
                f"window={self._window}); record decisions at install "
                f"time if you need deep history"
            )
        return None
