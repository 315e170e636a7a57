"""Self-stabilizing multivalued consensus (ROADMAP item 5).

Implements the Lundström–Raynal–Schiller construction (see PAPERS.md):
multivalued consensus is reduced to a sequence of *binary* consensus
instances layered on reliable broadcast.

**Multivalued layer.**  A proposer URB-broadcasts its proposal for an
instance ``tag``; a participant without a proposal of its own *adopts*
the first delivered one (so a single proposer suffices — the shard-epoch
use case).  All nodes then scan candidates in a fixed order — candidate
``k`` of sweep ``s`` — running one binary consensus per candidate on
the question "do we take ``k``'s proposal?" with input 1 iff ``k``'s
proposal has been URB-delivered locally.  The first candidate whose
binary instance decides 1 wins, and its (delivered-by-then) proposal is
the multivalued decision.  A sweep in which every candidate decides 0
is followed by another sweep; by then the URB layer has delivered every
live proposer's value to everyone, so some candidate gets an all-1
input and its binary instance must decide 1.

**Binary layer.**  Mostéfaoui–Raynal rounds: in each round nodes
exchange *estimates* and wait for a majority, then exchange *auxiliary*
values (the estimate, if the majority was unanimous, else ⊥) and wait
for a majority.  Quorum intersection means at most one non-⊥ auxiliary
value circulates per round; a node seeing only ``v`` decides ``v``, a
node seeing ``v`` among ⊥s adopts it, and a node seeing only ⊥ adopts
the round's deterministic alternating fallback bit.  If any node
decides ``v`` in round ``r``, every majority in round ``r`` contains a
``v`` — so every node enters ``r + 1`` with estimate ``v`` and decides
``v`` there: agreement.  The deterministic fallback forgoes the
randomized-coin termination theorem, matching the *seldom fairness*
caveat the bounded-reset sketch already documents — in every schedule
the simulator or a live network actually produces, alternation breaks
symmetry within a few rounds.

**Self-stabilization.**  All per-instance state is bounded (round,
sweep, and instance counts are capped) and *checked*: every driver pass
revalidates the instance against its invariants and reinitializes
anything malformed (counted as ``consensus.heals``); a scan that runs
out of sweeps — only reachable from a corrupted binary-decision table —
recycles the instance (``consensus.recycled``), which is the
instance-GC story that lets a wedged instance re-run instead of
blocking forever.  Decided values gossip in reply to any late instance
traffic, conflicting decisions (again only corruption can mint them)
converge by a deterministic minimum rule, and an application-supplied
*validator* rejects decided values that corruption made nonsensical, so
the layer as a whole reaches agreement on a valid value from an
arbitrary starting state.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from repro.broadcast.reliable import ReliableBroadcast
from repro.consensus.messages import (
    PHASE_AUX,
    PHASE_EST,
    CsBdecMessage,
    CsDecideMessage,
    CsProposalMessage,
    CsRbAckMessage,
    CsRbDataMessage,
    CsVoteMessage,
    valid_tag,
)
from repro.errors import CancelledError
from repro.net.message import Message
from repro.net.node import Process

__all__ = ["ConsensusEndpoint"]

#: ⊥ in AUX-phase votes.
_BOT = -1


def _value_key(value: Any) -> str:
    """Deterministic total order on decided values (conflict convergence)."""
    return repr(value)


class _Binary:
    """One binary consensus: the Mostéfaoui–Raynal round machine.

    ``history`` records this node's own vote for every past
    ``(round, phase)`` of the machine — bounded by ``MAX_ROUND``.
    Rounds are not lockstep under loss: once a majority moves to round
    r+1 they only retransmit round-r+1 votes, so a node still missing
    one round-r vote would stall forever.  The history lets any node
    answer a behind-round vote with the exact vote it cast back then
    (votes are immutable once cast, so the reply is safe), which walks
    the laggard forward one phase per round trip.
    """

    __slots__ = ("round", "phase", "est", "aux", "history")

    def __init__(self, est: int) -> None:
        self.round = 1
        self.phase = PHASE_EST
        self.est = est
        self.aux = _BOT
        self.history: dict[tuple[int, str], int] = {}

    def point(self) -> tuple[int, int]:
        """Total order on (round, phase) progress points."""
        return (self.round, 0 if self.phase == PHASE_EST else 1)

    def sane(self, max_round: int) -> bool:
        return (
            isinstance(self.round, int)
            and 1 <= self.round <= max_round
            and self.phase in (PHASE_EST, PHASE_AUX)
            and self.est in (0, 1)
            and self.aux in (0, 1, _BOT)
            and isinstance(self.history, dict)
            and len(self.history) <= 2 * (max_round + 1)
        )


class _Instance:
    """Bounded state of one in-flight consensus instance.

    The binary instances of the current sweep all run *concurrently* —
    only the winner scan is sequential.  Safety needs nothing more
    (each binary instance agrees on its bit, and every node reads the
    settled bits in the same ``(sweep, cand)`` order), and concurrency
    collapses decide latency from "a round per candidate" to "one round
    for the whole sweep": a reset must finish within a few gossip
    cycles, so the walked-one-at-a-time textbook presentation is too
    slow to hide behind.
    """

    __slots__ = (
        "tag",
        "proposals",
        "own_value",
        "validator",
        "bdec",
        "active",
        "tallies",
        "progress",
        "waiters",
        "task",
        "done",
    )

    def __init__(self, tag: tuple) -> None:
        self.tag = tag
        #: URB-delivered proposals, by proposer id (first delivery wins).
        self.proposals: dict[int, Any] = {}
        self.own_value: Any = None
        self.validator: Callable[[Any], bool] | None = None
        #: Settled binary instances: (sweep, cand) → bit.
        self.bdec: dict[tuple[int, int], int] = {}
        self.waiters: list[Any] = []
        self.task = None
        self.done = False
        self.progress = None
        self.reset_rounds()

    def reset_rounds(self) -> None:
        """Reinitialize the volatile binary-round state."""
        #: (sweep, cand) → in-flight round machine (current sweep only).
        self.active: dict[tuple[int, int], _Binary] = {}
        #: (sweep, cand, round, phase) → {sender: bit}.
        self.tallies: dict[tuple, dict[int, int]] = {}

    def valid_proposal(self, value: Any) -> bool:
        """Whether ``value`` passes the locally installed validator."""
        validator = self.validator
        if validator is None:
            return True
        try:
            return bool(validator(value))
        except Exception:  # noqa: BLE001 - validator sees corrupt data
            return False


class ConsensusEndpoint:
    """One node's consensus service, attached as ``process.consensus``.

    Created at most once per process (handler registration is unique);
    use :meth:`ensure` when several layers — the bounded reset and the
    shard-epoch decider — may each want the endpoint on the same node.
    Decisions are announced to every registered listener as
    ``listener(tag, value)``; callers that need to block use
    :meth:`propose` / :meth:`result`.
    """

    #: Bounds making every piece of consensus state finite — the
    #: prerequisite for the self-stabilization argument (and the caps
    #: the healing guards enforce against corrupted counters).
    MAX_ROUND = 64
    MAX_SWEEP = 4
    MAX_INSTANCES = 8
    DECIDED_WINDOW = 8

    def __init__(self, process: Process) -> None:
        self.process = process
        self._instances: "OrderedDict[tuple, _Instance]" = OrderedDict()
        self._decided: "OrderedDict[tuple, Any]" = OrderedDict()
        self._listeners: list[Callable[[tuple, Any], None]] = []
        self._urb = ReliableBroadcast(
            process,
            self._on_urb_deliver,
            data_cls=CsRbDataMessage,
            ack_cls=CsRbAckMessage,
        )
        process.register_handler(CsVoteMessage.KIND, self._on_vote)
        process.register_handler(CsBdecMessage.KIND, self._on_bdec)
        process.register_handler(CsDecideMessage.KIND, self._on_decide)
        process.consensus = self

    @classmethod
    def ensure(cls, process: Process) -> "ConsensusEndpoint":
        """The process's endpoint, creating it on first use."""
        existing = getattr(process, "consensus", None)
        if isinstance(existing, ConsensusEndpoint):
            return existing
        return cls(process)

    # -- lifecycle ---------------------------------------------------------

    def reinitialize(self) -> None:
        """Forget all instance state (detectable restart)."""
        for instance in self._instances.values():
            if instance.task is not None:
                instance.task.cancel()
        self._instances.clear()
        self._decided.clear()

    def add_listener(self, listener: Callable[[tuple, Any], None]) -> None:
        """Register a decision callback ``listener(tag, value)``."""
        self._listeners.append(listener)

    # -- public API --------------------------------------------------------

    def result(self, tag: tuple) -> Any | None:
        """The decided value for ``tag`` within the retention window."""
        return self._decided.get(tag)

    def submit(
        self,
        tag: tuple,
        value: Any,
        validator: Callable[[Any], bool] | None = None,
    ) -> None:
        """Propose ``value`` for ``tag`` without waiting (idempotent).

        The first submission per tag wins locally; the decision is
        announced through the listeners.  ``validator`` installs the
        application's well-formedness check for this instance (local
        code, so it cannot itself be corrupted): proposals and decided
        values failing it are treated as transient corruption and
        purged rather than agreed on.
        """
        if not valid_tag(tag) or tag in self._decided:
            return
        instance = self._ensure_instance(tag)
        if validator is not None and instance.validator is None:
            instance.validator = validator
        if instance.own_value is None and instance.valid_proposal(value):
            instance.own_value = value
            instance.proposals.setdefault(self.process.node_id, value)
            self._urb.broadcast(CsProposalMessage(tag=tag, value=value))
            self._kick(instance)

    async def propose(
        self,
        tag: tuple,
        value: Any,
        validator: Callable[[Any], bool] | None = None,
    ) -> Any:
        """Propose ``value`` for ``tag`` and await the decided value."""
        if tag in self._decided:
            return self._decided[tag]
        self.submit(tag, value, validator=validator)
        instance = self._instances.get(tag)
        if instance is None:  # decided between submit and here
            return self._decided.get(tag)
        waiter = self.process.kernel.create_event()
        instance.waiters.append(waiter)
        await waiter.wait()
        return self._decided.get(tag)

    # -- instance management -----------------------------------------------

    def _ensure_instance(self, tag: tuple) -> _Instance:
        instance = self._instances.get(tag)
        if instance is not None:
            return instance
        if len(self._instances) >= self.MAX_INSTANCES:
            # GC: evict the oldest instance nobody local is waiting on.
            for old_tag, old in self._instances.items():
                if not old.waiters:
                    if old.task is not None:
                        old.task.cancel()
                    del self._instances[old_tag]
                    break
        instance = _Instance(tag)
        instance.progress = self.process.kernel.create_event()
        self._instances[tag] = instance
        instance.task = self.process.kernel.create_task(
            self._drive(instance),
            name=f"cs{self.process.node_id}.{tag[0]}.{tag[1]}",
        )
        return instance

    def _kick(self, instance: _Instance) -> None:
        if instance.progress is not None:
            instance.progress.set()

    def _bump(self, counter: str) -> None:
        obs = self.process.obs
        if obs is not None:
            setattr(obs, counter, getattr(obs, counter) + 1)

    # -- the driver --------------------------------------------------------

    async def _drive(self, instance: _Instance) -> None:
        """Run one instance to its decision (the do-forever of this layer).

        Each pass revalidates the state (healing corruption), advances
        the round machine as far as the received tallies allow, and
        re-broadcasts the current vote; it then sleeps until new
        traffic arrives or the retransmission interval elapses.

        Votes bypass the node's outbox: none is acknowledged, each pass
        re-broadcasts the current one, and peers answer late votes from
        their history.  Proposals reach it through reliable broadcast.
        """
        process = self.process
        try:
            while not instance.done:
                # Re-arm *before* stepping: a kick that lands mid-step
                # must not be lost between events.
                wakeup = process.kernel.create_event()
                instance.progress = wakeup
                await process.gate.passthrough()
                self._step(instance)
                if instance.done:
                    return
                try:
                    await process.kernel.wait_for(
                        wakeup.wait(),
                        timeout=process.config.retransmit_interval,
                    )
                except TimeoutError:
                    pass  # retransmit via the next pass
        except CancelledError:
            raise

    def _step(self, instance: _Instance) -> None:
        self._heal(instance)
        guard = 2 * self.MAX_SWEEP * self.process.config.n * self.MAX_ROUND
        while not instance.done and guard > 0:
            guard -= 1
            sweep = self._scan(instance)
            if instance.done or sweep is None:
                return
            self._open_sweep(instance, sweep)
            if not any(
                self._advance(instance, position)
                for position in sorted(instance.active)
            ):
                break
        if not instance.done:
            for position in sorted(instance.active):
                self._broadcast_vote(instance, position)

    def _scan(self, instance: _Instance) -> int | None:
        """Look for a winner, returning the working sweep if none yet.

        Walks ``(sweep, cand)`` in the fixed common order: the first
        candidate whose settled bit is 1 wins.  Returns the first sweep
        holding an unsettled candidate (the binary instances to run
        now), or ``None`` when the instance just decided — or has a
        winner whose proposal the URB layer hasn't delivered here yet.
        """
        n = self.process.config.n
        for sweep in range(self.MAX_SWEEP):
            for cand in range(n):
                position = (sweep, cand)
                bit = instance.bdec.get(position)
                if bit is None:
                    return sweep
                if bit != 1:
                    continue
                if cand not in instance.proposals:
                    # Won before its proposal reached us: the URB layer
                    # is still retransmitting; stay here until it lands.
                    return None
                value = instance.proposals[cand]
                if not instance.valid_proposal(value):
                    # A corrupted proposal won: purge it and demote the
                    # candidate so the scan moves on (heals, not wedges).
                    del instance.proposals[cand]
                    instance.bdec[position] = 0
                    self._bump("consensus_heals")
                    continue
                self._finish(instance, value)
                return None
        # Every sweep decided 0 — impossible in a legal execution, so
        # the binary-decision table was corrupted: recycle the instance.
        instance.bdec.clear()
        instance.reset_rounds()
        self._bump("consensus_recycled")
        return 0

    def _open_sweep(self, instance: _Instance, sweep: int) -> None:
        """Start round machines for the sweep's unsettled candidates.

        All of them run concurrently; a candidate's input is 1 iff its
        proposal has been URB-delivered here by the time the sweep
        opens (later sweeps therefore see later deliveries — the
        liveness fix for a first sweep whose inputs were all 0).
        """
        for position, binary in list(instance.active.items()):
            if position[0] != sweep or position in instance.bdec:
                del instance.active[position]
        for cand in range(self.process.config.n):
            position = (sweep, cand)
            if position in instance.bdec or position in instance.active:
                continue
            proposal = instance.proposals.get(cand)
            est = int(
                proposal is not None and instance.valid_proposal(proposal)
            )
            instance.active[position] = _Binary(est)

    def _advance(self, instance: _Instance, position: tuple[int, int]) -> bool:
        """One round transition of ``position``'s machine; True if moved."""
        binary = instance.active.get(position)
        if binary is None:
            return False
        tally = instance.tallies.setdefault(
            position + (binary.round, binary.phase), {}
        )
        own = binary.est if binary.phase == PHASE_EST else binary.aux
        tally.setdefault(self.process.node_id, own)
        binary.history[(binary.round, binary.phase)] = own
        if len(tally) < self.process.config.majority:
            return False
        if binary.phase == PHASE_EST:
            values = set(tally.values())
            binary.aux = values.pop() if len(values) == 1 else _BOT
            binary.phase = PHASE_AUX
            return True
        aux_values = set(tally.values()) - {_BOT}
        if len(aux_values) == 1 and _BOT not in set(tally.values()):
            self._settle(instance, position, aux_values.pop())
            return True
        if aux_values:
            # At most one non-⊥ value can circulate (quorum
            # intersection); min() is pure defensiveness.
            binary.est = min(aux_values)
        else:
            binary.est = binary.round & 1  # alternating fallback bit
        binary.round += 1
        binary.phase = PHASE_EST
        self._bump("consensus_rounds")
        if binary.round > self.MAX_ROUND:
            # Only a corrupted round counter gets here; restart the
            # binary instance from its input.
            proposal = instance.proposals.get(position[1])
            instance.active[position] = _Binary(
                int(proposal is not None and instance.valid_proposal(proposal))
            )
            self._bump("consensus_heals")
        return True

    def _settle(
        self, instance: _Instance, position: tuple[int, int], bit: int
    ) -> None:
        """Record one finished binary instance and tell the others."""
        instance.bdec[position] = bit
        instance.active.pop(position, None)
        self._prune_tallies(instance)
        self.process.broadcast(
            CsBdecMessage(
                tag=instance.tag,
                sweep=position[0],
                cand=position[1],
                bit=bit,
            ),
            include_self=False,
        )

    def _broadcast_vote(
        self, instance: _Instance, position: tuple[int, int]
    ) -> None:
        binary = instance.active.get(position)
        if binary is None:
            return
        bit = binary.est if binary.phase == PHASE_EST else binary.aux
        self.process.broadcast(
            CsVoteMessage(
                tag=instance.tag,
                sweep=position[0],
                cand=position[1],
                round=binary.round,
                phase=binary.phase,
                bit=bit,
            ),
            include_self=False,
        )

    def _prune_tallies(self, instance: _Instance) -> None:
        """Drop tallies for settled positions and superseded rounds."""
        stale = []
        for key in instance.tallies:
            position = key[:2]
            if position in instance.bdec:
                stale.append(key)
                continue
            binary = instance.active.get(position)
            if binary is not None and key[2] < binary.round:
                stale.append(key)
        for key in stale:
            del instance.tallies[key]

    # -- deciding ----------------------------------------------------------

    def _finish(self, instance: _Instance, value: Any) -> None:
        self._record_decision(instance.tag, value)
        instance.done = True  # the driver observes this and returns
        for waiter in instance.waiters:
            waiter.set()
        instance.waiters = []
        self._instances.pop(instance.tag, None)
        self._bump("consensus_decides")
        self.process.broadcast(
            CsDecideMessage(tag=instance.tag, value=value), include_self=False
        )

    def _record_decision(self, tag: tuple, value: Any) -> None:
        self._decided[tag] = value
        self._decided.move_to_end(tag)
        while len(self._decided) > self.DECIDED_WINDOW:
            self._decided.popitem(last=False)
        for listener in self._listeners:
            listener(tag, value)

    def _reply_decided(self, sender: int, tag: tuple) -> None:
        self.process.send(
            sender, CsDecideMessage(tag=tag, value=self._decided[tag])
        )

    # -- healing -----------------------------------------------------------

    def _heal(self, instance: _Instance) -> None:
        """Revalidate one instance's state, reinitializing what's broken.

        This is the convergence half of the self-stabilization
        contract: a transient fault may have written arbitrary values
        into any field; every driver pass re-derives a legal state from
        whatever survives validation, so a corrupted instance re-runs
        (and re-decides) instead of wedging.
        """
        n = self.process.config.n
        healed = False
        if not isinstance(instance.proposals, dict):
            instance.proposals = {}
            healed = True
        else:
            bad = [
                k
                for k in instance.proposals
                if not isinstance(k, int)
                or not 0 <= k < n
                or not instance.valid_proposal(instance.proposals[k])
            ]
            for k in bad:
                del instance.proposals[k]
            healed = healed or bool(bad)
        if not isinstance(instance.bdec, dict):
            instance.bdec = {}
            healed = True
        else:
            bad = [
                key
                for key, bit in instance.bdec.items()
                if not (
                    isinstance(key, tuple)
                    and len(key) == 2
                    and isinstance(key[0], int)
                    and isinstance(key[1], int)
                    and 0 <= key[0] < self.MAX_SWEEP
                    and 0 <= key[1] < n
                    and bit in (0, 1)
                )
            ]
            for key in bad:
                del instance.bdec[key]
            healed = healed or bool(bad)
        rounds_ok = isinstance(instance.active, dict) and isinstance(
            instance.tallies, dict
        )
        if rounds_ok:
            for position, binary in list(instance.active.items()):
                if not (
                    isinstance(position, tuple)
                    and len(position) == 2
                    and isinstance(binary, _Binary)
                    and binary.sane(self.MAX_ROUND)
                    and position not in instance.bdec
                ):
                    del instance.active[position]
                    healed = True
        else:
            instance.reset_rounds()
            healed = True
        if healed:
            self._bump("consensus_heals")

    # -- wire handlers -----------------------------------------------------

    def _on_urb_deliver(self, origin: int, payload: Message) -> None:
        if not isinstance(payload, CsProposalMessage):
            return
        tag = payload.tag
        if not valid_tag(tag):
            return
        if tag in self._decided:
            if origin != self.process.node_id:
                self._reply_decided(origin, tag)
            return
        instance = self._ensure_instance(tag)
        if not instance.valid_proposal(payload.value):
            self._bump("consensus_heals")
            return
        instance.proposals.setdefault(origin, payload.value)
        if instance.own_value is None:
            # Proposal adoption: a participant with nothing to propose
            # backs the first delivered proposal, so one proposer
            # suffices to drive the instance.
            instance.own_value = payload.value
        self._kick(instance)

    def _on_vote(self, sender: int, message: CsVoteMessage) -> None:
        tag = message.tag
        if not valid_tag(tag):
            return
        if tag in self._decided:
            self._reply_decided(sender, tag)
            return
        n = self.process.config.n
        if (
            not isinstance(message.sweep, int)
            or not isinstance(message.cand, int)
            or not isinstance(message.round, int)
            or not 0 <= message.sweep < self.MAX_SWEEP
            or not 0 <= message.cand < n
            or not 1 <= message.round <= self.MAX_ROUND
            or message.phase not in (PHASE_EST, PHASE_AUX)
        ):
            return
        bit = message.bit
        if bit not in (0, 1) and not (
            message.phase == PHASE_AUX and bit == _BOT
        ):
            return
        instance = self._ensure_instance(tag)
        position = (message.sweep, message.cand)
        settled = instance.bdec.get(position)
        if settled is not None:
            self.process.send(
                sender,
                CsBdecMessage(
                    tag=tag,
                    sweep=message.sweep,
                    cand=message.cand,
                    bit=settled,
                ),
            )
            return
        tally = instance.tallies.setdefault(
            position + (message.round, message.phase), {}
        )
        tally.setdefault(sender, bit)
        self._reply_behind_vote(instance, sender, message)
        self._kick(instance)

    def _reply_behind_vote(
        self, instance: _Instance, sender: int, message: CsVoteMessage
    ) -> None:
        """Answer a vote for a phase we already completed with our own.

        The sender is a laggard (it missed votes to loss or a
        partition) still collecting a majority for a ``(round, phase)``
        this node's machine has moved past.  Our vote for that exact
        point is immutable once cast — replying with the recorded copy
        is equivalent to the original send arriving late, and it is
        what un-sticks the laggard: one recorded vote per retransmitted
        request walks it forward to the live round.
        """
        binary = instance.active.get((message.sweep, message.cand))
        if not isinstance(binary, _Binary) or not isinstance(
            binary.history, dict
        ):
            return
        point = (message.round, 0 if message.phase == PHASE_EST else 1)
        if point >= binary.point():
            return
        own = binary.history.get((message.round, message.phase))
        if own not in (0, 1) and not (
            message.phase == PHASE_AUX and own == _BOT
        ):
            return  # never voted there (or corrupted history): nothing safe to say
        self.process.send(
            sender,
            CsVoteMessage(
                tag=instance.tag,
                sweep=message.sweep,
                cand=message.cand,
                round=message.round,
                phase=message.phase,
                bit=own,
            ),
        )

    def _on_bdec(self, sender: int, message: CsBdecMessage) -> None:
        tag = message.tag
        if not valid_tag(tag):
            return
        if tag in self._decided:
            self._reply_decided(sender, tag)
            return
        n = self.process.config.n
        if (
            not isinstance(message.sweep, int)
            or not isinstance(message.cand, int)
            or not 0 <= message.sweep < self.MAX_SWEEP
            or not 0 <= message.cand < n
            or message.bit not in (0, 1)
        ):
            return
        instance = self._ensure_instance(tag)
        position = (message.sweep, message.cand)
        existing = instance.bdec.get(position)
        if existing is None:
            instance.bdec[position] = message.bit
        elif existing != message.bit:
            # Conflicting settled bits can only come from corruption;
            # converge deterministically on the smaller.
            instance.bdec[position] = min(existing, message.bit)
            self._bump("consensus_heals")
        instance.active.pop(position, None)
        self._prune_tallies(instance)
        self._kick(instance)

    def _on_decide(self, sender: int, message: CsDecideMessage) -> None:
        tag = message.tag
        if not valid_tag(tag):
            return
        value = message.value
        existing = self._decided.get(tag)
        if existing is not None:
            if _value_key(value) < _value_key(existing):
                # Conflicting decisions (a corruption artifact):
                # converge on the deterministic minimum and re-announce
                # so every layer above re-applies the agreed value.
                self._record_decision(tag, value)
                self._bump("consensus_heals")
            elif _value_key(value) > _value_key(existing):
                self._reply_decided(sender, tag)
            return
        instance = self._instances.get(tag)
        if instance is not None:
            if not instance.valid_proposal(value):
                self._bump("consensus_heals")
                return
            self._finish(instance, value)
            return
        # Never participated (or already GC'd): adopt the outcome.
        self._record_decision(tag, value)
