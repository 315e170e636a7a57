"""Transient-fault injection: arbitrary state corruption.

The paper's fault model lets a transient fault drive the system into an
*arbitrary* state — control variables (``ts``, ``ssn``, ``sns``,
``tag``, the digest-skip evidence ``_told`` and ``_heard_sns``,
``base``, the peer clocks), the register buffers —
down to one key's seq inside a slot map — the pending-task table, what
each outbox owes, and the contents of every communication channel may all
hold garbage (only the code stays intact).

:class:`TransientFaultInjector` reproduces that model against any
running :class:`~repro.backend.base.ClusterBackend` (sim, asyncio, or
UDP) — it only touches process state and whatever ``network.channels()``
exposes, so on backends without inspectable channels (real UDP) channel
scrambling degrades to a no-op while node-state corruption still
applies.  All randomness is drawn from a dedicated seeded RNG so
corrupted runs are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import replace as dataclass_replace
from typing import TYPE_CHECKING, Iterable

from repro.core.base import ReadAckMessage, ReadMessage
from repro.core.register import KeyDelta, KeyMap, TimestampedValue
from repro.core.ss_always import GossipMessage3, SaveMessage
from repro.core.ss_nonblocking import GossipMessage
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backend.base import ClusterBackend

__all__ = ["TransientFaultInjector"]

#: Upper bound for randomly drawn corrupted indices.
_WILD_INDEX = 1_000_000


class TransientFaultInjector:
    """Scrambles node state and channel contents of a cluster."""

    def __init__(self, cluster: "ClusterBackend", seed: int = 0) -> None:
        self._cluster = cluster
        self._rng = random.Random(seed)

    # -- helpers ---------------------------------------------------------------

    def _targets(self, node_ids: Iterable[int] | None) -> list[int]:
        if node_ids is None:
            return list(range(self._cluster.config.n))
        return list(node_ids)

    def _wild_ts(self) -> int:
        return self._rng.randrange(0, _WILD_INDEX)

    # -- node-state corruption ------------------------------------------------------

    def corrupt_write_indices(
        self, node_ids: Iterable[int] | None = None, value: int | None = None
    ) -> None:
        """Overwrite ``ts`` at the target nodes (random unless given)."""
        for node_id in self._targets(node_ids):
            process = self._cluster.node(node_id)
            process.ts = self._wild_ts() if value is None else value

    def corrupt_snapshot_indices(
        self, node_ids: Iterable[int] | None = None, value: int | None = None
    ) -> None:
        """Overwrite ``ssn`` (and ``sns`` where present)."""
        for node_id in self._targets(node_ids):
            process = self._cluster.node(node_id)
            if hasattr(process, "ssn"):
                process.ssn = self._wild_ts() if value is None else value
            if hasattr(process, "sns"):
                process.sns = self._wild_ts() if value is None else value

    def corrupt_read_tags(self, node_ids: Iterable[int] | None = None) -> None:
        """Overwrite ``tag``, the read-round index."""
        for node_id in self._targets(node_ids):
            self._cluster.node(node_id).tag = self._wild_ts()

    def corrupt_told(self, node_ids: Iterable[int] | None = None) -> None:
        """Overwrite ``_told``, the timestamps requests carried per peer.

        Each peer is left out, mapped to its current ``reg[k].ts`` (the
        worst case: its next digest is skipped) or mapped to a wild
        index.  A node without ``_told`` (every variant but Algorithms 1
        and 3 and their descendants) draws nothing.
        """
        for node_id in self._targets(node_ids):
            process = self._cluster.node(node_id)
            if not hasattr(process, "_told"):
                continue
            told: dict[int, int] = {}
            for k in process.peers():
                choice = self._rng.randrange(3)
                if choice == 1:
                    told[k] = process.reg[k].ts
                elif choice == 2:
                    told[k] = self._wild_ts()
            process._told = told

    def corrupt_heard_sns(self, node_ids: Iterable[int] | None = None) -> None:
        """Overwrite ``_heard_sns``, Algorithm 3's ``sns`` evidence per peer.

        Each peer is left out, mapped to its current ``pndTsk[k].sns``
        (the worst case, with ``_told``: its next digest is skipped) or
        mapped to a wild index.  A node without it (every variant but
        Algorithm 3 and its bounded descendant) draws nothing.
        """
        for node_id in self._targets(node_ids):
            process = self._cluster.node(node_id)
            if not hasattr(process, "_heard_sns"):
                continue
            heard: dict[int, int] = {}
            for k in process.peers():
                choice = self._rng.randrange(3)
                if choice == 1:
                    heard[k] = process.pnd_tsk[k].sns
                elif choice == 2:
                    heard[k] = self._wild_ts()
            process._heard_sns = heard

    def corrupt_registers(
        self,
        node_ids: Iterable[int] | None = None,
        entries: Iterable[int] | None = None,
    ) -> None:
        """Replace register entries with arbitrary timestamped garbage."""
        n = self._cluster.config.n
        for node_id in self._targets(node_ids):
            process = self._cluster.node(node_id)
            targets = list(entries) if entries is not None else range(n)
            for k in targets:
                process.reg[k] = TimestampedValue(
                    ts=self._wild_ts(),
                    value=bytes([self._rng.randrange(256)]),
                )

    def corrupt_key_maps(self, node_ids: Iterable[int] | None = None) -> None:
        """Rewrite one key's seq inside every key-map value, keeping its ts.

        Hits each register entry whose value is a non-empty
        :class:`~repro.core.register.KeyMap`, and the node's ``base`` if
        that is one: the fault a timestamp cannot see, since the entry
        still names the write it came from.  Nothing else draws.
        """
        for node_id in self._targets(node_ids):
            process = self._cluster.node(node_id)
            for k, entry in enumerate(process.reg):
                if isinstance(entry.value, KeyMap) and entry.value:
                    process.reg[k] = TimestampedValue(
                        entry.ts, self._scramble_one_seq(entry.value)
                    )
            base = getattr(process, "base", None)
            if isinstance(base, KeyMap) and base:
                process.base = self._scramble_one_seq(base)

    def _scramble_one_seq(self, value: KeyMap) -> KeyMap:
        key = self._rng.choice(list(value))
        return value.apply(((key, self._wild_item(value[key])),))

    def _wild_item(self, item: object) -> object:
        """A ``(seq, value)`` item under a wild seq (anything else as is)."""
        if isinstance(item, tuple) and len(item) == 2:
            return (self._wild_ts(), item[1])
        return item

    def corrupt_pending_tasks(
        self, node_ids: Iterable[int] | None = None
    ) -> None:
        """Scramble Algorithm 3's ``pndTsk`` entries (sns, vc, fnl)."""
        n = self._cluster.config.n
        for node_id in self._targets(node_ids):
            process = self._cluster.node(node_id)
            if not hasattr(process, "pnd_tsk"):
                continue
            for k in range(n):
                task = process.pnd_tsk[k]
                choice = self._rng.randrange(4)
                if choice == 0:
                    task.sns = self._wild_ts()
                elif choice == 1:
                    task.vc = tuple(
                        self._wild_ts() for _ in range(n)
                    )
                elif choice == 2:
                    task.fnl = None
                    task.sns = self._wild_ts()
                else:
                    task.vc = None

    def corrupt_outbox(self, node_ids: Iterable[int] | None = None) -> None:
        """Scramble what each node's outbox still owes its peers.

        Algorithm 3's ``SAVE`` entries come first, by owner: each keeps
        its owner and gets a wild ``sns``, a forged set of acknowledgers
        (any nodes, possibly a majority that never stored it), or is
        dropped.  Every other entry (a reliable-broadcast message) then
        gets a forged ack set.  An empty outbox draws nothing.  Due times
        are left alone: no fault rewrites a timer.
        """
        n = self._cluster.config.n
        for node_id in self._targets(node_ids):
            outbox = self._cluster.node(node_id).outbox
            entries = outbox.entries
            for key in outbox.keys(SaveMessage.KIND):
                choice = self._rng.randrange(3)
                if choice == 0:
                    k, _s, result = entries[key].item
                    entries[key].item = (k, self._wild_ts(), result)
                elif choice == 1:
                    entries[key].acked = {self._rng.randrange(n) for _ in range(n)}
                else:
                    del entries[key]
            for key in sorted(key for key in entries if key[0] != SaveMessage.KIND):
                entries[key].acked = {self._rng.randrange(n) for _ in range(n)}

    def corrupt_peer_clocks(self, node_ids: Iterable[int] | None = None) -> None:
        """Overwrite ``peer_clocks``, each peer's latest ack clock.

        Each peer is left out (it counts as all zeros), given a clock
        at or below what this node holds, or given a wild one — the
        worst case: the floor is then this node's own ``reg``, and every
        entry travels as its timestamp alone until that peer's next ack.
        A node without peer clocks (``stacked``) draws nothing.
        """
        for node_id in self._targets(node_ids):
            process = self._cluster.node(node_id)
            if not hasattr(process, "peer_clocks"):
                continue
            clocks: dict[int, tuple[int, ...]] = {}
            for k in process.peers():
                choice = self._rng.randrange(3)
                if choice == 1:
                    clocks[k] = tuple(
                        self._rng.randrange(entry.ts + 1) for entry in process.reg
                    )
                elif choice == 2:
                    clocks[k] = tuple(self._wild_ts() for _ in process.reg)
            process.peer_clocks = clocks

    def corrupt_consensus(self, node_ids: Iterable[int] | None = None) -> None:
        """Scramble the consensus layer's per-instance state.

        Targets every field the self-stabilization argument of
        :mod:`repro.consensus` claims to survive: settled binary bits,
        round machines, vote tallies, and delivered proposals all get
        arbitrary garbage.  Nodes without a consensus endpoint (or with
        no live instances) are silently skipped, so the injector works
        against every algorithm.
        """
        from repro.consensus.core import _Binary

        for node_id in self._targets(node_ids):
            process = self._cluster.node(node_id)
            endpoint = getattr(process, "consensus", None)
            if endpoint is None:
                continue
            for instance in getattr(endpoint, "_instances", {}).values():
                choice = self._rng.randrange(4)
                if choice == 0:
                    # Forge settled bits (including out-of-range keys).
                    instance.bdec[(self._rng.randrange(8), self._wild_ts())] = (
                        self._rng.randrange(4)
                    )
                    for position in list(instance.bdec):
                        instance.bdec[position] = self._rng.randrange(2)
                elif choice == 1:
                    for binary in instance.active.values():
                        binary.round = self._wild_ts()
                        binary.est = self._rng.randrange(-2, 3)
                        binary.phase = "garbage"
                    instance.active[(self._wild_ts(), 0)] = _Binary(1)
                elif choice == 2:
                    instance.tallies[(0, 0, self._wild_ts(), "est")] = {
                        self._wild_ts(): self._rng.randrange(-2, 3)
                    }
                    for tally in instance.tallies.values():
                        for sender in list(tally):
                            tally[sender] = self._rng.randrange(-2, 3)
                else:
                    instance.proposals[self._rng.randrange(16)] = bytes(
                        [self._rng.randrange(256)]
                    )

    # -- channel corruption ------------------------------------------------------------

    def scramble_channels(self, drop_probability: float = 0.3) -> int:
        """Corrupt in-flight messages: drop some, scramble indices in others.

        Returns the number of affected packets.
        """

        def mutate(message: Message) -> Message | None:
            if self._rng.random() < drop_probability:
                return None
            changes: dict[str, object] = {}
            if hasattr(message, "ssn"):
                changes["ssn"] = self._wild_ts()
            if hasattr(message, "sns"):
                changes["sns"] = self._wild_ts()
            if hasattr(message, "entry"):
                changes["entry"] = TimestampedValue(
                    ts=self._wild_ts(), value=b"\xba\xad"
                )
            if isinstance(message, (GossipMessage, GossipMessage3)):
                # One draw, as for any entry: a digest keeps carrying no
                # entry, and a pull answer's entry agrees with its ts.
                changes["ts"] = changes["entry"].ts
                if message.entry is None:
                    changes["entry"] = None
            if isinstance(message, ReadMessage) and isinstance(
                message.entry, KeyDelta
            ):
                # A delta stays one, under the same wild ts: a wild base
                # digest and a wild seq in every changed item.
                changes["entry"] = KeyDelta(
                    ts=changes["entry"].ts,
                    base=self._rng.getrandbits(64),
                    changes=tuple(
                        (key, self._wild_item(item))
                        for key, item in message.entry.changes
                    ),
                )
            if isinstance(message, (ReadMessage, ReadAckMessage)):
                # By type, not by field name: consensus messages carry an
                # unrelated ``tag``.
                changes["tag"] = self._wild_ts()
            if isinstance(message, ReadAckMessage):
                # The ack's entry is optional: a fault may claim any
                # timestamp for it, with or without the entry present.
                changes["ts"] = self._wild_ts()
                if self._rng.random() < 0.5:
                    changes["entry"] = None
            if not changes:
                return message
            try:
                return dataclass_replace(message, **changes)
            except TypeError:
                return message

        affected = 0
        for channel in self._cluster.network.channels():
            affected += channel.corrupt_in_flight(mutate)
        return affected

    def flush_channels(self) -> int:
        """Drop every in-flight packet (a clean-slate arbitrary state)."""
        return sum(
            channel.drop_all_in_flight()
            for channel in self._cluster.network.channels()
        )

    # -- combined ----------------------------------------------------------------------------

    def scramble_everything(self, node_ids: Iterable[int] | None = None) -> None:
        """The full arbitrary-state treatment of the paper's fault model."""
        self.corrupt_write_indices(node_ids)
        self.corrupt_snapshot_indices(node_ids)
        self.corrupt_registers(node_ids)
        self.corrupt_pending_tasks(node_ids)
        self.corrupt_consensus(node_ids)
        self.scramble_channels()
        # Last, so every draw above is the one it was before reads (and
        # then requests standing in for gossip, key-map deltas and the
        # outbox, then peer clocks, then Algorithm 3's sns evidence)
        # existed.  Key maps and outbox entries draw only where one is
        # held, so a run that holds none draws exactly what it did before.
        self.corrupt_read_tags(node_ids)
        self.corrupt_told(node_ids)
        self.corrupt_key_maps(node_ids)
        self.corrupt_outbox(node_ids)
        self.corrupt_peer_clocks(node_ids)
        self.corrupt_heard_sns(node_ids)
