"""Transient-fault injection: arbitrary state corruption.

The paper's fault model lets a transient fault drive the system into an
*arbitrary* state — control variables (``ts``, ``ssn``, ``sns``,
``tag``), the register buffers, the pending-task table, and the contents
of every communication channel may all hold garbage (only the code stays
intact).

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
from repro.core.register import TimestampedValue
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
        # Last, so every draw above is the one it was before reads existed.
        self.corrupt_read_tags(node_ids)
