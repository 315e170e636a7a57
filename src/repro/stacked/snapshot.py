"""Stacked snapshot baseline: double-collect over ABD registers.

The classic construction the paper's related-work section compares
against: run a shared-memory snapshot algorithm (the double-collect scan
of Afek et al.) on top of the ABD register emulation.  A successful scan
is two collects with a write-back after each, i.e. **4 round trips and
≈8(n−1) messages** — versus 1 round trip / 2(n−1) messages for
Delporte-Gallet et al.'s non-stacking snapshot.  Benchmark E3 regenerates
exactly that comparison.

Like the DGFR non-blocking algorithm, the scan is non-blocking only: a
write landing between the two collects forces another scan round.
"""

from __future__ import annotations

from typing import Any

from repro.core.base import SnapshotResult
from repro.core.register import RegisterArray, TimestampedValue
from repro.errors import ConfigurationError
from repro.net.node import Process
from repro.stacked.abd import AbdRegisterLayer

__all__ = ["StackedSnapshot"]


class StackedSnapshot(Process):
    """Snapshot object via the register-emulation stack (baseline)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.abd = AbdRegisterLayer(self)

    def initialize_state(self) -> None:
        """Writer timestamp and the replicated array (owned by the layer)."""
        self.ts: int = 0
        self.reg = RegisterArray(self.config.n)

    # -- operations -----------------------------------------------------------

    async def write(self, value: Any) -> int:
        """ABD write: install locally, replicate to a majority (1 RT)."""
        with self.operation("write"):
            self.ts += 1
            self.reg[self.node_id] = TimestampedValue(self.ts, value)
            await self.abd.store(self.reg.copy())
            return self.ts

    async def snapshot(self) -> SnapshotResult:
        """Double-collect scan with write-backs (4 RTs when clean).

        Each scan round: collect → write-back → collect → write-back; the
        scan succeeds when both collects agree (no interfering write).
        The write-backs make the returned view visible to a majority
        before the operation returns, which is what gives atomicity.
        """
        with self.operation("snapshot"):
            while True:
                first = await self.abd.collect()
                await self.abd.store(first)
                second = await self.abd.collect()
                await self.abd.store(second)
                if first == second:
                    return SnapshotResult.from_registers(second)

    async def read(self, j: int) -> TimestampedValue:
        """ABD read of register ``j``: collect, then write back (2 RTs).

        The write-back stores the collected view at a majority before the
        read responds, so no later read or snapshot can go below the
        entry it returns.
        """
        if not 0 <= j < self.config.n:
            raise ConfigurationError(
                f"register index {j} outside 0..{self.config.n - 1}"
            )
        with self.operation("read"):
            view = await self.abd.collect()
            await self.abd.store(view)
            return view[j]
