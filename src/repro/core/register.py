"""Register value types and the paper's ``⪯`` lattice (Algorithm 1, line 1).

The snapshot object emulates an array of Single-Writer/Multi-Reader (SWMR)
registers.  Each entry is a pair ``(v, ts)`` where ``v`` is an object value
and ``ts`` an unbounded write-operation index.  The paper orders pairs by
timestamp only::

    (•, t) ⪯ (•, t')  ⟺  t ≤ t'

and orders register arrays pointwise.  Because each entry is written by a
single writer, two pairs for the same entry with equal timestamps denote
the same write, so ordering by ``ts`` alone is sound.

:class:`TimestampedValue` is immutable; :class:`RegisterArray` is the
mutable per-node buffer ``reg`` with the merge operation used throughout
Algorithms 1–3 (pointwise join).  The join makes register states a
join-semilattice, which is what the self-stabilizing variants rely on: any
corrupted-but-lattice-consistent information is absorbed by ``max``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.errors import ConfigurationError

__all__ = ["TimestampedValue", "BOTTOM", "RegisterArray"]


@dataclass(frozen=True, slots=True)
class TimestampedValue:
    """An SWMR register value: the pair ``(v, ts)`` of the paper.

    Attributes
    ----------
    ts:
        Write-operation index.  ``0`` is reserved for the initial ``⊥``.
    value:
        The written object value (opaque to the algorithms; benchmarks use
        ``bytes`` so that message-size accounting is meaningful).

    A pair is shared *by reference* along its whole life — the writer's
    ``reg``, every ``reg.copy()``, every message carrying it, every
    receiver's ``merge_from`` — so :func:`repro.net.message.measure_size`
    memoises its measured size in the non-compared ``_size`` slot: a
    register value is priced once per write, not once per message.  The
    memo is sound because ``value`` is never mutated in place: writers and
    fault injectors that change a value build a fresh pair (a mutable
    ``value`` such as the sharded fabric's slot dict is copied before each
    write).  Code that must mutate ``value`` in place has to replace the
    pair instead.
    """

    ts: int
    value: Any = None
    _size: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.ts < 0:
            raise ConfigurationError(f"timestamp must be non-negative, got {self.ts}")
        object.__setattr__(self, "_size", None)

    def precedes_or_equals(self, other: "TimestampedValue") -> bool:
        """The paper's ``⪯`` on pairs: compare write indices only."""
        return self.ts <= other.ts

    def max_with(self, other: "TimestampedValue") -> "TimestampedValue":
        """The join ``max⪯``: keep whichever pair has the larger index."""
        return other if self.ts < other.ts else self

    @property
    def is_bottom(self) -> bool:
        """Whether this is the initial value ``⊥`` (no write has occurred)."""
        return self.ts == 0


#: The initial register value ``⊥`` — smaller than any written value.
BOTTOM = TimestampedValue(0, None)


class RegisterArray:
    """The per-node buffer ``reg``: one :class:`TimestampedValue` per node.

    Supports the pointwise lattice operations the algorithms use:

    * ``reg[k] ← max(reg[k], other[k])`` for all ``k`` — :meth:`merge_from`;
    * pointwise comparison ``⪯`` — :meth:`precedes_or_equals`;
    * equality (used in the ``prev = reg`` termination test of snapshot);
    * a vector-clock view of the timestamps (Algorithm 3, line 69).
    """

    __slots__ = ("_entries",)

    def __init__(self, n_or_entries: int | Iterable[TimestampedValue]) -> None:
        if isinstance(n_or_entries, int):
            if n_or_entries <= 0:
                raise ConfigurationError(
                    f"register array needs at least one entry, got {n_or_entries}"
                )
            self._entries: list[TimestampedValue] = [BOTTOM] * n_or_entries
        else:
            entries = list(n_or_entries)
            if not entries:
                raise ConfigurationError("register array needs at least one entry")
            for entry in entries:
                if not isinstance(entry, TimestampedValue):
                    raise ConfigurationError(
                        f"register array entries must be TimestampedValue, "
                        f"got {entry!r}"
                    )
            self._entries = entries

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, k: int) -> TimestampedValue:
        return self._entries[k]

    def __setitem__(self, k: int, value: TimestampedValue) -> None:
        if not isinstance(value, TimestampedValue):
            raise ConfigurationError(f"expected TimestampedValue, got {value!r}")
        self._entries[k] = value

    def __iter__(self) -> Iterator[TimestampedValue]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegisterArray):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(tuple(self._entries))

    def __repr__(self) -> str:
        inner = ", ".join(f"({e.value!r},{e.ts})" for e in self._entries)
        return f"RegisterArray[{inner}]"

    # -- lattice operations ----------------------------------------------------

    def precedes_or_equals(self, other: "RegisterArray") -> bool:
        """Pointwise ``⪯``: every entry's index is ≤ the other's."""
        self._check_compatible(other)
        return all(
            mine.precedes_or_equals(theirs)
            for mine, theirs in zip(self._entries, other._entries)
        )

    def strictly_precedes(self, other: "RegisterArray") -> bool:
        """The paper's ``≺``: ``⪯`` and not equal."""
        return self.precedes_or_equals(other) and self != other

    def merge_entry(self, k: int, candidate: TimestampedValue) -> None:
        """``reg[k] ← max⪯(reg[k], candidate)``."""
        self._entries[k] = self._entries[k].max_with(candidate)

    def merge_from(self, other: "RegisterArray") -> None:
        """Pointwise join with another array (lines 27/30/61/64/101/104)."""
        self._check_compatible(other)
        self._entries = [
            mine.max_with(theirs)
            for mine, theirs in zip(self._entries, other._entries)
        ]

    def copy(self) -> "RegisterArray":
        """An independent copy (the ``let prev := reg`` / ``lReg := reg``)."""
        return RegisterArray(list(self._entries))

    def vector_clock(self) -> tuple[int, ...]:
        """The timestamps-only view ``VC`` (Algorithm 3, line 69)."""
        return tuple(entry.ts for entry in self._entries)

    def snapshot_values(self) -> tuple[Any, ...]:
        """The object values, as a snapshot operation returns them."""
        return tuple(entry.value for entry in self._entries)

    def max_timestamp(self) -> int:
        """Largest write index present — used by the bounded-counter wrapper."""
        return max(entry.ts for entry in self._entries)

    def _check_compatible(self, other: "RegisterArray") -> None:
        if len(other) != len(self._entries):
            raise ConfigurationError(
                f"register arrays of different sizes: "
                f"{len(self._entries)} vs {len(other)}"
            )
