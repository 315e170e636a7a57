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

A ``WRITEack``/``SNAPSHOTack`` carries *ack items* (:data:`AckItem`), one
per entry, relative to the request it answers: the server's entry where
its timestamp differs from the request's, otherwise that timestamp alone
(:meth:`RegisterArray.reply_to`, :meth:`RegisterArray.merge_items`,
:func:`ack_clock`).  A ``WRITE``/``SNAPSHOT`` request is a tuple of the
same items, relative to a floor of timestamps every receiver is known
to hold (:meth:`RegisterArray.items_above`); a :class:`RegisterArray`
is a valid request too, every entry shipped.

A value that is a :class:`KeyMap` (the sharded fabric's slot maps) has a
content digest, so its writer can ship a new entry as a :class:`KeyDelta`
— the items that changed since a base, checked against the base's
digest — instead of the whole map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "TimestampedValue",
    "BOTTOM",
    "RegisterArray",
    "AckItem",
    "ack_clock",
    "KeyMap",
    "EMPTY_KEY_MAP",
    "KeyDelta",
]


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

#: One entry of a register-array ack: the server's ``reg[j]`` where it is
#: news to the requester, otherwise the bare timestamp ``reg[j].ts``.
AckItem = TimestampedValue | int


def ack_clock(items: Sequence[AckItem]) -> tuple[int, ...]:
    """The timestamps an ack names, one per entry, shipped or elided."""
    return tuple([item if isinstance(item, int) else item.ts for item in items])


class RegisterArray:
    """The per-node buffer ``reg``: one :class:`TimestampedValue` per node.

    Supports the pointwise lattice operations the algorithms use:

    * ``reg[k] ← max(reg[k], other[k])`` for all ``k`` — :meth:`merge_from`;
    * pointwise comparison ``⪯`` — :meth:`precedes_or_equals`;
    * equality of whole entries, values included (snapshot rounds test
      timestamps only, through :func:`ack_clock` and :meth:`vector_clock`);
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

    def reply_to(self, request: Sequence[AckItem]) -> tuple[AckItem, ...]:
        """The ack items answering ``request``, which is already merged in.

        Entry ``j`` ships where its timestamp differs from the one
        ``request[j]`` names (shipped or elided) and is the bare
        timestamp otherwise: the requester held that entry when it sent
        the request, so it is no news to it.  Decided from the request
        alone, so the server keeps nothing about the exchange.
        """
        return tuple(
            [
                mine.ts
                if mine.ts == (theirs if isinstance(theirs, int) else theirs.ts)
                else mine
                for mine, theirs in zip(self._entries, request)
            ]
        )

    def items_above(self, floor: Sequence[int]) -> tuple[AckItem, ...]:
        """This array as request items: entry ``j`` whole where its
        timestamp is above ``floor[j]``, the bare timestamp elsewhere.

        ``floor`` is what every receiver is known to hold, so an elided
        entry is one each of them has already, and merging the items
        (:meth:`merge_items`) leaves it as merging the array would.
        """
        self._check_compatible(floor)
        return tuple(
            [
                entry if entry.ts > low else entry.ts
                for entry, low in zip(self._entries, floor)
            ]
        )

    def merge_items(self, items: Sequence[AckItem]) -> None:
        """Join the entries a request or an ack shipped; an elided one adds
        nothing.

        An elided ack item stands for the entry of the request it answers,
        not for the current one: ``reg`` only grows, so that entry is
        already here unless a fault lowered it since, and then the next
        round's ack ships it, the server being above that round's request.
        An elided request item names an entry the requester knows this
        server held; one a fault lowered since is named in the reply, and
        the next transmission ships it.
        """
        self._check_compatible(items)
        self._entries = [
            mine if isinstance(theirs, int) else mine.max_with(theirs)
            for mine, theirs in zip(self._entries, items)
        ]

    def copy(self) -> "RegisterArray":
        """An independent copy (the ``let prev := reg`` / ``lReg := reg``)."""
        return RegisterArray(list(self._entries))

    def vector_clock(self) -> tuple[int, ...]:
        """The timestamps-only view ``VC`` (Algorithm 3, line 69)."""
        return tuple([entry.ts for entry in self._entries])

    def snapshot_values(self) -> tuple[Any, ...]:
        """The object values, as a snapshot operation returns them."""
        return tuple(entry.value for entry in self._entries)

    def max_timestamp(self) -> int:
        """Largest write index present — used by the bounded-counter wrapper."""
        return max(entry.ts for entry in self._entries)

    def _check_compatible(self, other: Sequence[Any]) -> None:
        if len(other) != len(self._entries):
            raise ConfigurationError(
                f"register arrays of different sizes: "
                f"{len(self._entries)} vs {len(other)}"
            )


_DIGEST_MASK = (1 << 64) - 1
_MISSING = object()


def _item_digest(key: Any, item: Any) -> int:
    """64 bits of BLAKE2b over ``repr((key, item))``.

    ``repr`` of the str, bytes, int and tuple keys and items the fabric
    writes is the same in every process, unlike ``hash`` of a str.
    """
    text = repr((key, item)).encode()
    return int.from_bytes(blake2b(text, digest_size=8).digest(), "big")


class KeyMap(dict):
    """A frozen key → item map with a content digest.

    The sharded fabric's register values: ``{key: (seq, value)}``.  It is
    a ``dict`` for every reader (equality, ``repr``, size and iteration
    are a dict's), but nothing may change it once built, so a digest
    taken once stays true and a map can be shared by reference like the
    :class:`TimestampedValue` holding it.

    :attr:`digest` is the sum of a 64-bit hash of each item, modulo
    2⁶⁴, so equal contents have equal digests whatever their insertion
    order.  A map remembers each item's hash, so :meth:`apply` updates
    the digest by hashing the changed items alone.
    """

    __slots__ = ("_hashes", "_digest")

    def _frozen(self, *args: Any, **kwargs: Any) -> None:
        """Refused: a key map never changes once built."""
        raise TypeError("a KeyMap is frozen; build a new one with apply()")

    __setitem__ = __delitem__ = __ior__ = _frozen
    clear = pop = popitem = setdefault = update = _frozen

    def __reduce__(self) -> tuple:
        return KeyMap, (dict(self),)

    @classmethod
    def of(cls, value: Any) -> "KeyMap | None":
        """``value`` as a key map: ``None`` (``⊥``'s value) is the empty one.

        Any other value that is not a :class:`KeyMap` has no digest, and
        ``None`` is returned for it.
        """
        if value is None:
            return EMPTY_KEY_MAP
        return value if isinstance(value, KeyMap) else None

    @property
    def digest(self) -> int:
        """The content digest, computed once per map."""
        try:
            return self._digest
        except AttributeError:
            self._item_hashes()
            return self._digest

    def _item_hashes(self) -> dict[Any, int]:
        try:
            return self._hashes
        except AttributeError:
            hashes = self._hashes = {
                key: _item_digest(key, item) for key, item in self.items()
            }
            self._digest = sum(hashes.values()) & _DIGEST_MASK
            return hashes

    def delta_since(self, base: "KeyMap", ts: int) -> "KeyDelta | None":
        """This map, written at ``ts``, as the items ``base`` lacks or holds
        differently.

        ``None`` when ``base`` has a key this map does not (a shrunk
        map): no set of items turns ``base`` into it.  The items keep
        this map's order, so ``base.apply_delta(delta)`` equals this map
        in insertion order too.
        """
        changes = []
        fresh = 0
        get = base.get
        for key, item in self.items():
            old = get(key, _MISSING)
            if old is item:
                continue  # the usual case: maps share their unchanged items
            if old is _MISSING:
                fresh += 1
            elif old == item:
                continue
            changes.append((key, item))
        if len(base) + fresh != len(self):
            return None
        hashes = self._item_hashes()
        delta = KeyDelta(ts=ts, base=base.digest, changes=tuple(changes))
        item_hashes = tuple([hashes[key] for key, _ in changes])
        object.__setattr__(delta, "_hashes", item_hashes)
        return delta

    def apply(self, changes: Iterable[tuple[Any, Any]]) -> "KeyMap":
        """A new map: this one with ``changes`` set, digest carried over."""
        changes = tuple(changes)
        return self._with(changes, [_item_digest(*change) for change in changes])

    def apply_delta(self, delta: "KeyDelta") -> "KeyMap":
        """A new map: this one with ``delta``'s changes set."""
        return self._with(delta.changes, delta.item_hashes())

    def _with(
        self, changes: Sequence[tuple[Any, Any]], item_hashes: Sequence[int]
    ) -> "KeyMap":
        hashes = self._item_hashes().copy()
        digest = self._digest
        new = KeyMap(self)
        new._hashes = hashes
        put = dict.__setitem__
        for (key, item), item_hash in zip(changes, item_hashes):
            digest += item_hash - hashes.get(key, 0)
            hashes[key] = item_hash
            put(new, key, item)
        new._digest = digest & _DIGEST_MASK
        return new


#: The value ``⊥`` counts as: the map with no keys.
EMPTY_KEY_MAP = KeyMap()


@dataclass(frozen=True, slots=True)
class KeyDelta:
    """A key-map entry ``(v, ts)`` as the items that changed since a base.

    ``base`` is the :attr:`KeyMap.digest` of the base's value and
    ``changes`` the items of ``v`` the base lacks or holds differently
    (:meth:`KeyMap.delta_since`).  Whoever holds a copy with that
    digest rebuilds ``v`` exactly as ``copy.apply_delta(delta)``; nobody
    else can, so a receiver checks the digest before it applies.

    Like a :class:`TimestampedValue`'s size, the changed items' hashes
    are remembered in a non-compared slot: every receiver of one
    broadcast applies the same delta, and the writer's map knew them
    already.
    """

    ts: int
    base: int
    changes: tuple[tuple[Any, Any], ...]
    _hashes: tuple[int, ...] | None = field(init=False, repr=False, compare=False)

    def item_hashes(self) -> tuple[int, ...]:
        """The hash of each changed item, as :attr:`KeyMap.digest` sums them."""
        hashes = self._hashes
        if hashes is None:
            hashes = tuple([_item_digest(*change) for change in self.changes])
            object.__setattr__(self, "_hashes", hashes)
        return hashes

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hashes", None)
        if self.ts < 0:
            raise ConfigurationError(f"timestamp must be non-negative, got {self.ts}")
        for pair in self.changes:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ConfigurationError(
                    f"a change is a (key, item) pair, got {pair!r}"
                )
            hash(pair[0])
