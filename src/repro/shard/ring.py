"""Consistent-hash shard routing: keys → shards → register slots.

One n-node snapshot cluster saturates at roughly one operation per time
unit (the ``load --sweep`` knee), so scaling *out* means many independent
clusters — **shards** — behind a keyspace router.  The router must keep
two promises:

* **balance** — with ``K`` shards each owns ≈ ``1/K`` of the keyspace.
  A plain ``hash(key) % K`` does that, but remaps *every* key when ``K``
  changes.  Consistent hashing (Karger et al.) places ``vnodes`` points
  per shard on a hash ring and assigns each key to the next point
  clockwise, so adding one shard to ``K`` only remaps the ≈ ``1/(K+1)``
  of keys whose arcs the new shard's points land in.
* **stability** — routing must be a pure function of the
  :class:`ShardMap` value, identical across processes and Python runs.
  Everything here hashes with BLAKE2b, never the salted builtin
  ``hash``.

A :class:`ShardMap` is an immutable *epoch-stamped* value: every
reconfiguration (shard split / migration) produces a successor map with
``epoch + 1`` via :meth:`ShardMap.grown`.  The
:class:`~repro.shard.fabric.ShardedFabric` installs successor maps only
at operation-quiescent points, and every operation re-checks the
installed epoch when it executes, which is how in-flight operations
route correctly across a split (see ``docs/sharding.md``).

Within a shard, a key maps to one of the cluster's ``n`` register
*slots* (the paper's model is SWMR: node ``i`` owns register ``i``; the
fabric plays the sequential writer for each slot it routes keys to).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Any, Iterable

from repro.errors import ConfigurationError

__all__ = ["DEFAULT_VNODES", "ShardMap", "key_bytes", "stable_hash"]

#: Ring points per shard.  Balance error shrinks like ``1/sqrt(vnodes)``;
#: 256 points per shard keeps the max/min key-share ratio comfortably
#: under 1.3 at K=8 (asserted by the router property tests) while ring
#: construction stays trivially cheap (K*256 sorted integers per epoch).
DEFAULT_VNODES = 256


def key_bytes(key: Any) -> bytes:
    """Canonical byte encoding of a routing key.

    ``str`` and ``bytes`` pass through (utf-8 for ``str``); ints use
    their decimal spelling; anything else routes by ``repr`` — stable
    enough for tests and tooling, but production keys should be strings.
    """
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, int):
        return b"i:%d" % key
    return repr(key).encode("utf-8")


def stable_hash(data: bytes, salt: bytes = b"") -> int:
    """A 64-bit process-independent hash (BLAKE2b, optionally salted)."""
    return int.from_bytes(
        blake2b(data, digest_size=8, person=salt[:16].ljust(16, b"\0")).digest(),
        "big",
    )


@dataclass(frozen=True)
class ShardMap:
    """An epoch-stamped consistent-hash routing table.

    Attributes
    ----------
    epoch:
        Monotone reconfiguration counter.  Two maps with the same epoch
        are identical; the fabric treats a larger epoch as the successor
        configuration (decided by
        :class:`~repro.shard.epoch.ConsensusEpochDecider`).
    shard_ids:
        The shard identifiers in the configuration (sorted).
    vnodes:
        Ring points per shard.
    """

    epoch: int
    shard_ids: tuple[int, ...]
    vnodes: int = DEFAULT_VNODES
    #: Sorted ring as parallel (points, owners) lists; derived, excluded
    #: from equality so two maps are equal iff their declared fields are.
    _ring: tuple[tuple[int, ...], tuple[int, ...]] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if not self.shard_ids:
            raise ConfigurationError("a shard map needs at least one shard")
        if len(set(self.shard_ids)) != len(self.shard_ids):
            raise ConfigurationError(
                f"duplicate shard ids in {self.shard_ids}"
            )
        if self.vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {self.vnodes}")
        if self.epoch < 0:
            raise ConfigurationError(f"epoch must be >= 0, got {self.epoch}")
        object.__setattr__(
            self, "shard_ids", tuple(sorted(self.shard_ids))
        )
        points: list[tuple[int, int]] = []
        for shard_id in self.shard_ids:
            for replica in range(self.vnodes):
                point = stable_hash(
                    b"s:%d:r:%d" % (shard_id, replica), salt=b"ring"
                )
                points.append((point, shard_id))
        points.sort()
        object.__setattr__(
            self,
            "_ring",
            (
                tuple(p for p, _ in points),
                tuple(owner for _, owner in points),
            ),
        )

    # -- routing -----------------------------------------------------------

    @property
    def shards(self) -> int:
        """Number of shards in the configuration."""
        return len(self.shard_ids)

    def lookup(self, key: Any) -> int:
        """The shard owning ``key``: next ring point clockwise of its hash."""
        points, owners = self._ring
        index = bisect_right(points, stable_hash(key_bytes(key), salt=b"key"))
        if index == len(points):
            index = 0
        return owners[index]

    def slot(self, key: Any, n: int) -> tuple[int, int]:
        """``(shard_id, node_id)``: the register slot ``key`` lives in.

        The node draw uses an independent salt so the within-shard
        placement is uncorrelated with the ring position.
        """
        return (
            self.lookup(key),
            stable_hash(key_bytes(key), salt=b"slot") % n,
        )

    # -- reconfiguration ---------------------------------------------------

    def grown(self, new_shard_id: int | None = None) -> "ShardMap":
        """The successor map (epoch + 1) with one more shard.

        Consistent hashing makes this a keyspace *split*: the new
        shard's ring points subdivide existing arcs, so only the keys
        landing on stolen arcs — ≈ ``1/(K+1)`` of the keyspace — change
        owner, and every one of them moves *to* the new shard.
        """
        if new_shard_id is None:
            new_shard_id = max(self.shard_ids) + 1
        if new_shard_id in self.shard_ids:
            raise ConfigurationError(
                f"shard id {new_shard_id} already in the map"
            )
        return ShardMap(
            epoch=self.epoch + 1,
            shard_ids=self.shard_ids + (new_shard_id,),
            vnodes=self.vnodes,
        )

    # -- diagnostics -------------------------------------------------------

    def share_by_shard(self, keys: Iterable[Any]) -> dict[int, int]:
        """How many of ``keys`` each shard owns (balance diagnostics)."""
        counts = {shard_id: 0 for shard_id in self.shard_ids}
        for key in keys:
            counts[self.lookup(key)] += 1
        return counts

    def describe(self) -> dict[str, Any]:
        """Plain-dict summary (CLI / JSON tooling)."""
        return {
            "epoch": self.epoch,
            "shards": list(self.shard_ids),
            "vnodes": self.vnodes,
        }
