"""Sharded snapshot fabric: scale out by running K clusters as one.

One n-node SWMR snapshot cluster saturates at ≈1 op/u; the ROADMAP's
north star needs orders of magnitude more.  This package scales *out*:

* :mod:`repro.shard.ring` — the consistent-hash :class:`ShardMap`
  routing keys → shards → register slots, epoch-stamped so
  reconfigurations are values, not mutations.
* :mod:`repro.shard.epoch` — :class:`ConsensusEpochDecider`, which
  decides successor maps by the self-stabilizing multivalued consensus
  of :mod:`repro.consensus`.
* :mod:`repro.shard.fabric` — the :class:`ShardedFabric`: keyed writes
  and scans submitted under each cluster's own dispatch discipline,
  composed cross-shard snapshots via double collect with a writes-only
  fence, and online epoch changes (shard splits, cluster
  reconfigurations) that never lose or duplicate an in-flight operation.
* :mod:`repro.shard.check` — the one snapshot checker, run on every
  shard's history and once on the fabric's own history, whose registers
  are keys (keyed writes, keyed reads, composed cuts).

Keyed load with the Zipf hot-shard dial is the one load driver's
``run_load(..., shards=K)`` (:mod:`repro.load`), which also carries the
E19 scaling experiment; fault storms with a split and a reconfiguration
are fuzz programs on a fabric (``generate_spec(..., shards=K)``,
:mod:`repro.fuzz`).

Most callers want :class:`repro.client.SnapshotClient`, which wraps a
fabric behind a three-method facade.
"""

from repro.shard.check import check_fabric
from repro.shard.epoch import ConsensusEpochDecider
from repro.shard.fabric import (
    ComposedSnapshot,
    EpochReport,
    KeyView,
    ShardedFabric,
    build_sim_fabric,
    create_fabric,
    run_on_fabric,
)
from repro.shard.ring import DEFAULT_VNODES, ShardMap, key_bytes, stable_hash

__all__ = [
    "DEFAULT_VNODES",
    "ComposedSnapshot",
    "ConsensusEpochDecider",
    "EpochReport",
    "KeyView",
    "ShardMap",
    "ShardedFabric",
    "build_sim_fabric",
    "check_fabric",
    "create_fabric",
    "key_bytes",
    "run_on_fabric",
    "stable_hash",
]
