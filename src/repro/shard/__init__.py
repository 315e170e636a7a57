"""Sharded snapshot fabric: scale out by running K clusters as one.

One n-node SWMR snapshot cluster saturates at ≈1 op/u; the ROADMAP's
north star needs orders of magnitude more.  This package scales *out*:

* :mod:`repro.shard.ring` — the consistent-hash :class:`ShardMap`
  routing keys → shards → register slots, epoch-stamped so
  reconfigurations are values, not mutations.
* :mod:`repro.shard.epoch` — the agreement seam deciding successor
  maps (:class:`EpochDecider`; the self-stabilizing multivalued
  consensus of ROADMAP item 5 slots in here).
* :mod:`repro.shard.fabric` — the :class:`ShardedFabric`: keyed writes
  and scans submitted under each cluster's own dispatch discipline,
  composed cross-shard snapshots via double collect with a writes-only
  fence, and online shard splits that never lose or duplicate an
  in-flight operation.
* :mod:`repro.shard.check` — two-layer linearizability checking
  (per-shard histories + composed cuts).
* :mod:`repro.shard.chaos` — the split-under-storm endurance campaign.

Keyed load with the Zipf hot-shard dial is the one load driver's
``run_load(..., shards=K)`` (:mod:`repro.load`), which also carries the
E19 scaling experiment.

Most callers want :class:`repro.client.SnapshotClient`, which wraps a
fabric behind a three-method facade.
"""

from repro.shard.chaos import (
    ShardChaosReport,
    run_shard_chaos,
    run_shard_chaos_campaigns,
)
from repro.shard.check import check_fabric
from repro.shard.epoch import EpochDecider, LocalEpochDecider
from repro.shard.fabric import (
    ComposedSnapshot,
    KeyView,
    ShardedFabric,
    SplitReport,
    build_sim_fabric,
    create_fabric,
    run_on_fabric,
)
from repro.shard.ring import DEFAULT_VNODES, ShardMap, key_bytes, stable_hash

__all__ = [
    "DEFAULT_VNODES",
    "ComposedSnapshot",
    "EpochDecider",
    "KeyView",
    "LocalEpochDecider",
    "ShardChaosReport",
    "ShardMap",
    "ShardedFabric",
    "SplitReport",
    "build_sim_fabric",
    "check_fabric",
    "create_fabric",
    "key_bytes",
    "run_on_fabric",
    "run_shard_chaos",
    "run_shard_chaos_campaigns",
    "stable_hash",
]
