"""Correctness checking for sharded histories.

A fabric claims to be one SWMR snapshot object, so it is checked by the
checker every cluster uses
(:func:`repro.analysis.linearizability.check_snapshot_history`), once
per shard and once over the keys:

* **per shard** — every shard (and every cluster a reconfiguration
  retired) is a complete snapshot object whose registers are slots, and
  its own history must pass unchanged.  A composed cut's shard vectors
  are that shard's snapshot results, so they are checked here.
* **keys** — the fabric's own history
  (:attr:`~repro.shard.fabric.ShardedFabric.history`) is a snapshot
  history whose registers are keys: a keyed write writes register ``i``
  (the key's index at first sight) with ts = its seq, a keyed read reads
  it, and a composed cut is a snapshot of every key's ``(seq, value)``.
  Seqs survive migration, so the one history spans every epoch.  A cut
  taken before later keys were first seen has a shorter vector; it is
  padded with ⊥ entries (ts 0) up to the final key count.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Iterable

from repro.analysis.history import SNAPSHOT, OperationRecord
from repro.analysis.linearizability import check_snapshot_history
from repro.core.base import SnapshotResult
from repro.errors import HistoryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.fabric import ShardedFabric

__all__ = ["check_fabric", "check_key_history", "check_shard_histories"]


def _violations(
    label: str,
    records: Iterable[OperationRecord],
    n: int,
    labels: list[str] | None = None,
) -> list[str]:
    try:
        report = check_snapshot_history(records, n, labels=labels)
    except HistoryError as exc:
        return [f"{label}: malformed history: {exc}"]
    return [f"{label}: {violation}" for violation in report.violations]


def check_shard_histories(fabric: "ShardedFabric") -> list[str]:
    """Run the single-object linearizability checker on every shard,
    and on every cluster a reconfiguration retired."""
    failures: list[str] = []
    clusters = [
        (f"shard{sid}", fabric.shard(sid)) for sid in sorted(fabric.shard_ids)
    ] + [(f"shard{sid} (retired)", backend) for sid, backend in fabric.retired]
    for label, backend in clusters:
        try:
            backend.history.validate_well_formed(
                sequential=not backend.concurrent_clients
            )
        except HistoryError as exc:
            failures.append(f"{label}: malformed history: {exc}")
            continue
        failures += _violations(
            label, backend.history.records(), backend.config.n
        )
    return failures


def _padded(record: OperationRecord, n: int) -> OperationRecord:
    """``record``, a cut's vector extended with ⊥ entries to ``n`` keys."""
    if record.kind != SNAPSHOT or record.result is None:
        return record
    missing = n - len(record.result.vector_clock)
    if not missing:
        return record
    return replace(
        record,
        result=SnapshotResult(
            record.result.values + (None,) * missing,
            record.result.vector_clock + (0,) * missing,
        ),
    )


def check_key_history(fabric: "ShardedFabric") -> list[str]:
    """Check the fabric's keyed writes, keyed reads and composed cuts;
    a violation names each key it concerns (``key 'a'``)."""
    n = len(fabric.key_index)
    labels = [""] * n
    for key, index in fabric.key_index.items():
        labels[index] = f"key {key!r}"
    records = [_padded(record, n) for record in fabric.history.records()]
    return _violations("keys", records, n, labels)


def check_fabric(fabric: "ShardedFabric") -> list[str]:
    """Every check; empty list means the sharded run was linearizable."""
    return check_shard_histories(fabric) + check_key_history(fabric)
