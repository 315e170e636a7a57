"""Correctness checking for sharded histories.

Two layers, matching the fabric's two-layer guarantee:

* **per shard** — every shard is a complete snapshot object, so its own
  history must pass the PR-1 linearizability checker
  (:func:`repro.analysis.linearizability.check_snapshot_history`)
  unchanged: per-writer timestamp monotonicity, total ⪯-order of
  snapshot vectors, real-time order, value agreement.  Because each key
  lives in exactly one slot and the fabric is that slot's only writer,
  per-shard atomicity *is* per-key atomicity.
* **composed** — the cross-shard cuts and fabric-level writes must
  linearize with each other: composed vectors within an epoch must be
  ⪯-comparable and respect real-time order; each key's sequence number
  (global across epochs — migration preserves it) must be monotone
  across real-time-ordered cuts; and a cut must contain every write
  that responded before it was invoked and no write invoked after it
  responded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.analysis.linearizability import check_snapshot_history

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.fabric import ComposedSnapshot, ShardedFabric

__all__ = ["check_composed_records", "check_fabric", "check_shard_histories"]


def check_shard_histories(fabric: "ShardedFabric") -> list[str]:
    """Run the single-object linearizability checker on every shard."""
    failures: list[str] = []
    for shard_id in sorted(fabric.shard_ids):
        backend = fabric.shard(shard_id)
        try:
            backend.history.validate_well_formed(
                sequential=not backend.concurrent_clients
            )
        except Exception as exc:  # noqa: BLE001 - folded into the report
            failures.append(f"shard{shard_id}: malformed history: {exc}")
            continue
        report = check_snapshot_history(
            backend.history.records(), backend.config.n
        )
        if not report.ok:
            failures.extend(
                f"shard{shard_id}: {violation}"
                for violation in report.violations
            )
    return failures


def _vc_leq(a: "ComposedSnapshot", b: "ComposedSnapshot") -> bool:
    return all(
        all(x <= y for x, y in zip(a.shard_vectors[sid], b.shard_vectors[sid]))
        for sid in a.shard_vectors
    )


def _holder_above(
    cut: "ComposedSnapshot", fronts: dict[int, list[tuple[int, int | None]]]
) -> int | None:
    """The cut holding a frontier entry that ``cut``'s vector is below."""
    for sid, front in fronts.items():
        for (ts, holder), got in zip(front, cut.shard_vectors[sid]):
            if got < ts:
                return holder
    return None


def check_composed_records(fabric: "ShardedFabric") -> list[str]:
    """Check composed cuts against each other and the per-key writes."""
    failures: list[str] = []
    composed = list(fabric.composed)
    items: list[dict[Any, tuple[int, Any]]] = [c.items() for c in composed]

    # 1. Within an epoch, composed vectors form a total ⪯-order
    #    (atomicity of the composed object, lifted from condition 3 of
    #    the single-object checker).
    by_epoch: dict[int, list[int]] = {}
    for index, cut in enumerate(composed):
        by_epoch.setdefault(cut.epoch, []).append(index)
    for epoch, indices in by_epoch.items():
        ordered = sorted(
            indices,
            key=lambda i: sum(
                sum(vc) for vc in composed[i].shard_vectors.values()
            ),
        )
        for earlier, later in zip(ordered, ordered[1:]):
            if not _vc_leq(composed[earlier], composed[later]):
                failures.append(
                    f"composed cuts {earlier} and {later} (epoch {epoch}) "
                    f"are ⪯-incomparable"
                )

    # 2 + 3. Real-time order, by the same sort-and-sweep as the
    #    single-object checker: visit invocations in time order, first
    #    folding in every response strictly before the one at hand.
    #      written[key]       — largest seq over responded writes
    #      seen[key]          — largest seq over responded cuts, and the cut
    #      newest[epoch][sid] — per vector entry, the largest value over
    #                           that epoch's responded cuts, and the cut
    #    A cut is compared against all three at its invocation: it must
    #    be ⪰ the responded cuts of its epoch, must not show a smaller seq
    #    for any key (any epoch — seqs survive migration), and must
    #    contain every responded write (condition 5a of the single-object
    #    checker, restated over per-key seqs).  A write is compared
    #    against ``seen`` at its invocation: no responded cut may already
    #    contain it (condition 5b).
    #
    # 4. Per-key seqs are unique, and a write that responded strictly
    #    before another to the same key was invoked has the smaller seq
    #    (``written`` at the later one's invocation).  Nothing is read
    #    off the order of ``fabric.writes``: a group commit completes
    #    several writes at one instant and their records are appended in
    #    whatever order the scheduler resumes them.
    written: dict[Any, int] = {}
    taken: set[tuple[Any, int]] = set()
    seen: dict[Any, tuple[int, int]] = {}
    newest: dict[int, dict[int, list[tuple[int, int | None]]]] = {}
    ops = [(cut, j) for j, cut in enumerate(composed)]
    ops += [(w, None) for w in fabric.writes]
    responses = sorted(ops, key=lambda op: op[0].responded)
    responded = 0
    for op, j in sorted(ops, key=lambda op: op[0].invoked):
        while (
            responded < len(responses)
            and responses[responded][0].responded < op.invoked
        ):
            done, i = responses[responded]
            responded += 1
            if i is None:
                written[done.key] = max(written.get(done.key, 0), done.seq)
                continue
            for key, (seq, _) in items[i].items():
                if key not in seen or seq > seen[key][0]:
                    seen[key] = (seq, i)
            fronts = newest.setdefault(done.epoch, {})
            for sid, vc in done.shard_vectors.items():
                front = fronts.setdefault(sid, [(0, None)] * len(vc))
                for k, ts in enumerate(vc):
                    if ts > front[k][0]:
                        front[k] = (ts, i)

        if j is None:
            if (op.key, op.seq) in taken:
                failures.append(
                    f"write seq not unique for key {op.key!r}: #{op.seq}"
                )
            taken.add((op.key, op.seq))
            if written.get(op.key, 0) >= op.seq:
                failures.append(
                    f"write seq not increasing for key {op.key!r}: "
                    f"#{op.seq} invoked after #{written[op.key]} responded"
                )
            seq, i = seen.get(op.key, (0, None))
            if i is not None and seq >= op.seq:
                failures.append(
                    f"composed cut {i} saw future write {op.key!r}#{op.seq} "
                    f"invoked after it responded"
                )
            continue

        older_than = _holder_above(op, newest.get(op.epoch, {}))
        if older_than is not None:
            failures.append(
                f"composed cut {j} (after {older_than} in real time) "
                f"returned an older vector"
            )
        for key, (seq, i) in seen.items():
            entry = items[j].get(key)
            if entry is None or entry[0] < seq:
                failures.append(
                    f"composed cut {j} (after {i} in real time) lost "
                    f"key {key!r}: seq {seq} regressed to "
                    f"{entry[0] if entry else 'absent'}"
                )
        for key, seq in written.items():
            entry = items[j].get(key)
            got = entry[0] if entry is not None else 0
            if got < seq:
                failures.append(
                    f"composed cut {j} misses write {key!r}#{seq} "
                    f"that preceded it (saw seq {got})"
                )

    return failures


def check_fabric(fabric: "ShardedFabric") -> list[str]:
    """Every check; empty list means the sharded run was linearizable."""
    return check_shard_histories(fabric) + check_composed_records(fabric)
