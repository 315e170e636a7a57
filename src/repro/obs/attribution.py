"""Critical-path attribution: *which node* made an operation slow.

Every client phase in the paper is ``repeat broadcast until majority`` —
Θ(n) messages per operation — so one slow-but-alive responder can sit in
the tail of every operation without ever being *absent*.  The quorum
layer records one :class:`QuorumRound` per :class:`~repro.net.quorum.
AckCollector` lifetime: request start time, per-responder request→reply
latency (first reply per responder, **including replies that arrive
after the quorum completed** — those are exactly the limping node's),
and the *completer*, the responder whose reply decided the round (for
most rounds, the one that reached the threshold).

The reducers in this module run offline over the recorded span tree:

* :func:`attribute_op` names the slowest responder and the dominant
  phase of a single operation span;
* :func:`blame_table` aggregates attributions into one row per node —
  how often it was the op's slowest responder, and what latency the
  cluster observed towards it;
* :func:`dominant_phases` tallies where operation time went by phase.

Nothing here touches the hot path: recording happens behind ``obs is
not None`` tests in :mod:`repro.net.quorum` / :mod:`repro.net.node`, and
the reducers only ever read finished spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.spans import Span

__all__ = [
    "QuorumRound",
    "OpAttribution",
    "attribute_op",
    "attribute_ops",
    "blame_aggregate",
    "merge_blame",
    "blame_rows",
    "blame_table",
    "dominant_phases",
    "slowest_node",
]


@dataclass(slots=True)
class QuorumRound:
    """Per-responder timing of one ``broadcast … until threshold`` round."""

    #: Reply message kind awaited (e.g. ``"WRITEack"``).
    kind: str
    #: Requester node id.
    node: int
    #: Kernel time of the first broadcast (collector entry).
    start: float
    #: Replies needed to complete the round.
    threshold: int
    #: Kernel time the round ended (``None`` while it runs).
    end: float | None = None
    #: Responder whose accepted reply decided the round: the one that
    #: reached the threshold, or for a snapshot query round the one that
    #: made its replies decide it.  ``None`` for a round that ended at a
    #: retransmission instant undecided.
    completer: int | None = None
    #: Responder id -> first-reply latency relative to ``start``.  Late
    #: replies (after ``end``) keep accumulating here — that is the
    #: whole point: the limping node shows up *because* it missed the
    #: quorum, not despite it.
    replies: dict[int, float] = field(default_factory=dict)

    def record(self, sender: int, now: float) -> None:
        """Record ``sender``'s first reply to this round (duplicates ignored)."""
        if sender not in self.replies:
            self.replies[sender] = now - self.start

    @property
    def duration(self) -> float | None:
        """Time from first broadcast to threshold (``None`` if unsatisfied)."""
        if self.end is None:
            return None
        return self.end - self.start

    def slowest(self) -> tuple[int, float] | None:
        """``(responder, latency)`` of the slowest recorded reply."""
        if not self.replies:
            return None
        responder = max(self.replies, key=lambda k: (self.replies[k], k))
        return responder, self.replies[responder]

    def to_dict(self) -> dict:
        """A JSON-ready view (used by the JSONL exporter and span dumps)."""
        return {
            "kind": self.kind,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "threshold": self.threshold,
            "completer": self.completer,
            "replies": {str(k): v for k, v in sorted(self.replies.items())},
        }


@dataclass(slots=True)
class OpAttribution:
    """Where one operation's time went: slowest responder, dominant phase."""

    span_id: int
    op_id: int | None
    name: str
    node: int
    duration: float
    #: Responder with the largest observed request→reply latency across
    #: the op's rounds (``None`` when the op ran no quorum rounds).
    slowest_responder: int | None
    slowest_latency: float
    #: Responder that completed the op's longest round (the reply the
    #: requester was actually waiting for).
    completer: int | None
    dominant_phase: str
    #: Fraction of the op's duration spent in the dominant phase.
    dominant_share: float
    rounds: int

    def to_dict(self) -> dict:
        """A JSON-ready view of the attribution record."""
        return {
            "span_id": self.span_id,
            "op_id": self.op_id,
            "name": self.name,
            "node": self.node,
            "duration": self.duration,
            "slowest_responder": self.slowest_responder,
            "slowest_latency": self.slowest_latency,
            "completer": self.completer,
            "dominant_phase": self.dominant_phase,
            "dominant_share": self.dominant_share,
            "rounds": self.rounds,
        }


def _phase_segments(span: Span) -> list[tuple[str, float]]:
    """``(label, length)`` segments of the span, split at phase marks."""
    end = span.end if span.end is not None else span.start
    if not span.phases:
        return [(span.name, end - span.start)]
    segments: list[tuple[str, float]] = []
    lead = span.phases[0][0] - span.start
    if lead > 0.0:
        segments.append(("dispatch", lead))
    for position, (time, label) in enumerate(span.phases):
        until = (
            span.phases[position + 1][0]
            if position + 1 < len(span.phases)
            else end
        )
        segments.append((label, max(until - time, 0.0)))
    return segments


def attribute_op(span: Span) -> OpAttribution | None:
    """Reduce one finished operation span to its attribution record.

    Returns ``None`` for spans that never closed (no duration to
    attribute).  The slowest responder is taken over *all* recorded
    replies of all rounds — including post-quorum stragglers — with ties
    broken towards the higher node id, deterministically.
    """
    if span.end is None or span.node is None:
        return None
    slowest_responder: int | None = None
    slowest_latency = 0.0
    completer: int | None = None
    longest_round = -1.0
    for rnd in span.rounds:
        worst = rnd.slowest()
        if worst is not None and (
            slowest_responder is None
            or (worst[1], worst[0]) > (slowest_latency, slowest_responder)
        ):
            slowest_responder, slowest_latency = worst
        duration = rnd.duration
        if duration is not None and duration > longest_round:
            longest_round = duration
            completer = rnd.completer
    segments = _phase_segments(span)
    label, length = max(segments, key=lambda seg: seg[1])
    duration = span.end - span.start
    return OpAttribution(
        span_id=span.span_id,
        op_id=span.op_id,
        name=span.name,
        node=span.node,
        duration=duration,
        slowest_responder=slowest_responder,
        slowest_latency=slowest_latency,
        completer=completer,
        dominant_phase=label,
        dominant_share=length / duration if duration > 0 else 1.0,
        rounds=len(span.rounds),
    )


def attribute_ops(spans: Iterable[Span]) -> list[OpAttribution]:
    """Attribution records for every finished operation span."""
    records = []
    for span in spans:
        if span.parent_id is None:
            continue
        record = attribute_op(span)
        if record is not None:
            records.append(record)
    return records


def blame_aggregate(spans: Iterable[Span]) -> dict:
    """Mergeable per-node blame aggregate over all attributed operations.

    The shape is plain dicts (pickle/JSON-safe) so parallel workers can
    ship it to the parent session and :func:`merge_blame` can fold
    several together: ``{"attributed": N, "nodes": {id: {blamed,
    completed, replies, latency_sum, latency_max}}}``.
    """
    spans = list(spans)
    records = attribute_ops(spans)
    attributed = [r for r in records if r.slowest_responder is not None]
    nodes: dict[int, dict] = {}

    def entry(node: int) -> dict:
        return nodes.setdefault(
            node,
            {
                "blamed": 0,
                "completed": 0,
                "replies": 0,
                "latency_sum": 0.0,
                "latency_max": 0.0,
            },
        )

    for record in attributed:
        entry(record.slowest_responder)["blamed"] += 1
        if record.completer is not None:
            entry(record.completer)["completed"] += 1
    for span in spans:
        for rnd in span.rounds:
            for responder, latency in rnd.replies.items():
                row = entry(responder)
                row["replies"] += 1
                row["latency_sum"] += latency
                if latency > row["latency_max"]:
                    row["latency_max"] = latency
    return {"attributed": len(attributed), "nodes": nodes}


def merge_blame(into: dict, other: dict) -> None:
    """Fold one :func:`blame_aggregate` into another, in place."""
    into["attributed"] += other["attributed"]
    for node, row in other["nodes"].items():
        node = int(node)
        target = into["nodes"].setdefault(
            node,
            {
                "blamed": 0,
                "completed": 0,
                "replies": 0,
                "latency_sum": 0.0,
                "latency_max": 0.0,
            },
        )
        target["blamed"] += row["blamed"]
        target["completed"] += row["completed"]
        target["replies"] += row["replies"]
        target["latency_sum"] += row["latency_sum"]
        target["latency_max"] = max(target["latency_max"], row["latency_max"])


def blame_rows(aggregate: dict) -> list[dict]:
    """Render a blame aggregate as per-node table rows, sorted by node."""
    total = aggregate["attributed"]
    rows = []
    for node in sorted(aggregate["nodes"], key=int):
        row = aggregate["nodes"][node]
        count = row["replies"]
        rows.append(
            {
                "node": int(node),
                "blamed": row["blamed"],
                "blame_share": row["blamed"] / total if total else 0.0,
                "completed": row["completed"],
                "replies": count,
                "mean_reply": row["latency_sum"] / count if count else 0.0,
                "max_reply": row["latency_max"],
            }
        )
    return rows


def blame_table(spans: Iterable[Span]) -> list[dict]:
    """Per-node blame rows aggregated over all attributed operations.

    Each row carries: the node id, how many ops named it the slowest
    responder (``blamed``), that count as a fraction of attributed ops
    (``blame_share``), how many rounds it completed (``completed``), and
    the mean/max request→reply latency the cluster observed towards it.
    Rows are sorted by node id; nodes that never replied still get a row
    if another node blamed them, with zero reply statistics.
    """
    return blame_rows(blame_aggregate(spans))


def dominant_phases(spans: Iterable[Span]) -> dict[str, float]:
    """Total time spent per phase label across all finished op spans."""
    totals: dict[str, float] = {}
    for span in spans:
        if span.parent_id is None or span.end is None:
            continue
        for label, length in _phase_segments(span):
            totals[label] = totals.get(label, 0.0) + length
    return dict(sorted(totals.items()))


def slowest_node(spans: Iterable[Span]) -> tuple[int, float] | None:
    """``(node, blame_share)`` of the most-blamed node, or ``None``."""
    rows = blame_table(list(spans))
    if not rows:
        return None
    top = max(rows, key=lambda row: (row["blamed"], -row["node"]))
    if top["blamed"] == 0:
        return None
    return top["node"], top["blame_share"]
