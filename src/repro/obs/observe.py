"""The observability session: spans + metrics + message trace, wired in.

One :class:`Observability` object is a *session*: it owns a
:class:`~repro.obs.spans.SpanRecorder`, a
:class:`~repro.obs.registry.MetricsRegistry`, and one
:class:`ClusterObs` per attached cluster.  Attaching a cluster

* records its network traffic into a per-cluster
  :class:`~repro.analysis.trace.MessageTrace` (the causal send/deliver
  edges the Chrome exporter turns into flow arrows),
* opens a run-level root span that every operation span nests under,
* hands the kernel a :class:`KernelStats` struct and every process a
  :class:`ProcessObs` struct — the plain-integer hooks the hot paths
  update behind an ``obs is not None`` test.

Sessions can be installed as *ambient* via :func:`session`, in which
case every :class:`~repro.core.cluster.SimBackend` constructed
inside the ``with`` block attaches itself automatically — this is how
``--trace-out`` observes clusters that experiment runners build
internally.

Determinism contract: nothing in this module (or in the hooks it
installs) draws from a kernel RNG or schedules kernel events.  Hooks
append to lists and increment integers only, so enabling observability
cannot perturb a seeded schedule — ``tests/test_determinism_regression``
asserts the golden fingerprints hold with tracing on.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from repro.analysis.trace import MessageTrace
from repro.obs.attribution import QuorumRound, blame_aggregate, merge_blame
from repro.obs.health import STATE_CODES, HealthMonitor, NodeVitals
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import ABORTED, OK, Span, SpanRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backend.sim import SimBackend

__all__ = [
    "KernelStats",
    "ProcessObs",
    "ClusterObs",
    "Observability",
    "session",
    "current_session",
]


class KernelStats:
    """Plain-integer kernel instrumentation (batches, timer pool).

    Attached as ``kernel.obs``; the dispatch loop and ``sleep`` update it
    behind a single ``obs is not None`` test.  Event counts and queue
    depth come from the kernel's own attributes at collect time.
    """

    __slots__ = (
        "batches",
        "batch_events",
        "largest_batch",
        "timer_pool_hits",
        "timer_pool_misses",
    )

    def __init__(self) -> None:
        self.batches = 0
        self.batch_events = 0
        self.largest_batch = 0
        self.timer_pool_hits = 0
        self.timer_pool_misses = 0

    def record_batch(self, size: int) -> None:
        """Account one same-instant dispatch batch of ``size`` events."""
        self.batches += 1
        self.batch_events += size
        if size > self.largest_batch:
            self.largest_batch = size


class ProcessObs:
    """Per-process stabilization/retry counters, attached as ``process.obs``.

    The heal counters are the paper's *corrupted-state detections*: each
    one increments when a self-stabilizing cleanup line actually changed
    state (evidence that a transient fault, restart, or stale message had
    left an inconsistency) rather than merely re-asserting an invariant
    that already held.
    """

    __slots__ = (
        "_owner",
        "node_id",
        "retransmits",
        "ts_heals",
        "sns_heals",
        "vc_clears",
        "task_repairs",
        "reset_invocations",
        "consensus_rounds",
        "consensus_decides",
        "consensus_heals",
        "consensus_recycled",
        "_rounds",
    )

    def __init__(self, owner: "ClusterObs", node_id: int) -> None:
        self._owner = owner
        self.node_id = node_id
        self.retransmits = 0
        self.ts_heals = 0
        self.sns_heals = 0
        self.vc_clears = 0
        self.task_repairs = 0
        self.reset_invocations = 0
        #: Consensus-layer counters (:mod:`repro.consensus`): binary
        #: round transitions, multivalued decides, corrupted-state
        #: repairs, and whole-instance recycles.  The heals stay *out*
        #: of :attr:`detections` — that sum drives the health monitor's
        #: corrupt-suspect classification, which is calibrated on the
        #: snapshot algorithms' own cleanup lines.
        self.consensus_rounds = 0
        self.consensus_decides = 0
        self.consensus_heals = 0
        self.consensus_recycled = 0
        #: Recent quorum rounds per awaited ack kind (bounded FIFO).
        #: Replies attribute to the *oldest* round still missing that
        #: sender, so a straggler's ack for round k is timed against
        #: round k even when the requester is several rounds ahead —
        #: that is how a limping node's true latency gets measured at
        #: all (its replies land after each quorum completed).
        self._rounds: dict[str, deque[QuorumRound]] = {}

    @property
    def detections(self) -> int:
        """Total corrupted-state detections across all heal classes."""
        return self.ts_heals + self.sns_heals + self.vc_clears + self.task_repairs

    def retransmit(self) -> None:
        """Account one quorum-loop retransmission (a repeat broadcast)."""
        self.retransmits += 1
        span = self._owner.active_span(self.node_id)
        if span is not None:
            span.retransmits += 1

    def phase(self, label: str) -> None:
        """Record a phase transition on the node's active operation span."""
        span = self._owner.active_span(self.node_id)
        if span is not None:
            span.phases.append((self._owner.cluster.kernel.now, label))

    # -- quorum attribution ----------------------------------------------------

    #: How many recent rounds per ack kind stay open for late replies.
    #: Must cover the straggler gap: at delay factor ``f`` a limping
    #: node's ack lands roughly ``f × mean_delay / op_interval`` rounds
    #: behind; replies older than the window attribute to the oldest
    #: retained round (still a *large* latency, so blame still lands on
    #: the straggler, just slightly under-measured).
    ROUND_WINDOW = 8

    def begin_round(self, kind: str, threshold: int) -> QuorumRound:
        """Open a quorum round awaiting ``kind`` replies (collector entry).

        The round attaches to the node's active operation span (if any)
        and enters the node's recent-rounds window for its kind; the
        oldest round falls out once the window is full.
        """
        owner = self._owner
        round_ = QuorumRound(
            kind=kind,
            node=self.node_id,
            start=owner.cluster.kernel.now,
            threshold=threshold,
        )
        window = self._rounds.get(kind)
        if window is None:
            window = self._rounds[kind] = deque(maxlen=self.ROUND_WINDOW)
        window.append(round_)
        span = owner.active_span(self.node_id)
        if span is not None:
            span.rounds.append(round_)
        return round_

    def on_reply(self, sender: int, kind: str, now: float) -> None:
        """Attribute one arriving message to a recent round of its kind.

        Called from the deliver path for *every* arriving packet behind
        an ``obs is not None`` test; non-ack kinds miss the dict lookup
        and return immediately.  The reply lands in the oldest windowed
        round still missing this sender (FIFO matching — each request
        draws one reply per responder), so duplicates fall through to
        the round they retransmitted for and true duplicates are
        dropped.  Self-loopback replies are timed for attribution but
        excluded from the responder's vitals (they measure the
        loopback, not the node's service time).
        """
        window = self._rounds.get(kind)
        if window is None:
            return
        for round_ in window:
            if sender not in round_.replies:
                latency = now - round_.start
                if latency < 0.0:
                    return
                round_.replies[sender] = latency
                if sender != self.node_id:
                    self._owner.vitals[sender].record_reply(latency, now)
                return


class ClusterObs:
    """Everything the session knows about one attached cluster."""

    def __init__(
        self,
        session: "Observability",
        cluster: "SimBackend",
        index: int,
        trace_messages: bool = True,
    ) -> None:
        self.session = session
        self.cluster = cluster
        self.index = index
        #: Optional human label for this cluster in exports (the sharded
        #: fabric sets ``"shard<K>"`` so blame/health rows name shards).
        self.label: str | None = None
        self.trace: MessageTrace | None = (
            MessageTrace(cluster.network) if trace_messages else None
        )
        if cluster.kernel.obs is None:
            cluster.kernel.obs = KernelStats()
        self.kernel_stats = cluster.kernel.obs
        self.process_obs: list[ProcessObs] = []
        for process in cluster.processes:
            pobs = ProcessObs(self, process.node_id)
            process.obs = pobs
            self.process_obs.append(pobs)
        #: Per-node reply-path accumulators feeding the health monitor.
        self.vitals: list[NodeVitals] = [
            NodeVitals(process.node_id) for process in cluster.processes
        ]
        self.health = HealthMonitor(self)
        #: node id -> stack of (span, window_cm, window_holder) for the
        #: operations currently open on that node (a node may run one
        #: write and one snapshot concurrently).
        self._active: dict[int, list[tuple[Span, Any, Any]]] = {}
        self.root = session.recorder.begin(
            name="run",
            cluster=index,
            node=None,
            algorithm=cluster.algorithm_name,
            start=cluster.kernel.now,
        )

    # -- span lifecycle --------------------------------------------------------

    def active_span(self, node_id: int) -> Span | None:
        """The innermost open operation span on ``node_id``, if any."""
        stack = self._active.get(node_id)
        return stack[-1][0] if stack else None

    def begin_op(self, node_id: int, name: str, op_id: int) -> Span:
        """Open an operation span and its traffic-attribution window."""
        span = self.session.recorder.begin(
            name=name,
            cluster=self.index,
            node=node_id,
            algorithm=self.cluster.algorithm_name,
            start=self.cluster.kernel.now,
            parent_id=self.root.span_id,
            op_id=op_id,
        )
        window_cm = self.cluster.metrics.window()
        holder = window_cm.__enter__()
        self._active.setdefault(node_id, []).append((span, window_cm, holder))
        return span

    def end_op(self, span: Span, status: str = OK) -> None:
        """Close an operation span, folding in its traffic window."""
        stack = self._active.get(span.node, [])
        for position, (candidate, window_cm, holder) in enumerate(stack):
            if candidate is span:
                del stack[position]
                window_cm.__exit__(None, None, None)
                stats = holder.stats
                span.messages_by_kind = dict(stats.messages_by_kind)
                span.message_bytes = stats.total_bytes
                span.batch_bundles = stats.batches
                span.batch_messages = stats.batched_messages
                break
        self.session.recorder.end(
            span, end=self.cluster.kernel.now, status=status
        )

    # -- metric contribution ---------------------------------------------------

    def contribute(
        self, totals: dict[str, float], seen_kernels: set[int]
    ) -> None:
        """Add this cluster's pull-style metric values into ``totals``.

        ``seen_kernels`` deduplicates kernels shared across clusters
        (a simulated fabric runs every shard on one timeline).
        """
        cluster = self.cluster
        kernel = cluster.kernel
        if id(kernel) not in seen_kernels:
            seen_kernels.add(id(kernel))
            # Live kernels (asyncio/udp backends) have no event counter,
            # dispatch heap, or timer pool — the loop owns those — so the
            # sim-only gauges contribute zero there.
            _add(
                totals,
                "kernel.events_dispatched",
                getattr(kernel, "events_processed", 0),
            )
            _add(totals, "kernel.queue_depth", len(getattr(kernel, "_heap", ())))
            _add(
                totals,
                "kernel.timer_pool_size",
                len(getattr(kernel, "_timer_pool", ())),
            )
            stats = kernel.obs
            if stats is not None:
                _add(totals, "kernel.batches", stats.batches)
                _add(totals, "kernel.batched_events", stats.batch_events)
                _add(totals, "kernel.timer_pool_hits", stats.timer_pool_hits)
                _add(totals, "kernel.timer_pool_misses", stats.timer_pool_misses)
                totals["kernel.largest_batch"] = max(
                    totals.get("kernel.largest_batch", 0), stats.largest_batch
                )
        snap = cluster.metrics.snapshot()
        _add(totals, "net.messages_total", snap.total_messages)
        _add(totals, "net.bytes_total", snap.total_bytes)
        for kind, count in snap.messages_by_kind.items():
            _add(totals, f"net.messages.{kind}", count)
        _add(totals, "net.dropped_loss", snap.dropped_loss)
        _add(totals, "net.dropped_capacity", snap.dropped_capacity)
        _add(totals, "net.duplicated", snap.duplicated)
        _add(totals, "net.batches", snap.batches)
        _add(totals, "net.batched_messages", snap.batched_messages)
        _add(totals, "net.in_flight", cluster.network.in_flight_total())
        _add(
            totals,
            "stabilization.gossip_rounds",
            sum(p.iterations_completed for p in cluster.processes),
        )
        _add(
            totals,
            "stabilization.corrupted_state_detections",
            sum(p.detections for p in self.process_obs),
        )
        _add(totals, "stabilization.ts_heals", sum(p.ts_heals for p in self.process_obs))
        _add(totals, "stabilization.sns_heals", sum(p.sns_heals for p in self.process_obs))
        _add(totals, "stabilization.vc_clears", sum(p.vc_clears for p in self.process_obs))
        _add(
            totals,
            "stabilization.task_repairs",
            sum(p.task_repairs for p in self.process_obs),
        )
        _add(
            totals,
            "stabilization.reset_invocations",
            sum(p.reset_invocations for p in self.process_obs),
        )
        _add(
            totals,
            "stabilization.resets_completed",
            sum(getattr(p, "resets_completed", 0) for p in cluster.processes),
        )
        _add(
            totals,
            "consensus.rounds",
            sum(p.consensus_rounds for p in self.process_obs),
        )
        _add(
            totals,
            "consensus.decides",
            sum(p.consensus_decides for p in self.process_obs),
        )
        _add(
            totals,
            "consensus.heals",
            sum(p.consensus_heals for p in self.process_obs),
        )
        _add(
            totals,
            "consensus.recycled",
            sum(p.consensus_recycled for p in self.process_obs),
        )
        _add(
            totals,
            "quorum.retransmits",
            sum(p.retransmits for p in self.process_obs),
        )


def _add(totals: dict[str, float], name: str, value: float) -> None:
    totals[name] = totals.get(name, 0) + value


class Observability:
    """One observability session: registry + span recorder + clusters."""

    def __init__(self, trace_messages: bool = True) -> None:
        self.registry = MetricsRegistry()
        self.recorder = SpanRecorder()
        self.clusters: list[ClusterObs] = []
        self._trace_messages = trace_messages
        # Aggregates absorbed from worker sessions (``--stats --jobs N``
        # ships each worker's portable snapshot back to the parent).
        self._absorbed_totals: dict[str, float] = {}
        self._absorbed_ops: dict[str, dict] = {}
        self._absorbed_blame: dict = {"attributed": 0, "nodes": {}}
        self._absorbed_health: list[list[dict]] = []

    def attach(self, cluster: "SimBackend") -> ClusterObs:
        """Observe a cluster (idempotent: re-attaching returns the existing)."""
        if cluster.obs is not None:
            return cluster.obs
        cobs = ClusterObs(
            self, cluster, len(self.clusters), trace_messages=self._trace_messages
        )
        self.clusters.append(cobs)
        cluster.obs = cobs
        return cobs

    def _totals(self) -> dict[str, float]:
        """Cluster-derived metric totals, live clusters plus absorbed."""
        totals: dict[str, float] = {}
        seen_kernels: set[int] = set()
        for cobs in self.clusters:
            cobs.contribute(totals, seen_kernels)
        for name, value in self._absorbed_totals.items():
            if name == "kernel.largest_batch":
                totals[name] = max(totals.get(name, 0), value)
            else:
                _add(totals, name, value)
        return totals

    @staticmethod
    def _empty_op_group() -> dict:
        return {
            "count": 0,
            "ok": 0,
            "aborted": 0,
            "open": 0,
            "retransmits": 0,
            "messages": 0,
            "duration_sum": 0.0,
            "duration_count": 0,
            "max_time": 0.0,
        }

    def op_aggregates(self) -> dict[str, dict]:
        """Per-operation-name aggregates, live spans plus absorbed workers."""
        groups: dict[str, dict] = {}
        for span in self.recorder.ops():
            group = groups.setdefault(span.name, self._empty_op_group())
            group["count"] += 1
            if span.status == OK:
                group["ok"] += 1
            elif span.status == ABORTED:
                group["aborted"] += 1
            if span.end is None:
                group["open"] += 1
            group["retransmits"] += span.retransmits
            group["messages"] += sum(span.messages_by_kind.values())
            duration = span.duration
            if duration is not None:
                group["duration_sum"] += duration
                group["duration_count"] += 1
                if duration > group["max_time"]:
                    group["max_time"] = duration
        for name, absorbed in self._absorbed_ops.items():
            group = groups.setdefault(name, self._empty_op_group())
            for key, value in absorbed.items():
                if key == "max_time":
                    group[key] = max(group[key], value)
                else:
                    group[key] += value
        return dict(sorted(groups.items()))

    def blame(self) -> dict:
        """The session's merged blame aggregate (live spans + absorbed)."""
        aggregate = blame_aggregate(self.recorder.spans)
        merge_blame(aggregate, self._absorbed_blame)
        return aggregate

    def health_reports(self) -> list[tuple[int, list[dict]]]:
        """``(cluster_index, node_health_dicts)`` for every observed cluster.

        Live clusters are sampled now; clusters absorbed from worker
        sessions follow, indexed after the live ones — in the serial
        case and the ``--jobs N`` case alike, cluster indices end up in
        cell order, so merged ``--stats`` output is deterministic.
        """
        reports: list[tuple[int, list[dict]]] = []
        for cobs in self.clusters:
            report = cobs.health.sample()
            reports.append(
                (cobs.index, [health.to_dict() for health in report.nodes])
            )
        offset = len(self.clusters)
        for position, nodes in enumerate(self._absorbed_health):
            reports.append((offset + position, nodes))
        return reports

    def collect(self) -> dict[str, Any]:
        """Pull every metric source and return ``{name: value}``.

        Cluster-derived values land in gauges (summed across clusters,
        except ``kernel.largest_batch`` which takes the max); values
        pushed directly into the registry (e.g. by E07/E08) pass through
        untouched.  Per-node health gauges (``health.<signal>.c<i>.n<j>``)
        are refreshed from the health monitors on every collect.
        """
        totals = self._totals()
        groups = self.op_aggregates()
        totals["ops.total"] = sum(g["count"] for g in groups.values())
        totals["ops.completed"] = sum(g["ok"] for g in groups.values())
        totals["ops.aborted"] = sum(g["aborted"] for g in groups.values())
        totals["ops.open"] = sum(g["open"] for g in groups.values())
        totals["ops.retransmits"] = sum(
            g["retransmits"] for g in groups.values()
        )
        for index, nodes in self.health_reports():
            for health in nodes:
                base = f"c{index}.n{health['node']}"
                totals[f"health.state.{base}"] = health["state_code"]
                totals[f"health.service_ewma.{base}"] = health["service_ewma"]
                totals[f"health.replies.{base}"] = health["replies"]
                totals[f"health.retransmit_rate.{base}"] = health[
                    "retransmit_rate"
                ]
                totals[f"health.queue_depth.{base}"] = health["queue_depth"]
                totals[f"health.detections.{base}"] = health["detections"]
        for name, value in totals.items():
            self.registry.gauge(name).set(value)
        return self.registry.collect()

    # -- parallel-worker merge (``--stats`` under ``--jobs N``) ----------------

    def portable(self) -> dict:
        """A picklable snapshot of this session's aggregates.

        Spans and message traces do **not** travel (they are why trace
        capture still forces serial execution); what does is everything
        ``--stats`` prints: metric totals, per-op aggregates, the blame
        aggregate, per-cluster health reports, and the registry state.
        Call :meth:`finish` first so open spans have durations.
        """
        # ``health.*`` gauge names embed this worker's *local* cluster
        # indices (a mid-run ``collect()`` — e.g. E07 reading detections —
        # writes them into the registry); the parent rebuilds them from
        # the ``health`` lists under its own merged indices, so shipping
        # the stale names would leave phantom rows behind.
        registry_state = {
            name: state
            for name, state in self.registry.state().items()
            if not name.startswith("health.")
        }
        return {
            "totals": self._totals(),
            "ops": self.op_aggregates(),
            "blame": self.blame(),
            "health": [nodes for _index, nodes in self.health_reports()],
            "registry": registry_state,
        }

    def absorb(self, portable: dict) -> None:
        """Fold one worker session's :meth:`portable` snapshot into this one.

        Callers merge snapshots in cell-index order; every combination
        rule here (sum / max / last-write via the registry) is
        order-insensitive except gauge last-write, so the merged result
        is deterministic for a fixed merge order.
        """
        for name, value in portable["totals"].items():
            if name == "kernel.largest_batch":
                self._absorbed_totals[name] = max(
                    self._absorbed_totals.get(name, 0), value
                )
            else:
                self._absorbed_totals[name] = (
                    self._absorbed_totals.get(name, 0) + value
                )
        for name, absorbed in portable["ops"].items():
            group = self._absorbed_ops.setdefault(name, self._empty_op_group())
            for key, value in absorbed.items():
                if key == "max_time":
                    group[key] = max(group[key], value)
                else:
                    group[key] += value
        merge_blame(self._absorbed_blame, portable["blame"])
        self._absorbed_health.extend(portable["health"])
        self.registry.merge_state(portable["registry"])

    def finish(self) -> None:
        """Close every still-open span at its cluster's current sim time.

        Open operation spans keep status ``"open"`` (they genuinely did
        not finish); run roots close ``"ok"``.
        """
        for cobs in self.clusters:
            now = cobs.cluster.kernel.now
            for stack in list(cobs._active.values()):
                for span, window_cm, _holder in list(stack):
                    window_cm.__exit__(None, None, None)
                    span.end = now
                stack.clear()
            for span in self.recorder.spans:
                if span.cluster == cobs.index and span.end is None:
                    span.end = now
            if cobs.root.status == "open":
                cobs.root.status = OK

    # -- exporter front doors (implementations in repro.obs.export) ------------

    def chrome_trace(self) -> dict:
        """The session as a Chrome ``trace_event`` JSON object."""
        from repro.obs.export import chrome_trace

        return chrome_trace(self)

    def jsonl(self) -> str:
        """The session as a JSON-lines event stream."""
        from repro.obs.export import jsonl

        return jsonl(self)

    def summary(self) -> str:
        """The session as a terminal summary (operations + metrics tables)."""
        from repro.obs.export import summary

        return summary(self)


#: Stack of ambient sessions; clusters constructed while one is installed
#: attach to the innermost.
_SESSIONS: list[Observability] = []


def current_session() -> Observability | None:
    """The innermost ambient session, or ``None``."""
    return _SESSIONS[-1] if _SESSIONS else None


@contextmanager
def session(obs: Observability | None = None) -> Iterator[Observability]:
    """Install an ambient session for the duration of the ``with`` block."""
    if obs is None:
        obs = Observability()
    _SESSIONS.append(obs)
    try:
        yield obs
    finally:
        _SESSIONS.pop()
