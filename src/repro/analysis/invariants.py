"""Consistency predicates from the paper's recovery theorems.

Theorem 1 (Algorithm 1) and Definition 1 / Theorem 2 (Algorithm 3) define
*consistent system states* — states in which no stale index anywhere in
the system (node variables, register entries, or in-flight messages)
exceeds its owner's authoritative counter.  The recovery experiments
(E7/E8) inject arbitrary corruption and count the asynchronous cycles
until these predicates hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backend.sim import SimBackend
from repro.core.base import ReadAckMessage, ReadMessage
from repro.core.register import RegisterArray, ack_clock
from repro.core.ss_always import GossipMessage3
from repro.core.ss_nonblocking import GossipMessage

__all__ = [
    "InvariantReport",
    "ts_consistent",
    "ssn_consistent",
    "sns_consistent",
    "vc_consistent",
    "definition1_consistent",
]


@dataclass(slots=True)
class InvariantReport:
    """Which invariants hold, with diagnostics for the ones that do not."""

    ok: bool = True
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        """Record one invariant violation."""
        self.ok = False
        self.failures.append(message)

    def __bool__(self) -> bool:
        return self.ok


def _in_flight_messages(cluster: SimBackend):
    from repro.net.batch import BatchMessage

    for channel in cluster.network.channels():
        for message in channel.in_flight_messages():
            # A transport bundle is not itself protocol state; the
            # invariants apply to the messages it carries.
            if isinstance(message, BatchMessage):
                for inner in message.messages:
                    yield channel.src, channel.dst, inner
            else:
                yield channel.src, channel.dst, message


def ts_consistent(cluster: SimBackend) -> InvariantReport:
    """Definition 1(i): ``ts_i`` dominates every ts attributed to ``p_i``.

    Checks node variables (``reg_j[i].ts`` for every ``j``) and the
    register arrays, ack items (shipped entries and elided timestamps
    alike), single entries and timestamps (GOSSIP, READ, READack) and
    key-map deltas (a READ's, which name the entry's ts) carried by
    every in-flight message.
    """
    report = InvariantReport()
    n = cluster.config.n
    own_ts = [p.ts for p in cluster.processes]
    for process in cluster.processes:
        for i in range(n):
            if process.reg[i].ts > own_ts[i]:
                report.fail(
                    f"reg_{process.node_id}[{i}].ts={process.reg[i].ts} "
                    f"> ts_{i}={own_ts[i]}"
                )
    for src, dst, message in _in_flight_messages(cluster):
        # A request carries a RegisterArray, an ack a tuple of ack items.
        reg = getattr(message, "reg", None)
        clock = ack_clock(reg) if isinstance(reg, (RegisterArray, tuple)) else ()
        for i, ts in enumerate(clock[:n]):
            if ts > own_ts[i]:
                report.fail(
                    f"in-flight {message.kind} {src}->{dst}: "
                    f"reg[{i}].ts={ts} > ts_{i}={own_ts[i]}"
                )
        # By class, not by kind: an epoch envelope reports its inner
        # kind but carries no entry of its own.
        if isinstance(message, (GossipMessage, GossipMessage3)):
            owner = dst  # a gossip to p_dst names p_dst's own entry
        elif isinstance(message, (ReadMessage, ReadAckMessage)):
            owner = message.j
        else:
            continue
        # A gossip digest and a READack claim a timestamp with or without
        # the entry present; a READ's entry may be a KeyDelta, whose ts is
        # the entry's.
        claimed = getattr(message, "ts", 0)
        if message.entry is not None:
            claimed = max(claimed, message.entry.ts)
        if 0 <= owner < n and claimed > own_ts[owner]:
            report.fail(
                f"in-flight {message.kind} {src}->{dst}: entry.ts={claimed} "
                f"> ts_{owner}={own_ts[owner]}"
            )
    return report


def ssn_consistent(cluster: SimBackend) -> InvariantReport:
    """Definition 1(ii): ``ssn_i`` dominates every ssn attributed to ``p_i``.

    The ssn fields appear in SNAPSHOT queries (tagged by the querier) and
    are echoed in SNAPSHOTack replies addressed back to the querier.
    """
    report = InvariantReport()
    own_ssn = {p.node_id: getattr(p, "ssn", 0) for p in cluster.processes}
    for src, dst, message in _in_flight_messages(cluster):
        ssn = getattr(message, "ssn", None)
        if ssn is None:
            continue
        owner = src if message.kind == "SNAPSHOT" else dst
        if ssn > own_ssn.get(owner, 0):
            report.fail(
                f"in-flight {message.kind} {src}->{dst}: ssn={ssn} "
                f"> ssn_{owner}={own_ssn.get(owner, 0)}"
            )
    return report


def sns_consistent(cluster: SimBackend) -> InvariantReport:
    """Definition 1(iii): snapshot task indices are consistent.

    ``sns_i = pndTsk_i[i].sns`` and
    ``pndTsk_j[i].sns ≤ pndTsk_i[i].sns`` for all ``i, j``.
    Only meaningful for Algorithm 3 clusters.
    """
    report = InvariantReport()
    processes = cluster.processes
    if not hasattr(processes[0], "pnd_tsk"):
        return report
    for process in processes:
        i = process.node_id
        if process.sns != process.pnd_tsk[i].sns:
            report.fail(
                f"sns_{i}={process.sns} != pndTsk_{i}[{i}].sns="
                f"{process.pnd_tsk[i].sns}"
            )
    for observer in processes:
        for owner in processes:
            i = owner.node_id
            if observer.pnd_tsk[i].sns > owner.pnd_tsk[i].sns:
                report.fail(
                    f"pndTsk_{observer.node_id}[{i}].sns="
                    f"{observer.pnd_tsk[i].sns} > pndTsk_{i}[{i}].sns="
                    f"{owner.pnd_tsk[i].sns}"
                )
    return report


def vc_consistent(cluster: SimBackend) -> InvariantReport:
    """Definition 1(iv): every stored vector clock is ⪯ the local VC."""
    report = InvariantReport()
    processes = cluster.processes
    if not hasattr(processes[0], "pnd_tsk"):
        return report
    for process in processes:
        current = process.reg.vector_clock()
        for k, task in enumerate(process.pnd_tsk):
            if task.vc is None:
                continue
            if any(s > c for s, c in zip(task.vc, current)):
                report.fail(
                    f"pndTsk_{process.node_id}[{k}].vc={task.vc} "
                    f"⋠ VC={current}"
                )
    return report


def definition1_consistent(cluster: SimBackend) -> InvariantReport:
    """All four invariants of Definition 1 combined."""
    combined = InvariantReport()
    for check in (ts_consistent, ssn_consistent, sns_consistent, vc_consistent):
        partial = check(cluster)
        if not partial.ok:
            combined.ok = False
            combined.failures.extend(partial.failures)
    return combined
