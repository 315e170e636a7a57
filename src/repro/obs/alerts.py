"""Alert engine: threshold/SLO rules evaluated online over health + metrics.

Rules turn a :class:`~repro.obs.health.HealthReport` (and optionally the
metric registry's collected values) into :class:`Alert` records.  The
:class:`AlertEngine` is edge-triggered with latching: a rule firing for
the same ``(rule, node)`` key on consecutive evaluations raises one
alert, which stays *active* until an evaluation where the condition no
longer holds.  Everything ever raised is kept in ``history`` so fuzz
campaigns and the dashboard can report what happened during a run.

The default rule set mirrors the health states (limping/crashed/
corrupt-suspect) plus a retransmit-storm rule; SLO rules over latency
histograms can be added per run (``SloRule("load.latency", "p99", 50)``
over the workload latency ``repro top`` publishes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.obs.health import (
    CORRUPT_SUSPECT,
    CRASHED,
    LIMPING,
    HealthReport,
)

__all__ = [
    "Alert",
    "AlertRule",
    "HealthStateRule",
    "RetransmitStormRule",
    "SloRule",
    "AlertEngine",
    "default_rules",
]

#: Alert severities (informational ordering only).
WARNING = "warning"
CRITICAL = "critical"


@dataclass(slots=True)
class Alert:
    """One raised alert: which rule, which node (if any), and why."""

    rule: str
    severity: str
    node: int | None
    message: str
    time: float
    resolved_at: float | None = None

    @property
    def key(self) -> tuple[str, int | None]:
        return (self.rule, self.node)

    def to_dict(self) -> dict:
        """A JSON-ready view of the alert."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "node": self.node,
            "message": self.message,
            "time": self.time,
            "resolved_at": self.resolved_at,
        }


class AlertRule:
    """Base class: subclasses return the alerts that currently hold."""

    name = "rule"
    severity = WARNING

    def evaluate(
        self, report: HealthReport, values: dict[str, Any]
    ) -> list[Alert]:
        """Alerts whose condition holds right now (engine handles latching)."""
        raise NotImplementedError


class HealthStateRule(AlertRule):
    """Fires one alert per node classified in the watched health state."""

    def __init__(self, state: str, severity: str) -> None:
        self.state = state
        self.name = f"node-{state}"
        self.severity = severity

    def evaluate(
        self, report: HealthReport, values: dict[str, Any]
    ) -> list[Alert]:
        """One alert per node currently classified in the watched state."""
        alerts = []
        for health in report.nodes:
            if health.state == self.state:
                alerts.append(
                    Alert(
                        rule=self.name,
                        severity=self.severity,
                        node=health.node,
                        message=(
                            f"node {health.node} is {self.state} "
                            f"(service ewma {health.service_ewma:.3g}, "
                            f"silence {health.silence:.3g}, "
                            f"detections {health.detections})"
                        ),
                        time=report.time,
                    )
                )
        return alerts


class RetransmitStormRule(AlertRule):
    """Fires when a node's retransmit rate exceeds a fixed threshold."""

    name = "retransmit-storm"
    severity = WARNING

    def __init__(self, rate_threshold: float = 10.0) -> None:
        self.rate_threshold = rate_threshold

    def evaluate(
        self, report: HealthReport, values: dict[str, Any]
    ) -> list[Alert]:
        """One alert per node whose retransmit rate crosses the threshold."""
        alerts = []
        for health in report.nodes:
            if health.retransmit_rate > self.rate_threshold:
                alerts.append(
                    Alert(
                        rule=self.name,
                        severity=self.severity,
                        node=health.node,
                        message=(
                            f"node {health.node} retransmitting at "
                            f"{health.retransmit_rate:.3g}/s "
                            f"(threshold {self.rate_threshold:.3g}/s)"
                        ),
                        time=report.time,
                    )
                )
        return alerts


class SloRule(AlertRule):
    """Fires when a collected metric value crosses an SLO threshold.

    ``metric`` names a registry instrument; for histogram-valued metrics
    ``stat`` selects the summary entry (``"p99"``, ``"mean"``, …), for
    scalar metrics pass ``stat=None``.
    """

    severity = CRITICAL

    def __init__(
        self,
        metric: str,
        stat: str | None,
        threshold: float,
        severity: str = CRITICAL,
    ) -> None:
        self.metric = metric
        self.stat = stat
        self.threshold = threshold
        self.severity = severity
        suffix = f".{stat}" if stat else ""
        self.name = f"slo:{metric}{suffix}"

    def evaluate(
        self, report: HealthReport, values: dict[str, Any]
    ) -> list[Alert]:
        """A single alert when the watched metric exceeds its SLO."""
        value = values.get(self.metric)
        if isinstance(value, dict):
            value = value.get(self.stat) if self.stat else None
        if value is None or value <= self.threshold:
            return []
        return [
            Alert(
                rule=self.name,
                severity=self.severity,
                node=None,
                message=(
                    f"{self.metric}{'.' + self.stat if self.stat else ''} = "
                    f"{value:.4g} exceeds SLO {self.threshold:.4g}"
                ),
                time=report.time,
            )
        ]


def default_rules() -> list[AlertRule]:
    """The standard rule set: one per unhealthy state + retransmit storm."""
    return [
        HealthStateRule(LIMPING, WARNING),
        HealthStateRule(CRASHED, CRITICAL),
        HealthStateRule(CORRUPT_SUSPECT, CRITICAL),
        RetransmitStormRule(),
    ]


class AlertEngine:
    """Evaluates rules, latches active alerts, records history."""

    def __init__(self, rules: Iterable[AlertRule] | None = None) -> None:
        self.rules: list[AlertRule] = (
            list(rules) if rules is not None else default_rules()
        )
        self._active: dict[tuple[str, int | None], Alert] = {}
        self.history: list[Alert] = []

    def evaluate(
        self,
        report: HealthReport,
        values: dict[str, Any] | None = None,
    ) -> list[Alert]:
        """Run every rule; return only the *newly raised* alerts.

        Conditions that held on the previous evaluation stay active
        without re-raising; conditions that cleared resolve their alert
        (stamping ``resolved_at``).
        """
        values = values if values is not None else {}
        holding: dict[tuple[str, int | None], Alert] = {}
        for rule in self.rules:
            for alert in rule.evaluate(report, values):
                holding.setdefault(alert.key, alert)
        raised = []
        for key, alert in holding.items():
            if key not in self._active:
                self._active[key] = alert
                self.history.append(alert)
                raised.append(alert)
        for key in list(self._active):
            if key not in holding:
                self._active.pop(key).resolved_at = report.time
        return raised

    def evaluate_session(
        self, obs: Any, values: dict[str, Any] | None = None
    ) -> list[Alert]:
        """Evaluate against an observability session's live clusters.

        Samples every cluster's health monitor and evaluates the rules
        over the combined node list in one pass (one pass, so latching
        works across the whole session).  ``values`` defaults to the
        session's collected metrics.  Returns newly raised alerts.
        """
        reports = [cobs.health.sample() for cobs in obs.clusters]
        if not reports:
            return []
        combined = HealthReport(
            time=max(report.time for report in reports),
            nodes=[health for report in reports for health in report.nodes],
        )
        if values is None:
            values = obs.collect()
        return self.evaluate(combined, values)

    def active(self) -> list[Alert]:
        """Currently-active alerts, ordered by raise time."""
        return sorted(self._active.values(), key=lambda a: (a.time, a.rule))

    def to_dict(self) -> dict:
        """Active and historical alerts as JSON-ready dicts."""
        return {
            "active": [a.to_dict() for a in self.active()],
            "history": [a.to_dict() for a in self.history],
        }
