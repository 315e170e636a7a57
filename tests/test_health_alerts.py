"""Gray-failure health classification and the alert engine.

The detector's contract (see ``repro.obs.health``): a crashed node is
classified ``crashed``, a throttled one ``limping``, and only actual
stabilization-layer detections — never slowness — produce
``corrupt-suspect``.  The alert engine latches per ``(rule, node)`` and
keeps history.  Everything here runs on the simulator, so every
classification is deterministic per seed.
"""

import pytest

from repro.config import scenario_config
from repro.backend.sim import SimBackend
from repro.fault import TransientFaultInjector
from repro.fuzz import generate_spec, run_fuzz_campaign, run_spec
from repro.obs.alerts import (
    AlertEngine,
    RetransmitStormRule,
    SloRule,
    default_rules,
)
from repro.obs.health import (
    CORRUPT_SUSPECT,
    CRASHED,
    HEALTHY,
    LIMPING,
    HealthReport,
    NodeHealth,
)
from repro.obs.observe import Observability, session


def _throttled_run(seed: int, factor: float = 12.0) -> HealthReport:
    """Drive a 4-node cluster with node 3 throttled; return the sample."""
    with session() as obs:
        cluster = SimBackend("ss-nonblocking", scenario_config(n=4, seed=seed))
        cluster.throttle(3, factor)
        for i in range(8):
            cluster.write_sync(i % 3, f"w{i}".encode())
        cluster.run_for(40.0)  # let the straggler's late replies land
        report = cluster.obs.health.sample()
    obs.finish()
    return report


class TestHealthClassification:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_throttled_node_is_limping_never_corrupt(self, seed):
        report = _throttled_run(seed)
        assert report.state_of(3) == LIMPING
        assert report.in_state(CORRUPT_SUSPECT) == []
        assert report.in_state(CRASHED) == []
        for health in report.nodes[:3]:
            assert health.state == HEALTHY
        # Slowness is not corruption evidence: no heal counters moved.
        assert all(h.detections == 0 for h in report.nodes)

    def test_classification_is_deterministic_per_seed(self):
        assert _throttled_run(1).to_dict() == _throttled_run(1).to_dict()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_crashed_node_is_classified_crashed(self, seed):
        with session() as obs:
            cluster = SimBackend(
                "ss-nonblocking", scenario_config(n=4, seed=seed)
            )
            for i in range(4):
                cluster.write_sync(i % 4, f"a{i}".encode())
            cluster.crash(3)
            for i in range(20):
                cluster.write_sync(i % 3, f"b{i}".encode())
                cluster.run_for(5.0)
            report = cluster.obs.health.sample()
        obs.finish()
        assert report.state_of(3) == CRASHED
        assert report.in_state(HEALTHY) == [0, 1, 2]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_corruption_detections_raise_corrupt_suspect(self, seed):
        with session() as obs:
            cluster = SimBackend(
                "ss-always", scenario_config(n=4, seed=seed, delta=2)
            )
            injector = TransientFaultInjector(cluster, seed=seed)
            for i in range(4):
                cluster.write_sync(i % 4, f"a{i}".encode())
            injector.corrupt_registers(node_ids=[2])
            cluster.run_for(10.0)  # gossip detects and heals
            report = cluster.obs.health.sample()
        obs.finish()
        suspects = report.in_state(CORRUPT_SUSPECT)
        assert suspects, "corruption healed without anyone turning suspect"
        # Suspicion comes only from detection-counter movement.
        assert all(report.nodes[n].detections >= 1 for n in suspects)
        assert report.in_state(LIMPING) == []
        assert report.in_state(CRASHED) == []

    def test_suspect_state_expires_after_the_window(self):
        with session() as obs:
            cluster = SimBackend(
                "ss-always", scenario_config(n=4, seed=0, delta=2)
            )
            injector = TransientFaultInjector(cluster, seed=0)
            for i in range(4):
                cluster.write_sync(i % 4, f"a{i}".encode())
            injector.corrupt_registers(node_ids=[2])
            cluster.run_for(10.0)
            assert cluster.obs.health.sample().in_state(CORRUPT_SUSPECT)
            # Keep traffic flowing past the suspect window so nobody
            # accrues enough silence to look crashed instead.
            for i in range(12):
                cluster.write_sync(i % 4, f"b{i}".encode())
                cluster.run_for(5.0)
            report = cluster.obs.health.sample()
        obs.finish()
        assert report.in_state(CORRUPT_SUSPECT) == []
        assert report.in_state(HEALTHY) == [0, 1, 2, 3]

    def test_sample_is_idempotent_per_timestamp(self):
        with session() as obs:
            cluster = SimBackend(
                "ss-nonblocking", scenario_config(n=4, seed=0)
            )
            cluster.write_sync(0, b"x")
            monitor = cluster.obs.health
            first = monitor.sample()
            assert monitor.sample() is first  # same clock → cached report
            cluster.run_for(1.0)
            assert monitor.sample() is not first
        obs.finish()


def _report(time: float, states: list[str], **overrides) -> HealthReport:
    """A synthetic health report with one node per entry of ``states``."""
    fields = {
        "service_ewma": 1.0,
        "replies": 5,
        "silence": 0.5,
        "retransmit_rate": 0.0,
        "queue_depth": 0,
        "detections": 0,
    }
    fields.update(overrides)
    return HealthReport(
        time=time,
        nodes=[
            NodeHealth(node=i, state=state, **fields)
            for i, state in enumerate(states)
        ],
    )


class TestAlertEngine:
    def test_latching_raises_once_then_resolves(self):
        engine = AlertEngine()
        raised = engine.evaluate(_report(1.0, [HEALTHY, LIMPING]))
        assert [(a.rule, a.node) for a in raised] == [("node-limping", 1)]
        alert = raised[0]
        # Condition still holding does not re-raise.
        assert engine.evaluate(_report(2.0, [HEALTHY, LIMPING])) == []
        assert engine.active() == [alert]
        # Condition clearing resolves with a timestamp.
        engine.evaluate(_report(3.0, [HEALTHY, HEALTHY]))
        assert engine.active() == []
        assert alert.resolved_at == 3.0
        assert engine.history == [alert]

    def test_default_rules_cover_every_unhealthy_state(self):
        engine = AlertEngine(default_rules())
        raised = engine.evaluate(
            _report(1.0, [CRASHED, LIMPING, CORRUPT_SUSPECT])
        )
        by_rule = {a.rule: a for a in raised}
        assert set(by_rule) == {
            "node-crashed",
            "node-limping",
            "node-corrupt-suspect",
        }
        assert by_rule["node-crashed"].severity == "critical"
        assert by_rule["node-corrupt-suspect"].severity == "critical"
        assert by_rule["node-limping"].severity == "warning"

    def test_retransmit_storm_rule(self):
        engine = AlertEngine([RetransmitStormRule(rate_threshold=5.0)])
        quiet = _report(1.0, [HEALTHY, HEALTHY])
        assert engine.evaluate(quiet) == []
        storm = _report(2.0, [HEALTHY, HEALTHY], retransmit_rate=20.0)
        raised = engine.evaluate(storm)
        assert {a.node for a in raised} == {0, 1}
        assert all(a.rule == "retransmit-storm" for a in raised)

    def test_slo_rule_reads_histogram_stats(self):
        engine = AlertEngine([SloRule("load.latency", "p99", 10.0)])
        healthy = _report(1.0, [HEALTHY])
        assert engine.evaluate(healthy, {"load.latency": {"p99": 9.0}}) == []
        raised = engine.evaluate(healthy, {"load.latency": {"p99": 50.0}})
        assert [a.rule for a in raised] == ["slo:load.latency.p99"]
        assert "exceeds SLO" in raised[0].message

    def test_alert_to_dict_round_trips_fields(self):
        engine = AlertEngine()
        (alert,) = engine.evaluate(_report(4.0, [LIMPING]))
        as_dict = alert.to_dict()
        assert as_dict["rule"] == "node-limping"
        assert as_dict["node"] == 0
        assert as_dict["time"] == 4.0
        assert as_dict["resolved_at"] is None

    def test_evaluate_session_combines_clusters(self):
        engine = AlertEngine()
        with session() as obs:
            assert engine.evaluate_session(obs) == []  # no clusters yet
            first = SimBackend(
                "ss-nonblocking", scenario_config(n=3, seed=0)
            )
            second = SimBackend(
                "ss-nonblocking", scenario_config(n=3, seed=1)
            )
            first.write_sync(0, b"x")
            second.write_sync(0, b"y")
            assert engine.evaluate_session(obs) == []  # everyone healthy
        obs.finish()


class TestChaosAlerts:
    """A fuzz campaign doubles as a gray-failure detection check: an
    observed run samples every cluster's health once per event."""

    def test_observed_campaign_collects_all_three_alert_classes(self):
        with session(Observability(trace_messages=False)) as obs:
            (report,) = run_fuzz_campaign([8], algorithm="ss-always", budget=60)
            obs.finish()
        assert report.ok, report.failures
        rules = {alert["rule"] for alert in report.alerts}
        assert {
            "node-crashed",
            "node-limping",
            "node-corrupt-suspect",
        } <= rules
        assert f"{len(report.alerts)} alerts" in report.summary()

    def test_unobserved_campaign_collects_no_alerts(self):
        outcome = run_spec(generate_spec(8, "ss-always", 40))
        assert outcome.alerts == ()
        (report,) = run_fuzz_campaign([8], algorithm="ss-always", budget=40)
        assert report.alerts == ()
        assert "alerts" not in report.summary()
