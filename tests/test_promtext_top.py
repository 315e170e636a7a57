"""Prometheus text exposition, the ``repro top`` dashboard, and the
cross-backend throttle (gray-failure) knob."""

import asyncio
import json

import pytest

from repro.__main__ import main
from repro.backend.base import run_on_backend
from repro.config import scenario_config
from repro.backend.sim import SimBackend
from repro.errors import ConfigurationError, NetworkError
from repro.load import LoadSpec
from repro.load.driver import LoadGenerator
from repro.obs.alerts import AlertEngine
from repro.obs.observe import Observability, session
from repro.obs.promtext import (
    CONTENT_TYPE,
    MetricsExposition,
    prometheus_text,
)
from repro.obs.top import parse_throttle, render_frame


class TestPrometheusText:
    def test_scalars_render_as_sorted_gauges(self):
        text = prometheus_text({"ops.total": 12.0, "net.messages_total": 300})
        lines = text.splitlines()
        assert "# TYPE repro_net_messages_total gauge" in lines
        assert "repro_net_messages_total 300" in lines
        assert "repro_ops_total 12" in lines
        # Deterministic ordering: messages before ops (sorted by name).
        assert lines.index("repro_net_messages_total 300") < lines.index(
            "repro_ops_total 12"
        )

    def test_health_gauges_get_cluster_node_labels(self):
        text = prometheus_text(
            {"health.state.c0.n1": 1, "health.state.c0.n0": 0}
        )
        lines = text.splitlines()
        assert "# TYPE repro_health_state gauge" in lines
        assert 'repro_health_state{cluster="0",node="0"} 0' in lines
        assert 'repro_health_state{cluster="0",node="1"} 1' in lines

    def test_histogram_dicts_render_as_summaries(self):
        text = prometheus_text(
            {
                "load.latency": {
                    "count": 4,
                    "sum": 10.0,
                    "min": 1.0,
                    "max": 4.0,
                    "mean": 2.5,
                    "p50": 2.0,
                    "p95": 3.9,
                    "p99": 4.0,
                }
            }
        )
        lines = text.splitlines()
        assert "# TYPE repro_load_latency summary" in lines
        assert 'repro_load_latency{quantile="0.5"} 2' in lines
        assert 'repro_load_latency{quantile="0.95"} 3.9' in lines
        assert 'repro_load_latency{quantile="0.99"} 4' in lines
        assert "repro_load_latency_count 4" in lines
        assert "repro_load_latency_sum 10" in lines

    def test_names_are_mangled_and_nan_is_zero(self):
        text = prometheus_text({"weird-name!x": float("nan")})
        assert "repro_weird_name_x 0" in text.splitlines()

    def test_content_type_is_prometheus_v004(self):
        assert CONTENT_TYPE.startswith("text/plain; version=0.0.4")

    def test_full_session_collect_is_renderable(self):
        with session() as obs:
            cluster = SimBackend(
                "ss-nonblocking", scenario_config(n=3, seed=0)
            )
            cluster.write_sync(0, b"x")
            text = prometheus_text(obs.collect())
        obs.finish()
        for node in range(3):
            assert f'repro_health_state{{cluster="0",node="{node}"}}' in text
        assert "repro_net_messages_total" in text
        assert "nan" not in text.lower()


class TestRenderFrame:
    def test_frame_shows_header_health_and_alerts(self):
        engine = AlertEngine()
        with session(Observability(trace_messages=False)) as obs:
            cluster = SimBackend(
                "ss-nonblocking", scenario_config(n=3, seed=0)
            )
            cluster.write_sync(0, b"x")
            engine.evaluate_session(obs)
            frame = render_frame(
                engine=engine, obs=obs, time=cluster.kernel.now, backend="sim"
            )
        obs.finish()
        assert frame.startswith("repro top — backend=sim")
        assert "node health" in frame
        assert "healthy" in frame
        assert "alerts: (none)" in frame

    def test_frame_lists_active_alerts_and_blame(self):
        engine = AlertEngine()
        with session(Observability(trace_messages=False)) as obs:
            cluster = SimBackend(
                "ss-nonblocking", scenario_config(n=4, seed=1)
            )
            cluster.throttle(3, 12.0)
            for i in range(8):
                cluster.write_sync(i % 3, f"w{i}".encode())
            cluster.run_for(40.0)
            engine.evaluate_session(obs)
            frame = render_frame(
                obs, engine, time=cluster.kernel.now, backend="sim"
            )
        obs.finish()
        assert "limping" in frame
        assert "blame (slowest quorum responder)" in frame
        assert "[WARNING " in frame
        assert "node-limping node=3" in frame


class TestParseThrottle:
    def test_parses_node_and_factor(self):
        assert parse_throttle("3:12") == (3, 12.0)
        assert parse_throttle("0:1.5") == (0, 1.5)

    @pytest.mark.parametrize("bad", ["3", "3:", ":2", "a:b", "1:2:3"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            parse_throttle(bad)


class TestTopCommand:
    def test_top_runs_on_sim_and_reports_the_limping_alert(self, capsys):
        assert (
            main(
                [
                    "top",
                    "--budget", "40",
                    "--refresh", "20",
                    "--throttle", "3:12",
                    "--plain",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "repro top — backend=sim" in out
        assert " p99=" in out  # the live load.latency quantile histogram
        assert "node health" in out
        assert "limping" in out
        assert "alert(s) raised over the run" in out
        assert "node-limping node=3" in out

    def test_top_rejects_metrics_port_on_simulated_time(self, usage_error):
        assert "live backend" in usage_error(["top", "--metrics-port", "0"])

    def test_top_rejects_unknown_backend(self, usage_error):
        err = usage_error(["top", "--backend", "bogus"])
        assert "invalid choice: 'bogus'" in err

    def test_top_rejects_nonpositive_refresh(self, usage_error):
        assert "--refresh must be positive" in usage_error(["top", "--refresh", "0"])


class TestThrottleSemantics:
    def test_throttle_validates_and_restores(self):
        cluster = SimBackend("ss-nonblocking", scenario_config(n=3, seed=0))
        with pytest.raises(NetworkError):
            cluster.throttle(0, 0.0)
        with pytest.raises(NetworkError):
            cluster.throttle(7, 2.0)
        cluster.throttle(1, 8.0)
        assert cluster.network.throttled() == {1: 8.0}
        cluster.throttle(1, 1.0)  # factor 1.0 restores
        assert cluster.network.throttled() == {}

    def test_throttle_preserves_the_seeded_schedule(self):
        """The factor multiplies already-drawn delays: no RNG impact."""

        def history(factor):
            cluster = SimBackend(
                "ss-nonblocking", scenario_config(n=4, seed=5)
            )
            if factor != 1.0:
                cluster.throttle(2, factor)
            for i in range(4):
                cluster.write_sync(i % 4, f"w{i}".encode())
            return [
                (r.kind, r.node_id, r.argument, r.result)
                for r in cluster.history.records()
            ]

        # Same ops, same order, same values — only the timing differs.
        assert history(1.0) == history(6.0)


@pytest.mark.runtime
class TestMetricsExpositionRuntime:
    def test_serves_rendered_text_over_http(self):
        async def scrape():
            exposition = MetricsExposition(
                lambda: prometheus_text({"ops.total": 3.0})
            )
            host, port = await exposition.start()
            assert exposition.url == f"http://{host}:{port}/metrics"
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            data = await reader.read(-1)
            writer.close()
            await exposition.stop()
            await exposition.stop()  # idempotent
            return data.decode()

        response = asyncio.run(scrape())
        assert response.startswith("HTTP/1.1 200 OK")
        assert CONTENT_TYPE in response
        assert "repro_ops_total 3" in response

    def test_udp_backend_exposes_matching_health_metrics(self):
        """The acceptance scenario's live half: the same throttled
        workload on the UDP backend exposes per-node health through the
        text exposition endpoint."""
        obs = Observability(trace_messages=False)

        async def body(cluster):
            cluster.throttle(1, 4.0)
            assert cluster.network.throttled() == {1: 4.0}
            generator = LoadGenerator(
                cluster,
                LoadSpec(clients=2, depth=1, duration=20.0, seed=1),
            )
            await generator.run()
            exposition = MetricsExposition(
                lambda: prometheus_text(obs.collect())
            )
            host, port = await exposition.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            data = await reader.read(-1)
            writer.close()
            await exposition.stop()
            return data.decode()

        with session(obs):
            response = run_on_backend(
                "udp",
                "ss-nonblocking",
                scenario_config(n=3, seed=1),
                body,
                time_scale=0.002,
            )
        obs.finish()
        assert response.startswith("HTTP/1.1 200 OK")
        for node in range(3):
            assert (
                f'repro_health_state{{cluster="0",node="{node}"}}' in response
            )
            assert (
                f'repro_health_service_ewma{{cluster="0",node="{node}"}}'
                in response
            )
        assert "repro_net_messages_total" in response
