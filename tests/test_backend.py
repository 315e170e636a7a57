"""The backend contract: one cluster API over sim, asyncio, and UDP.

Three kinds of coverage:

* **cross-backend equivalence** — the same sequential write/snapshot
  workload produces the same write timestamps, the same snapshot
  vector, and a linearizable history on every backend, for all four
  paper algorithms (message passing is the only thing the substrate
  changes; the algorithms' vector-clock semantics must not move);
* **real-network fault injection** — the UDP datagram gate forces
  loss/duplication on live packets and the algorithms' retransmission
  still completes every operation;
* **capability degradation** — sim-only features raise one
  :class:`~repro.errors.ConfigurationError` naming the capability, on
  the library surface and through the CLI.

Live-backend tests carry the ``runtime`` marker (wall-clock, real
sockets; ``-m 'not runtime'`` skips them; a SIGALRM watchdog in
``conftest.py`` bounds each one).
"""

import asyncio

import pytest

from repro import ClusterConfig
from repro.analysis.linearizability import check_snapshot_history
from repro.backend import (
    ClusterBackend,
    UdpBackend,
    backend_capabilities,
    backend_class,
    backend_names,
    create_backend,
    run_on_backend,
)
from repro.config import ChannelConfig, scenario_config
from repro.core.cluster import ALGORITHMS
from repro.errors import ConfigurationError

#: Live backends are parametrized with the runtime marker so
#: ``-m "not runtime"`` keeps only the simulator rows.
ALL_BACKENDS = [
    "sim",
    pytest.param("asyncio", marks=pytest.mark.runtime),
    pytest.param("udp", marks=pytest.mark.runtime),
]


def _workload_result(backend: str, algorithm: str) -> dict:
    """Run the shared equivalence workload and distill comparable facts."""
    config = scenario_config(n=3, seed=7, delta=2)

    async def body(cluster):
        ts_first = await cluster.write(0, b"alpha")
        ts_other = await cluster.write(1, b"beta")
        ts_second = await cluster.write(0, b"alpha2")
        snapshot = await cluster.snapshot(2)
        report = check_snapshot_history(cluster.history.records(), 3)
        return {
            "write_ts": (ts_first, ts_other, ts_second),
            "snapshot": tuple(snapshot.values),
            "linearizable": report.ok,
        }

    return run_on_backend(backend, algorithm, config, body, time_scale=0.002)


class TestContract:
    def test_registry_names(self):
        assert backend_names() == ["asyncio", "sim", "udp"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(
            ConfigurationError, match=r"'asyncio', 'sim', 'udp'"
        ):
            backend_class("tcp")

    def test_every_backend_subclasses_the_contract(self):
        for name in backend_names():
            assert issubclass(backend_class(name), ClusterBackend)

    def test_capability_matrix(self):
        sim = backend_capabilities("sim")
        aio = backend_capabilities("asyncio")
        udp = backend_capabilities("udp")
        # Determinism and schedule pinning are the simulator's domain.
        assert sim.deterministic and sim.schedule_pinning
        assert not aio.deterministic and not aio.schedule_pinning
        assert not udp.deterministic and not udp.schedule_pinning
        # Fault vocabulary is shared by all three.
        for capabilities in (sim, aio, udp):
            assert capabilities.partitions and capabilities.channel_faults
        # Only UDP crosses real sockets; its packets are opaque bytes.
        assert udp.real_sockets and not udp.in_flight_inspection
        assert aio.in_flight_inspection and not aio.real_sockets

    def test_require_names_the_capability_and_backend(self):
        with pytest.raises(ConfigurationError) as excinfo:
            backend_capabilities("udp").require(
                "schedule_pinning", "replaying a pinned decision_script"
            )
        message = str(excinfo.value)
        assert "schedule_pinning" in message
        assert "udp" in message
        assert "pinned decision_script" in message


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestEquivalence:
    def test_same_workload_same_semantics(self, backend, algorithm):
        result = _workload_result(backend, algorithm)
        reference = _workload_result("sim", algorithm)
        assert result["write_ts"] == reference["write_ts"] == (1, 1, 2)
        assert result["snapshot"] == reference["snapshot"]
        assert result["snapshot"][0] == b"alpha2"
        assert result["snapshot"][1] == b"beta"
        assert result["linearizable"] and reference["linearizable"]


@pytest.mark.runtime
class TestUdpFaultInjection:
    def test_retransmission_survives_loss_and_duplication(self):
        channel = ChannelConfig(
            min_delay=0.1,
            max_delay=0.5,
            loss_probability=0.25,
            duplication_probability=0.25,
        )
        config = ClusterConfig(n=3, seed=11, delta=1, channel=channel)

        async def main():
            cluster = await create_backend(
                "udp", "ss-nonblocking", config, time_scale=0.002
            )
            try:
                for k in range(4):
                    await asyncio.wait_for(
                        cluster.write(k % 3, f"v{k}".encode()), timeout=30
                    )
                result = await asyncio.wait_for(
                    cluster.snapshot(0), timeout=30
                )
                assert result.values[0] == b"v3"
                stats = cluster.metrics.snapshot()
                return stats.dropped_loss, stats.duplicated
            finally:
                await cluster.close()

        dropped, duplicated = asyncio.run(main())
        # The gate really did hit live datagrams — yet every operation
        # above still completed, because the algorithms retransmit.
        assert dropped > 0
        assert duplicated > 0


@pytest.mark.runtime
class TestCloseLifecycle:
    def test_close_is_idempotent(self):
        async def main():
            cluster = await create_backend("udp", "ss-nonblocking")
            await cluster.close()
            await cluster.close()

        asyncio.run(main())

    def test_close_before_create_is_safe(self):
        async def main():
            backend = UdpBackend("ss-nonblocking")
            await backend.close()
            await backend.close()

        asyncio.run(main())

    def test_operations_after_close_do_not_hang_forever(self):
        async def main():
            cluster = await create_backend("udp", "ss-nonblocking")
            await cluster.write(0, b"before")
            await cluster.close()
            assert cluster.network is None or not cluster.network._open

        asyncio.run(main())


class TestCapabilityErrors:
    """Sim-only features fail loudly — and identically — off-sim."""

    def test_fuzz_jobs_on_live_backend(self):
        from repro.fuzz import run_fuzz_campaign

        with pytest.raises(ConfigurationError, match="process_fanout"):
            run_fuzz_campaign([0], jobs=2, backend="udp")

    def test_pinned_schedule_on_live_backend(self):
        from dataclasses import replace

        from repro.fuzz.executor import run_spec
        from repro.fuzz.spec import generate_spec

        spec = generate_spec(0, events=5)
        pinned = replace(spec, decision_script=(0, 1, 0))
        with pytest.raises(ConfigurationError, match="schedule_pinning"):
            run_spec(pinned, backend="udp")

    def test_fuzz_cli_jobs_on_live_backend(self):
        from repro.__main__ import main

        with pytest.raises(ConfigurationError, match="process_fanout"):
            main(["fuzz", "--backend", "udp", "--jobs", "2", "--seeds", "2"])

    def test_latency_cli_jobs_on_live_backend(self):
        from repro.__main__ import main

        with pytest.raises(ConfigurationError, match="process_fanout"):
            main(["latency", "--backend", "asyncio", "--jobs", "3"])

    def test_unknown_backend_flag_exits(self, usage_error):
        err = usage_error(["fuzz", "--backend", "tcp"])
        assert "invalid choice: 'tcp'" in err

    def test_sim_only_experiment_selection_rejected(self, usage_error):
        err = usage_error(["experiments", "e01", "--backend", "udp"])
        assert "--backend applies only to" in err


class TestBackendCli:
    def test_backends_command_prints_matrix(self, capsys):
        from repro.__main__ import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in backend_names():
            assert name in out
        assert "schedule_pinning" in out

    def test_latency_campaign_on_sim(self, capsys):
        from repro.__main__ import main

        assert main(["latency", "--seeds", "2", "--budget", "2"]) == 0
        out = capsys.readouterr().out
        assert "msgs/op" in out

    def test_e16_rows_on_sim(self):
        from repro.harness.latency import e16_backend_parity

        rows = e16_backend_parity(backend="sim", ops=2)
        assert [row["backend"] for row in rows] == ["sim"]
        assert rows[0]["write_msgs_per_op"] > 0
