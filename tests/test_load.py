"""Load-generation subsystem: specs, pipelining, reports, sweeps, CLI —
plus the pinned runs and capacity gates that hold its numbers in place."""

import hashlib
import pathlib
import subprocess
import sys

import pytest

from repro.backend.base import OperationPipeline, run_on_backend
from repro.config import scenario_config
from repro.errors import ConfigurationError
from repro.load import (
    KNEE_EFFICIENCY,
    OPEN,
    LoadGenerator,
    LoadReport,
    LoadSpec,
    SweepResult,
    default_rate_ladder,
    driver,
    e17_throughput_vs_n,
    e19_throughput_vs_shards,
    experiments,
    parse_mix,
    run_load,
    run_load_campaigns,
    sweep_rates,
)
from repro.obs.registry import QuantileHistogram

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestParseMix:
    def test_standard_mixes(self):
        assert parse_mix("8:2") == pytest.approx(0.8)
        assert parse_mix("1:1") == pytest.approx(0.5)
        assert parse_mix("0:1") == 0.0
        assert parse_mix("1:0") == 1.0

    @pytest.mark.parametrize("bad", ["x", "1", "1:2:3", "-1:2", "0:0"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            parse_mix(bad)


class TestLoadSpec:
    def test_defaults_are_closed_loop(self):
        spec = LoadSpec()
        assert spec.mode == "closed"
        assert spec.depth == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "bogus"},
            {"mode": OPEN},  # open loop without a rate
            {"mode": OPEN, "rate": 0.0},
            {"clients": 0},
            {"depth": 0},
            {"duration": 0.0},
            {"write_fraction": 1.5},
            {"skew": -0.1},
            {"composes": -1},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            LoadSpec(**kwargs)


class TestQuantileHistogram:
    def test_quantiles_track_uniform_samples(self):
        hist = QuantileHistogram("t")
        for value in range(1, 1001):
            hist.observe(float(value))
        assert hist.count == 1000
        # Log-bucketing promises ~±2.5% relative error per bucket.
        assert hist.quantile(0.50) == pytest.approx(500, rel=0.06)
        assert hist.quantile(0.99) == pytest.approx(990, rel=0.06)
        summary = hist.value
        assert summary["min"] == 1.0 and summary["max"] == 1000.0
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_empty_and_clamped_samples(self):
        hist = QuantileHistogram("t")
        assert hist.value["p99"] == 0.0
        hist.observe(-5.0)  # clamps to zero rather than corrupting buckets
        assert hist.value["max"] == 0.0
        assert hist.quantile(0.5) == 0.0


class TestOperationPipeline:
    def test_depth_must_be_positive(self):
        def body_factory(depth):
            async def body(cluster):
                cluster.pipeline(depth=depth)

            return body

        with pytest.raises(ConfigurationError):
            run_on_backend(
                "sim", "ss-always", scenario_config(n=3), body_factory(0)
            )

    def test_depth_one_is_serial(self):
        async def body(cluster):
            pipeline = cluster.pipeline(depth=1)
            first = await pipeline.write(0, b"a")
            second = await pipeline.write(1, b"b")
            # Reserving for the second op awaited the first to completion.
            assert first.done()
            assert pipeline.in_flight == 1
            await pipeline.drain()
            assert second.done()
            assert pipeline.in_flight == 0

        run_on_backend("sim", "ss-always", scenario_config(n=3), body)

    def test_window_never_exceeds_depth(self):
        async def body(cluster):
            pipeline = cluster.pipeline(depth=2)
            for node in range(4):
                await pipeline.write(node % cluster.config.n, node)
                assert pipeline.in_flight <= 2
            await pipeline.drain()

        run_on_backend("sim", "ss-nonblocking", scenario_config(n=4), body)

    def test_pipeline_is_an_operation_pipeline(self):
        async def body(cluster):
            assert isinstance(cluster.pipeline(), OperationPipeline)

        run_on_backend("sim", "ss-always", scenario_config(n=3), body)


class TestSubmitChaining:
    def test_same_node_submissions_dispatch_fifo(self):
        async def body(cluster):
            tasks = [cluster.submit_write(0, value) for value in range(3)]
            results = [await task for task in tasks]
            # SWMR: one sequential client per node, so timestamps step.
            assert results == [1, 2, 3]
            cluster.history.validate_well_formed()

        run_on_backend("sim", "ss-always", scenario_config(n=3), body)

    def test_cross_node_submissions_overlap(self):
        async def body(cluster):
            tasks = [
                cluster.submit_write(node, node)
                for node in range(cluster.config.n)
            ]
            for task in tasks:
                await task
            snap = await cluster.snapshot(0)
            assert snap.values == tuple(range(cluster.config.n))
            cluster.history.validate_well_formed()

        run_on_backend("sim", "ss-nonblocking", scenario_config(n=4), body)


def _history_fingerprint(workload_seed, depth):
    spec = LoadSpec(clients=3, depth=depth, duration=40.0, seed=workload_seed)

    async def body(cluster):
        generator = LoadGenerator(cluster, spec)
        await generator.run()
        cluster.history.validate_well_formed()
        return tuple(repr(record) for record in cluster.history.records())

    return run_on_backend(
        "sim", "ss-nonblocking", scenario_config(n=4, seed=1), body
    )


class TestRunLoad:
    def test_closed_loop_report(self):
        report = run_load(
            "sim",
            "ss-nonblocking",
            spec=LoadSpec(clients=4, depth=2, duration=30.0),
        )
        assert report.ok
        assert report.completed > 0
        assert report.errors == 0
        assert report.throughput > 0
        assert report.quantile("all", "p99") >= report.quantile("all", "p50")
        assert report.spec.mode == "closed"
        assert report.summary().endswith(", linearizable")

    def test_open_loop_report(self):
        report = run_load(
            "sim",
            "ss-nonblocking",
            spec=LoadSpec(mode=OPEN, rate=1.0, duration=30.0),
        )
        assert report.ok
        assert report.offered_rate == 1.0
        assert report.summary().startswith("open load on sim")

    def test_pipelined_run_is_deterministic(self):
        # Tentpole property: same seed => identical history, even with
        # several operations in flight per client.
        first = _history_fingerprint(workload_seed=5, depth=3)
        second = _history_fingerprint(workload_seed=5, depth=3)
        assert first == second
        assert len(first) > 0

    def test_workload_seed_changes_history(self):
        assert _history_fingerprint(5, depth=3) != _history_fingerprint(6, depth=3)

    def test_saturated_mixed_workload_linearizable(self):
        report = run_load(
            "sim",
            "ss-nonblocking",
            spec=LoadSpec(
                clients=8, depth=4, write_fraction=0.5, skew=1.0, duration=40.0
            ),
        )
        assert report.ok, report.failures
        assert report.completed >= 20
        assert report.metrics["load.max_in_flight"] > 1


#: (algorithm, depth, shards) -> (history digest, completed, throughput)
#: for a seed-3, 8-client, 30 u closed-loop run at n=4, recorded at the
#: last commit that still had two load drivers (``repro.load.driver``
#: for a cluster, ``repro.shard.load`` for a fabric).  Run-to-run
#: determinism alone would let a shifted draw or await order re-baseline
#: E17–E19 silently; update these literals only for a *deliberate*
#: schedule-affecting change, and say so in the commit message.
#: The two fabric rows were re-pinned once, by PR 22: a keyed read became
#: one ``read(node)`` quorum round instead of a whole-shard snapshot
#: (53 → 64 and 173 → 247 operations in the same 30 u); the two
#: single-cluster rows issue no read and did not move.  PR 23 (scan-free
#: group commits ship one entry) moved none of the four.  All four were
#: re-pinned when, while an operation is in flight, a request since the
#: last tick began standing in for the gossip digest between its sender
#: and its receiver: fewer messages draw fewer channel delays (53 → 57,
#: 129 → 92, 64 → 62 and 247 → 233 operations; amortized at n=4 averages
#: 135.6 → 129.8 over seeds 0–11, and seed 3 is its low end).
PINNED_RUNS = {
    ("ss-nonblocking", 4, None): ("7d951f8e5115c91d", 57, 0.8982389875518639),
    ("amortized", 4, None): ("622d1ec8e8dc1465", 92, 2.788441590393926),
    ("ss-nonblocking", 1, 2): ("b1bf268625d8efe6", 62, 1.8829318197710612),
    ("amortized", 4, 2): ("02ef49b25f88f3e3", 233, 6.773242052676778),
}


def pinned_run(monkeypatch, algorithm, depth, shards):
    """One ``PINNED_RUNS`` run; returns its report and its backends."""
    deployments = []
    for name in ("run_on_backend", "run_on_fabric"):

        def spy(*args, _real=getattr(driver, name), **kwargs):
            *head, body = args

            async def spied(deployment):
                deployments.append(deployment)
                return await body(deployment)

            return _real(*head, spied, **kwargs)

        monkeypatch.setattr(driver, name, spy)
    report = run_load(
        "sim",
        algorithm,
        scenario_config(n=4, seed=3, delta=2),
        LoadSpec(clients=8, depth=depth, duration=30.0, seed=3),
        shards=shards,
    )
    assert report.ok, report.failures
    (deployment,) = deployments
    return report, deployment.backends() if shards else [deployment]


@pytest.mark.parametrize("algorithm, depth, shards", PINNED_RUNS)
def test_pinned_closed_loop_runs(monkeypatch, algorithm, depth, shards):
    report, backends = pinned_run(monkeypatch, algorithm, depth, shards)
    hasher = hashlib.sha256()
    for backend in backends:
        for record in backend.history.records():
            hasher.update(repr(record).encode())
    assert (
        hasher.hexdigest()[:16], report.completed, report.throughput
    ) == PINNED_RUNS[algorithm, depth, shards]


def _point(offered, throughput, failures=()):
    quantiles = {"count": 1, "sum": 1.0, "min": 1.0, "max": 1.0,
                 "mean": 1.0, "p50": 1.0, "p95": 1.0, "p99": 1.0}
    return LoadReport(
        backend="sim",
        algorithm="ss-nonblocking",
        n=4,
        spec=LoadSpec(mode=OPEN, rate=offered, duration=10.0),
        offered_rate=offered,
        submitted=10,
        completed=10,
        errors=0,
        elapsed=10.0,
        throughput=throughput,
        latency={"all": quantiles, "write": quantiles, "snapshot": quantiles},
        metrics={},
        failures=list(failures),
    )


class TestSweep:
    def test_default_ladder_straddles_capacity(self):
        ladder = default_rate_ladder(4)
        assert ladder == sorted(ladder)
        assert ladder[0] < 2.0 < ladder[-1]  # capacity n/2 sits inside

    def test_knee_is_last_rung_keeping_up(self):
        sweep = SweepResult(
            backend="sim", algorithm="ss-nonblocking", n=4,
            points=[_point(0.5, 0.5), _point(1.0, 0.95), _point(2.0, 1.0)],
        )
        # 1.0 keeps up (0.95 >= 0.9), 2.0 does not (1.0 < 1.8).
        assert sweep.knee_rate == 1.0
        assert sweep.saturated_throughput == 1.0
        assert sweep.ok

    def test_knee_none_when_never_keeping_up(self):
        sweep = SweepResult(
            backend="sim", algorithm="ss-nonblocking", n=4,
            points=[_point(4.0, 1.0)],
        )
        assert sweep.knee_rate is None
        assert "saturated below" in sweep.summary()

    def test_failures_propagate(self):
        sweep = SweepResult(
            backend="sim", algorithm="ss-nonblocking", n=4,
            points=[_point(0.5, 0.5, failures=["boom"])],
        )
        assert not sweep.ok
        assert sweep.failures == ["boom"]

    def test_empty_rate_list_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_rates(rates=[])

    def test_real_two_rung_sweep_locates_knee(self):
        sweep = sweep_rates(
            backend="sim", n=4, rates=[0.25, 4.0], duration=60.0
        )
        assert sweep.ok, sweep.failures
        assert sweep.knee_rate == 0.25
        assert sweep.saturated_throughput > KNEE_EFFICIENCY * 0.25


class TestCapacityGates:
    """The scaling claims, recomputed on the live code.

    The simulator is deterministic, so these are exact re-measurements
    (≈3 s together), not samples.  Bars, not goldens: the figures in the
    comments are today's values.
    """

    #: Each doubling of K must gain at least this factor — strictly
    #: increasing, with slack for composed-cut and routing overhead.
    MIN_STEP_GAIN = 1.05
    #: K=8 must beat the K=1 rung (the single-cluster capacity) by this.
    MIN_K8_SPEEDUP = 5.0
    #: Minimum amortized capacity (op/u) at n=4, and minimum ratio over
    #: the pipelined ss-nonblocking baseline.
    CAPACITY_FLOOR = 1.5
    CAPACITY_GAIN = 1.5
    #: Minimum saturated capacity (op/u) of the ss-nonblocking sweep at
    #: n=4.  It reads 1.00 at seed 0; over seeds 0–23 it spans 0.85–1.09
    #: (mean 0.971), so this is a bar under the seed spread.
    SATURATED_FLOOR = 0.8
    #: Top-rung p50 ceiling (simulated time units) for amortized sweeps.
    P50_CEILING = 50.0
    #: Bytes per operation of the pinned K=2 amortized fabric run before
    #: scan-free group commits shipped one entry instead of ``lReg``
    #: (PR 23's parent: 626 214 B over 247 operations).
    WHOLE_ARRAY_BYTES_PER_OP = 2535.0
    #: ``READ`` bytes per operation of that run once a keyed write ships
    #: the keys it changed (39 483 B over 233 operations), and the whole
    #: run's bytes per operation while ``READ`` still shipped the slot
    #: map (142 805 B).
    KEY_DELTA_READ_BYTES_PER_OP = 169.5
    WHOLE_MAP_BYTES_PER_OP = 613.0

    def test_e19_throughput_scales_with_shard_count(self, monkeypatch):
        reports = []

        def spy(**kwargs):
            reports.append(run_load(**kwargs))
            return reports[-1]

        monkeypatch.setattr(experiments, "run_load", spy)
        rows = e19_throughput_vs_shards()
        assert [report.shards for report in reports] == [1, 2, 4, 8]
        for report in reports:
            assert report.ok and report.errors == 0, report.failures
        for earlier, later in zip(rows, rows[1:]):
            assert (
                later["throughput"]
                >= self.MIN_STEP_GAIN * earlier["throughput"]
            )
        assert rows[-1]["speedup_vs_k1"] >= self.MIN_K8_SPEEDUP  # 6.04

    def test_e17_amortized_capacity_at_n4(self):
        (row,) = e17_throughput_vs_n(ns=(4,))
        assert row["linearizable"]
        assert row["throughput_amortized_b8"] >= self.CAPACITY_FLOOR  # 2.45
        assert row["amortized_gain"] >= self.CAPACITY_GAIN  # 2.47

    def test_keyed_write_ships_one_entry_not_the_array(self, monkeypatch):
        """Counted on the live metrics of the run ``PINNED_RUNS`` pins
        (same 233 operations), not read from a committed figure."""
        report, backends = pinned_run(monkeypatch, "amortized", 4, 2)
        assert report.completed == PINNED_RUNS["amortized", 4, 2][1]
        total = sum(b.metrics.snapshot().total_bytes for b in backends)
        per_op = total / report.completed  # 613
        assert per_op <= self.WHOLE_ARRAY_BYTES_PER_OP / 2

    def test_keyed_write_ships_its_key_not_the_map(self, monkeypatch):
        """Same run: ``READ`` carries the changed keys of the slot map."""
        report, backends = pinned_run(monkeypatch, "amortized", 4, 2)
        assert report.completed == PINNED_RUNS["amortized", 4, 2][1]
        snapshots = [b.metrics.snapshot() for b in backends]
        read = sum(s.bytes_by_kind.get("READ", 0) for s in snapshots)
        assert read / report.completed <= self.KEY_DELTA_READ_BYTES_PER_OP * 1.1
        total = sum(s.total_bytes for s in snapshots)
        assert total / report.completed < self.WHOLE_MAP_BYTES_PER_OP  # 392

    def test_sweep_finds_the_knee_and_amortized_flattens_it(self):
        baseline = sweep_rates()
        offered = [point.offered_rate for point in baseline.points]
        assert offered == sorted(offered) and offered[-1] == 8.0
        assert baseline.ok, baseline.failures
        assert all(point.errors == 0 for point in baseline.points)
        assert baseline.knee_rate == 0.5
        assert baseline.saturated_throughput >= self.SATURATED_FLOOR
        # Past the knee the baseline's open-loop queue diverges; shared
        # rounds keep the amortized median flat (230.5 u vs 3.3 u).
        baseline_p50 = baseline.points[-1].latency["all"]["p50"]
        for batch in (None, 8):
            top = sweep_rates(
                algorithm="amortized", rates=offered[-1:], batch=batch
            )
            assert top.ok, top.failures
            p50 = top.points[0].latency["all"]["p50"]
            assert p50 < self.P50_CEILING and p50 < baseline_p50 / 2


class TestCampaigns:
    def test_one_report_per_seed(self):
        reports = run_load_campaigns(
            seeds=[0, 1], algorithm="ss-nonblocking", budget=20
        )
        assert len(reports) == 2
        assert [r.spec.seed for r in reports] == [0, 1]
        assert all(r.ok for r in reports)

    def test_jobs_fanout_requires_sim(self):
        with pytest.raises(ConfigurationError):
            run_load_campaigns(seeds=[0], jobs=2, backend="asyncio")


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro", "load", *args],
            capture_output=True,
            text=True,
            timeout=240,
            cwd=ROOT,
            env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_closed_loop_command(self):
        result = self._run(
            "--backend", "sim", "--clients", "2", "--depth", "2",
            "--duration", "15", "--seeds", "1",
        )
        assert result.returncode == 0, result.stderr
        assert "closed load on sim" in result.stdout
        assert "linearizable" in result.stdout

    def test_sweep_command_prints_the_ladder(self):
        result = self._run("--backend", "sim", "--sweep", "--duration", "20")
        assert result.returncode == 0, result.stderr
        assert "knee at" in result.stdout
        assert "all linearizable" in result.stdout
