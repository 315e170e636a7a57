"""Unit tests for the parallel experiment runner (repro.harness.parallel)."""

import pytest

from repro.__main__ import build_parser
from repro.harness.parallel import (
    Cell,
    ablation_cells,
    experiment_cells,
    fuzz_cells,
    run_cells,
)


class TestCells:
    def test_experiment_cells_without_seeds(self):
        cells = experiment_cells(["e01", "e07"])
        assert cells == [Cell("experiment", "e01"), Cell("experiment", "e07")]

    def test_experiment_cells_cross_seeds(self):
        cells = experiment_cells(["e01"], seeds=[0, 1])
        assert cells == [
            Cell("experiment", "e01", (("seed", 0),)),
            Cell("experiment", "e01", (("seed", 1),)),
        ]

    def test_ablation_and_fuzz_cells(self):
        assert ablation_cells(["a1"]) == [Cell("ablation", "a1")]
        assert fuzz_cells([3], budget=10) == [
            Cell("fuzz", "ss-always", (("budget", 10), ("seed", 3)))
        ]
        assert fuzz_cells([3], budget=10, shards=2) == [
            Cell("fuzz", "ss-always", (("budget", 10), ("seed", 3), ("shards", 2)))
        ]

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown cell kind"):
            run_cells([Cell("nope", "x")])


class TestRunCells:
    def test_serial_matches_parallel(self):
        cells = experiment_cells(["e01"], seeds=[0, 1])
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=2)
        assert serial == parallel
        assert len(serial) == 2

    def test_results_keep_cell_order(self):
        # e13 is slower than e01; order must still follow the cell list,
        # not completion order.
        cells = experiment_cells(["e13", "e01"])
        results = run_cells(cells, jobs=2)
        serial = run_cells(cells, jobs=1)
        assert results == serial

    def test_jobs_none_runs_in_process(self):
        cells = experiment_cells(["e01"])
        assert run_cells(cells, jobs=None) == run_cells(cells, jobs=1)


class TestFuzzCampaigns:
    def test_parallel_reports_match_serial(self):
        from repro.fuzz import run_fuzz_campaign

        for shards in (0, 2):
            serial = run_fuzz_campaign([0, 1], budget=20, jobs=1, shards=shards)
            parallel = run_fuzz_campaign([0, 1], budget=20, jobs=2, shards=shards)
            assert serial == parallel
            assert all(report.ok for report in serial)


class TestExtractJobs:
    """``--jobs N`` / ``-j N`` / ``--jobs=N`` as ``python -m repro`` parses them."""

    @staticmethod
    def _parse(*argv):
        args = build_parser().parse_args(["experiments", *argv])
        return args.jobs, args.ids

    def test_default(self):
        assert self._parse("e01") == (1, ["e01"])

    def test_long_flag(self):
        assert self._parse("--jobs", "4", "e01") == (4, ["e01"])

    def test_equals_form(self):
        assert self._parse("e01", "--jobs=2") == (2, ["e01"])

    def test_short_flag(self):
        assert self._parse("-j", "3") == (3, [])

    def test_missing_value_exits(self, usage_error):
        assert "argument --jobs/-j: expected one argument" in usage_error(
            ["experiments", "--jobs"]
        )

    def test_nonpositive_exits(self, usage_error):
        assert "must be >= 1, got 0" in usage_error(["experiments", "--jobs", "0"])


class TestCli:
    def test_fuzz_seeds_flag(self, capsys):
        from repro.__main__ import main

        assert main(
            ["fuzz", "--budget", "25", "--seeds", "2", "--jobs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "seed 0:" in out and "seed 1:" in out

    def test_ablations_jobs_flag_rejects_unknown(self, usage_error):
        assert "zz" in usage_error(["ablations", "zz", "--jobs", "2"])


class TestObservedParallelRuns:
    """Worker sessions ship portable snapshots; the parent absorbs them
    in cell order, so ``--stats --jobs N`` equals the serial run."""

    @staticmethod
    def _stats(jobs):
        from repro.obs.observe import Observability, session

        with session(Observability(trace_messages=False)) as obs:
            outcomes = run_cells(
                fuzz_cells([0, 1], budget=40, algorithm="ss-always"),
                jobs=jobs,
            )
            obs.finish()
        return outcomes, obs.collect(), obs.summary()

    def test_parallel_stats_match_serial_exactly(self):
        serial = self._stats(jobs=1)
        parallel = self._stats(jobs=2)
        assert parallel == serial
        # The merged session really carried the workers' observations,
        # and each worker's alerts rode back on its outcome.
        outcomes, values, summary = parallel
        assert all(outcome.alerts for outcome in outcomes)
        assert values["ops.total"] > 0
        assert any(name.startswith("health.state") for name in values)
        assert "metrics" in summary

    def test_unobserved_parallel_runs_stay_unobserved(self):
        outcomes = run_cells(
            fuzz_cells([0], budget=30, algorithm="ss-always"), jobs=2
        )
        assert len(outcomes) == 1 and outcomes[0].ok
        assert outcomes[0].alerts == ()
