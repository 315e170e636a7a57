"""Unit tests for the parallel experiment runner (repro.harness.parallel)."""

import pytest

from repro.__main__ import build_parser
from repro.harness.parallel import (
    Cell,
    ablation_cells,
    chaos_cells,
    experiment_cells,
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

    def test_ablation_and_chaos_cells(self):
        assert ablation_cells(["a1"]) == [Cell("ablation", "a1")]
        assert chaos_cells([3], events=10) == [
            Cell("chaos", "ss-always", (("events", 10), ("seed", 3)))
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


class TestChaosCampaigns:
    def test_parallel_reports_match_serial(self):
        from repro.harness.chaos import run_chaos_campaigns

        serial = run_chaos_campaigns([0, 1], events=20, jobs=1)
        parallel = run_chaos_campaigns([0, 1], events=20, jobs=2)
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
    def test_chaos_seeds_flag(self, capsys):
        from repro.__main__ import main

        assert main(
            ["chaos", "--budget", "25", "--seeds", "2", "--jobs", "2"]
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
            reports = run_cells(
                chaos_cells([0, 1], events=40, algorithm="ss-always"),
                jobs=jobs,
            )
            obs.finish()
        return [r.summary() for r in reports], obs.collect(), obs.summary()

    def test_parallel_stats_match_serial_exactly(self):
        serial = self._stats(jobs=1)
        parallel = self._stats(jobs=2)
        assert parallel == serial
        # The merged session really carried the workers' observations.
        _, values, summary = parallel
        assert values["ops.total"] > 0
        assert any(name.startswith("health.state") for name in values)
        assert "metrics" in summary

    def test_unobserved_parallel_runs_stay_unobserved(self):
        reports = run_cells(
            chaos_cells([0], events=30, algorithm="ss-always"), jobs=2
        )
        assert len(reports) == 1 and reports[0].ok
