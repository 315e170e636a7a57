"""The paper's claims, gated on the live code, plus the harness itself.

Every registered experiment (E1–E20) and ablation (A1–A5) runs once at
its ``small`` kwargs and must pass its own gate — the same gate
``python -m repro experiments`` and ``ablations`` evaluate on every
table they print.  E16, E17 and E19 run in ``tests/test_backend.py``
and ``tests/test_load.py``; the rest run here.
"""

import copy
import math

import pytest

from repro.config import UNBOUNDED_DELTA
from repro.harness.ablations import ABLATIONS
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.report import format_table, print_table


class TestCostExperiments:
    def test_e01_matches_theory(self):
        assert EXPERIMENTS["e01"].check_small() == []

    def test_e02_gossip_quadratic(self):
        assert EXPERIMENTS["e02"].check_small() == []

    def test_e03_ratio_four(self):
        assert EXPERIMENTS["e03"].check_small() == []

    def test_e04_superlinear(self):
        assert EXPERIMENTS["e04"].check_small() == []

    def test_e05_delta_ordering(self):
        assert EXPERIMENTS["e05"].check_small() == []

    def test_e06_alg3_cheaper(self):
        assert EXPERIMENTS["e06"].check_small() == []

    def test_e15_gossip_size_independent_of_n(self):
        assert EXPERIMENTS["e15"].check_small() == []


class TestRecoveryExperiments:
    def test_e07_small_constants(self):
        assert EXPERIMENTS["e07"].check_small() == []

    def test_e08_small_constants(self):
        assert EXPERIMENTS["e08"].check_small() == []

    def test_e14_resets_and_survival(self):
        assert EXPERIMENTS["e14"].check_small() == []


class TestLatencyExperiments:
    def test_e09_all_terminate(self):
        assert EXPERIMENTS["e09"].check_small() == []

    def test_e11_gaps_at_least_delta(self):
        assert EXPERIMENTS["e11"].check_small() == []

    def test_e13_threshold(self):
        assert EXPERIMENTS["e13"].check_small() == []


@pytest.mark.parametrize(
    "name", ["e10", "e12", "e18", "e20", *sorted(ABLATIONS)]
)
def test_gate_holds(name):
    """The registered claims with no named test above."""
    entry = EXPERIMENTS.get(name) or ABLATIONS[name]
    assert entry.check_small() == []


def test_e18_verdict_holds_on_disjoint_seed_sets():
    """The pooled δ trade-off reads the same in cells 1 and 2 (seeds 8–15
    and 16–23) as in the registered cell 0 (seeds 0–7)."""
    entry = EXPERIMENTS["e18"]
    for seed in (1, 2):
        assert list(entry.gate(entry.runner(seed=seed))) == [], seed


class TestGatesFail:
    """A gate that cannot fail shows nothing: each of these breaks one
    claim in real rows and expects the gate to say so."""

    def test_e12_always_terminating_row_that_starves(self):
        rows = EXPERIMENTS["e12"].runner()
        (unbounded,) = [
            row for row in rows if row["algorithm"] == "ss-always (delta=inf)"
        ]
        unbounded["algorithm"] = "ss-always (delta=4)"
        failures = list(EXPERIMENTS["e12"].gate(rows))
        assert any("starved" in failure for failure in failures), failures

    @pytest.mark.parametrize(
        "name", ["e07", "e08", "e11", "e12", "e16", "e17", "e18", "e19"]
    )
    def test_no_rows(self, name):
        """A run that measured nothing fails its gate, not passes it."""
        assert list(EXPERIMENTS[name].gate([])) != []

    def test_e18_batched_run_that_is_not_linearizable(self, monkeypatch):
        """The batch-8 run per δ is off the table but in the verdict."""
        from repro.load import experiments as load_experiments

        real = load_experiments.run_load

        def run_load(**kwargs):
            report = real(**kwargs)
            if kwargs["config"].channel.batch_window > 1:
                report.failures.append("injected")
            return report

        monkeypatch.setattr(load_experiments, "run_load", run_load)
        rows = EXPERIMENTS["e18"].runner(deltas=(0, 8), duration=10.0, seeds=2)
        assert "sim delta=0: not linearizable" in list(
            EXPERIMENTS["e18"].gate(rows)
        )

    def test_e07_unbounded_cell_over_the_bound(self):
        rows = EXPERIMENTS["e07"].runner(n_values=(4,))
        assert list(EXPERIMENTS["e07"].gate(rows)) == []
        broken = copy.deepcopy(rows)
        broken[0]["registers"] = 7
        assert broken[0]["variant"] == "unbounded"
        assert list(EXPERIMENTS["e07"].gate(broken)) == [
            "unbounded n=4: registers took 7 > 6 cycles"
        ]


class TestRegistryAndReport:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {f"e{i:02d}" for i in range(1, 21)}

    def test_run_experiment_by_id(self):
        rows = run_experiment("e01")
        assert rows and "write_msgs" in rows[0]

    def test_format_table_basic(self):
        table = format_table(
            [{"a": 1, "b": "x"}, {"a": 22, "b": float("inf")}], title="T"
        )
        assert "T" in table
        assert "22" in table
        assert "∞" in table

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_table_nan_and_none(self):
        table = format_table([{"a": float("nan"), "b": None}])
        assert table.count("—") == 2

    def test_print_table(self, capsys):
        print_table([{"x": 1}], title="P")
        out = capsys.readouterr().out
        assert "P" in out and "1" in out

    def test_unbounded_delta_renders(self):
        table = format_table([{"delta": UNBOUNDED_DELTA}])
        assert "∞" in table
        assert math.isinf(UNBOUNDED_DELTA)


class TestBarChart:
    def test_scales_to_peak(self):
        from repro.harness.report import format_bar_chart

        chart = format_bar_chart(
            [{"x": "a", "y": 10}, {"x": "b", "y": 5}],
            "x",
            "y",
            width=10,
            title="T",
        )
        lines = chart.splitlines()
        assert lines[0] == "T"
        assert lines[1].count("█") == 10
        assert lines[2].count("█") == 5

    def test_infinite_bar(self):
        from repro.harness.report import format_bar_chart

        chart = format_bar_chart(
            [{"x": "inf", "y": float("inf")}, {"x": "one", "y": 1}],
            "x",
            "y",
            width=8,
        )
        assert "∞" in chart
        assert chart.splitlines()[0].count("█") == 8

    def test_empty(self):
        from repro.harness.report import format_bar_chart

        assert "(no rows)" in format_bar_chart([], "x", "y")

    def test_non_numeric_rendered_as_dash(self):
        from repro.harness.report import format_bar_chart

        chart = format_bar_chart([{"x": "a", "y": "oops"}], "x", "y")
        assert "—" in chart

    def test_ablations_registry_complete(self):
        assert set(ABLATIONS) == {"a1", "a2", "a3", "a4", "a5"}
