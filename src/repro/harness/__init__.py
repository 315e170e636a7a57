"""Experiment harness: workloads, experiment runners, table reporting."""

from repro.harness.experiments import EXPERIMENTS, Experiment, run_experiment
from repro.harness.report import format_table, print_table
from repro.harness.workloads import ContinuousWriters, value_of_size

__all__ = [
    "ContinuousWriters",
    "EXPERIMENTS",
    "Experiment",
    "format_table",
    "print_table",
    "run_experiment",
    "value_of_size",
]
