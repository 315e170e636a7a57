"""Tests of the ledger itself.  Run with ``python -m pytest ledger -q``.

Tier-1's ``testpaths`` does not include this directory; these tests
guard the benchmark, not the program.
"""

import dataclasses
import json
import os
import re
import sys

import pytest

import ledger

ledger.bootstrap()

from ledger import catalog, compare, run  # noqa: E402
from ledger.__main__ import main  # noqa: E402
from ledger.layers import CALL, ENTRY_POINTS  # noqa: E402
from ledger.trace import _raw, _resolve  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCALE = 0.05
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SIM = [w for w in catalog.WORKLOADS if w.deterministic]


def _exact(block: dict) -> dict:
    values = {
        name: entry["value"]
        for name, entry in block["end_to_end"].items()
        if entry.get("exact")
    }
    values["digest"] = block["digest"]
    return values


@pytest.mark.parametrize("w", SIM, ids=lambda w: w.name)
def test_sim_workload_is_deterministic(w):
    first = run.measure(w, 1, 0.0, SCALE, imports=False)
    second = run.measure(w, 1, 0.0, SCALE, imports=False)
    assert first["samples"]["repetitions"] == run.MIN_REPS
    assert not first["violation_messages"]
    assert first["totals"]["failed"] == 0
    assert _exact(first) == _exact(second)
    assert len(_exact(first)) >= 7  # the exact metrics really are marked


@pytest.mark.parametrize("w", catalog.WORKLOADS, ids=lambda w: w.name)
def test_every_declared_metric_is_emitted_or_null_with_a_reason(w):
    untraced = run.measure(w, 1, 0.0, SCALE, imports=False)
    assert list(untraced["end_to_end"]) == [m.name for m in catalog.END_TO_END]
    for metric in catalog.END_TO_END:
        entry = untraced["end_to_end"][metric.name]
        assert (entry["value"] is not None) == metric.applies_to(w)
        assert entry["value"] is not None or entry["reason"]
    for name, entry in run.driver_metrics(untraced).items():
        assert isinstance(entry["value"], (int, float)) and entry["value"] > 0, name

    traced = run.trace(w, 1, SCALE)
    assert list(traced["per_layer"]) == [m.name for m in catalog.PER_LAYER]
    for name, entry in traced["per_layer"].items():
        assert entry["value"] is not None or entry["reason"], name
    assert not traced["absent"]
    assert not traced["violation_messages"]
    for phase, info in traced["phases"].items():
        assert info["sum_error_frac"] < 0.01, phase
    assert os.path.exists(os.path.join(ROOT, traced["trace_file"]))
    assert all(
        isinstance(entry["value"], (int, float))
        for entry in run.driver_per_layer(traced).values()
    )


def test_names_are_well_formed_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        registered = json.load(handle)
    names = (
        [w.name for w in catalog.WORKLOADS]
        + [m.name for m in catalog.END_TO_END]
        + [m.name for m in catalog.PER_LAYER]
    )
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(set(names)) == len(names)
    assert [(w["name"], w["why"]) for w in registered["workloads"]] == [
        (name, catalog.workload(name).why) for name in catalog.DRIVER_WORKLOADS
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in registered["end_to_end"]
    ] == list(catalog.DRIVER_END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in registered["per_layer"]] == [
        (m.name, m.unit, m.better) for m in catalog.PER_LAYER
    ]
    assert registered["run_seconds"] == catalog.RUN_SECONDS
    assert all(len(w.why) <= 200 for w in catalog.WORKLOADS)


def test_a_broken_history_fails_the_command(monkeypatch, tmp_path, capsys):
    """First-ack-only snapshots read a stale minority during the partition."""
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    try:
        import broken_algorithms  # noqa: F401  (registers broken-first-ack)
    finally:
        sys.path.pop(0)
    broken = tuple(
        dataclasses.replace(w, algorithm="broken-first-ack")
        if w.name == "sim-fault-storm"
        else w
        for w in catalog.WORKLOADS
    )
    monkeypatch.setattr(catalog, "WORKLOADS", broken)
    out = tmp_path / "record.json"
    status = main(
        ["--workload", "sim-fault-storm", "--scale", "0.1", "--seconds", "0",
         "--out", str(out)]
    )
    assert status != 0
    record = json.loads(out.read_text())
    block = record["workloads"]["sim-fault-storm"]
    assert block["end_to_end"]["violations"]["value"] > 0
    result_line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result_line["correct"] is False


def test_shims_are_fully_removed_after_a_traced_run():
    before = {}
    for path, how, _layer, options in ENTRY_POINTS:
        owner, attr = _resolve(path)
        before[path] = _raw(owner, attr)
        if how == CALL:
            for module_name in options.get("also", ()):
                before[(path, module_name)] = getattr(sys.modules[module_name], attr)
    run.trace(catalog.workload("sim-write-heavy"), 1, SCALE)
    for path, how, _layer, options in ENTRY_POINTS:
        owner, attr = _resolve(path)
        assert _raw(owner, attr) is before[path], path
        if how == CALL:
            for module_name in options.get("also", ()):
                assert getattr(sys.modules[module_name], attr) is before[(path, module_name)]
    from repro.core.cluster import ALGORITHMS

    for cls in ALGORITHMS.values():
        for method in ("write", "snapshot", "do_forever_iteration"):
            assert "shim" not in getattr(cls, method).__qualname__


def test_compare_verdicts(tmp_path):
    w = catalog.workload("sim-write-heavy")
    record = {"workloads": {w.name: run.measure(w, 1, 0.0, SCALE, imports=False)}}
    a = tmp_path / "a.json"
    a.write_text(json.dumps(record))
    assert compare.main([str(a), str(a)]) == 0
    rows = compare.compare(compare.load(str(a)), compare.load(str(a)))
    assert {row["verdict"] for row in rows} <= {"ok", "unresolved"}
    assert any(row["metric"] == "digest" and row["verdict"] == "ok" for row in rows)

    worse = json.loads(a.read_text())
    e2e = worse["workloads"][w.name]["end_to_end"]
    e2e["msgs_per_op"]["runs"] = [v * 1.5 for v in e2e["msgs_per_op"]["runs"]]
    e2e["failed_ops_frac"]["runs"] = [0.01] * len(e2e["failed_ops_frac"]["runs"])
    b = tmp_path / "b.json"
    b.write_text(json.dumps(worse))
    assert compare.main([str(a), str(b)]) == 1
    verdicts = {
        row["metric"]: row["verdict"]
        for row in compare.compare(compare.load(str(a)), compare.load(str(b)))
    }
    assert verdicts["msgs_per_op"] == "regressed"
    assert verdicts["failed_ops_frac"] == "regressed"
    assert verdicts["sim_ops_per_u"] == "ok"
