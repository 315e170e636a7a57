"""Smoke tests: every example script runs and prints what it promises.

Keeps the examples working as the library evolves — broken examples are
a documentation bug.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, timeout=240):
    # -W error::DeprecationWarning: the examples are the library's
    # showcase, so they must not lean on deprecated facades.
    result = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning",
         str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_examples_directory_contents():
    names = {path.name for path in EXAMPLES.glob("*.py")}
    assert {
        "quickstart.py",
        "distributed_monitoring.py",
        "fault_recovery_demo.py",
        "delta_tuning.py",
        "asyncio_cluster.py",
        "paper_figures.py",
    } <= names


def test_quickstart():
    out = run_example("quickstart.py")
    assert "'alpha': (2, b'a2')" in out
    assert "linearizable    : True" in out
    assert "epoch 0->1" in out


def test_distributed_monitoring():
    out = run_example("distributed_monitoring.py")
    assert "total load" in out
    assert "all observed global states consistent: True" in out


def test_fault_recovery_demo():
    out = run_example("fault_recovery_demo.py")
    assert "STUCK FOREVER" in out  # the baseline fails…
    assert "RECOVERED" in out  # …and the SS variant heals


@pytest.mark.slow
def test_delta_tuning():
    out = run_example("delta_tuning.py", timeout=600)
    assert "delta trade-off" in out
    assert "∞" in out


def test_asyncio_cluster():
    out = run_example("asyncio_cluster.py")
    assert "history linearizable: True" in out
    assert "written-while-3-down" in out


def test_paper_figures():
    out = run_example("paper_figures.py")
    for marker in (
        "Figure 1 (upper)",
        "Figure 1 (lower)",
        "Figure 2",
        "Figure 3 (upper)",
        "Figure 3 (lower)",
    ):
        assert marker in out


def test_live_reconfiguration():
    out = run_example("live_reconfiguration.py")
    assert "reconfigured to n=6 (ss-always) at epoch 1; carried 2 keys" in out
    assert "'inventory': (2, 41)" in out.split("after")[1]
    assert "version 3" in out
    assert "linearizable: True" in out


def test_snapshot_applications():
    out = run_example("snapshot_applications.py")
    assert "items processed : 60 (expected 60)" in out


def test_udp_cluster():
    out = run_example("udp_cluster.py")
    assert "history linearizable: True" in out
    assert "datagrams" in out
