"""Shared pytest setup: make sibling test modules importable.

Some test modules import helpers from others (e.g. the fuzz e2e test
reuses ``test_verify``'s deliberately broken quorum algorithm); putting
this directory on ``sys.path`` keeps those imports working under every
pytest invocation style.
"""

import sys
from pathlib import Path

_TESTS_DIR = str(Path(__file__).resolve().parent)
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)


# -- watchdog for live-backend tests -----------------------------------------
#
# Tests marked ``runtime`` drive real event loops and real UDP sockets:
# a bug that would surface as a deterministic assertion in the simulator
# can hang forever on a live backend.  A SIGALRM watchdog (stdlib only —
# this repo deliberately has no pytest-timeout dependency) turns such a
# hang into a loud failure.  Unix-only; elsewhere the tests simply run
# unguarded.

import signal

import pytest

_RUNTIME_TEST_TIMEOUT = 60  # seconds of wall clock per runtime test


@pytest.fixture(autouse=True)
def _runtime_watchdog(request):
    if request.node.get_closest_marker("runtime") is None or not hasattr(
        signal, "SIGALRM"
    ):
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"runtime test exceeded {_RUNTIME_TEST_TIMEOUT}s wall-clock "
            f"watchdog: {request.node.nodeid}"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(_RUNTIME_TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def usage_error(capsys):
    """Run ``python -m repro ARGV`` expecting a usage error.

    A usage error is argparse's: exit status 2, a ``usage:`` line and the
    message on stderr, nothing on stdout, and never a traceback.  Returns
    the message line (``python -m repro …: error: …``).
    """
    from repro.__main__ import main

    def run(argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: python -m repro" in captured.err
        assert "Traceback" not in captured.err
        message = captured.err.splitlines()[-1]
        assert ": error: " in message
        return message

    return run
