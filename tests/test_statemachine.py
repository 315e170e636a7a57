"""Stateful property testing: random operation/fault interleavings.

A hypothesis ``RuleBasedStateMachine`` drives an arbitrary sequence of
writes, snapshots, crashes, resumes, detectable restarts, and settle
periods against a cluster, checking after every step that the recorded
history remains linearizable.  This explores interaction sequences none
of the hand-written scenarios cover.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro import ClusterConfig, SimBackend
from repro.analysis.linearizability import check_snapshot_history

N = 4
ALGORITHMS = ["dgfr-nonblocking", "ss-nonblocking", "ss-always"]


class SnapshotObjectMachine(RuleBasedStateMachine):
    """Random single-threaded driver of a simulated cluster."""

    def __init__(self):
        super().__init__()
        self.cluster = None
        self.write_counter = 0

    @initialize(
        algorithm=st.sampled_from(ALGORITHMS),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def setup(self, algorithm, seed):
        self.cluster = SimBackend(
            algorithm, ClusterConfig(n=N, seed=seed, delta=1)
        )

    # -- helpers -----------------------------------------------------------

    def _alive(self):
        return self.cluster.alive_nodes()

    def _majority_alive(self):
        return len(self._alive()) >= self.cluster.config.majority

    # -- rules -------------------------------------------------------------

    @precondition(lambda self: self.cluster and self._majority_alive())
    @rule(node=st.integers(min_value=0, max_value=N - 1))
    def write(self, node):
        if self.cluster.node(node).crashed:
            return
        self.write_counter += 1
        self.cluster.write_sync(node, f"v{self.write_counter}", max_events=None)

    @precondition(lambda self: self.cluster and self._majority_alive())
    @rule(node=st.integers(min_value=0, max_value=N - 1))
    def snapshot(self, node):
        if self.cluster.node(node).crashed:
            return
        self.cluster.snapshot_sync(node, max_events=None)

    @precondition(lambda self: self.cluster)
    @rule(node=st.integers(min_value=0, max_value=N - 1))
    def crash(self, node):
        # Keep a majority alive so operations stay live.
        alive = self._alive()
        if node in alive and len(alive) > self.cluster.config.majority:
            self.cluster.crash(node)

    @precondition(lambda self: self.cluster)
    @rule(
        node=st.integers(min_value=0, max_value=N - 1),
        restart=st.booleans(),
    )
    def resume(self, node, restart):
        if self.cluster.node(node).crashed:
            self.cluster.resume(node, restart=restart)

    @precondition(lambda self: self.cluster)
    @rule(cycles=st.integers(min_value=1, max_value=3))
    def settle(self, cycles):
        if self._alive():
            self.cluster.run_until(
                self.cluster.settle_cycles(cycles), max_events=None
            )

    # -- invariant ------------------------------------------------------------

    @invariant()
    def history_linearizable(self):
        if self.cluster is None:
            return
        report = check_snapshot_history(
            self.cluster.history.records(), N
        )
        assert report.ok, report.summary()


@pytest.mark.xfail(
    strict=True,
    reason="open: a detectable restart wipes ts, so a write there before "
    "gossip restores it reuses the ts of the write before the restart "
    "(ROADMAP 5(h))",
)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_write_after_a_detectable_restart_follows_the_write_before_it(
    algorithm,
):
    """The state machine's shrunk finding, pinned: the machine draws it rarely."""
    cluster = SimBackend(algorithm, ClusterConfig(n=N, seed=0, delta=1))
    cluster.write_sync(3, "v1", max_events=None)
    cluster.crash(3)
    cluster.resume(3, restart=True)
    cluster.write_sync(3, "v2", max_events=None)
    report = check_snapshot_history(cluster.history.records(), N)
    assert report.ok, report.summary()


TestSnapshotObjectMachine = pytest.mark.slow(
    SnapshotObjectMachine.TestCase
)
SnapshotObjectMachine.TestCase.settings = settings(
    max_examples=15,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
