"""Unit tests for Algorithm 3's macros and handlers (line-level checks)."""

import math

from repro import ClusterConfig, SimBackend, UNBOUNDED_DELTA
from repro.core.register import RegisterArray, TimestampedValue
from repro.core.ss_always import (
    PendingTask,
    SaveMessage,
    SnapshotMessage3,
    TaskDescriptor,
)


def make(delta=2, n=4, seed=0):
    return SimBackend(
        "ss-always", ClusterConfig(n=n, seed=seed, delta=delta)
    )


class TestVcMacro:
    def test_vc_reflects_register_timestamps(self):
        cluster = make()
        node = cluster.node(0)
        node.reg[1] = TimestampedValue(3, "x")
        node.reg[2] = TimestampedValue(7, "y")
        assert node.vc_now() == (0, 3, 7, 0)

    def test_writes_observed_since(self):
        cluster = make()
        node = cluster.node(0)
        node.reg[1] = TimestampedValue(3, "x")
        assert node._writes_observed_since((0, 0, 0, 0)) == 3
        assert node._writes_observed_since((0, 3, 0, 0)) == 0


class TestDeltaSetMacro:
    def test_own_pending_task_always_eligible(self):
        cluster = make(delta=UNBOUNDED_DELTA)
        node = cluster.node(1)
        node.pnd_tsk[1] = PendingTask(sns=1)
        assert 1 in node.delta_set()

    def test_foreign_task_needs_delta_writes(self):
        cluster = make(delta=3)
        node = cluster.node(0)
        node.pnd_tsk[2] = PendingTask(sns=1, vc=(0, 0, 0, 0))
        assert 2 not in node.delta_set()
        node.reg[3] = TimestampedValue(3, "w")  # 3 writes observed
        assert 2 in node.delta_set()

    def test_foreign_task_without_vc_not_eligible_at_positive_delta(self):
        cluster = make(delta=1)
        node = cluster.node(0)
        node.pnd_tsk[2] = PendingTask(sns=1, vc=None)
        assert 2 not in node.delta_set()

    def test_delta_zero_serves_all_pending(self):
        cluster = make(delta=0)
        node = cluster.node(0)
        node.pnd_tsk[2] = PendingTask(sns=1)
        node.pnd_tsk[3] = PendingTask(sns=4)
        assert set(node.delta_set()) == {2, 3}

    def test_resolved_tasks_excluded(self):
        cluster = make(delta=0)
        node = cluster.node(0)
        node.pnd_tsk[2] = PendingTask(
            sns=1, fnl=RegisterArray(4)
        )
        assert 2 not in node.delta_set()

    def test_sns_zero_never_eligible(self):
        cluster = make(delta=0)
        node = cluster.node(0)
        node.pnd_tsk[2] = PendingTask(sns=0, vc=(0, 0, 0, 0))
        assert node.delta_set() == {}


class TestSnapshotQueryHandler:
    def test_adopts_newer_task(self):
        cluster = make()
        node = cluster.node(0)
        message = SnapshotMessage3(
            tasks=(TaskDescriptor(2, 5, (0, 0, 0, 0)),),
            reg=RegisterArray(4),
            ssn=1,
            sns=0,
        )
        node._on_snapshot_query(1, message)
        assert node.pnd_tsk[2].sns == 5
        assert node.pnd_tsk[2].vc == (0, 0, 0, 0)

    def test_ignores_stale_task(self):
        cluster = make()
        node = cluster.node(0)
        node.pnd_tsk[2] = PendingTask(sns=9)
        node._on_snapshot_query(
            1,
            SnapshotMessage3(
                tasks=(TaskDescriptor(2, 5, None),),
                reg=RegisterArray(4),
                ssn=1,
                sns=0,
            ),
        )
        assert node.pnd_tsk[2].sns == 9

    def test_ignores_corrupt_descriptor(self):
        cluster = make()
        node = cluster.node(0)
        node._on_snapshot_query(
            1,
            SnapshotMessage3(
                tasks=(
                    TaskDescriptor(99, 5, None),   # out-of-range node
                    TaskDescriptor(-1, 5, None),   # negative node
                    TaskDescriptor(2, 0, None),    # sns 0 never legitimate
                ),
                reg=RegisterArray(4),
                ssn=1,
                sns=0,
            ),
        )
        assert all(task.sns == 0 for task in node.pnd_tsk)

    def test_does_not_clobber_vc_for_same_sns(self):
        cluster = make()
        node = cluster.node(0)
        node.pnd_tsk[2] = PendingTask(sns=5, vc=(1, 1, 1, 1))
        node._on_snapshot_query(
            1,
            SnapshotMessage3(
                tasks=(TaskDescriptor(2, 5, (9, 9, 9, 9)),),
                reg=RegisterArray(4),
                ssn=1,
                sns=0,
            ),
        )
        assert node.pnd_tsk[2].vc == (1, 1, 1, 1)


class TestSaveHandler:
    def test_adopts_result_for_newer_sns(self):
        cluster = make()
        node = cluster.node(0)
        result = RegisterArray(4)
        node._on_save(1, SaveMessage(entries=((2, 3, result),)))
        assert node.pnd_tsk[2].sns == 3
        assert node.pnd_tsk[2].fnl is result

    def test_fills_result_for_same_sns(self):
        cluster = make()
        node = cluster.node(0)
        node.pnd_tsk[2] = PendingTask(sns=3)
        result = RegisterArray(4)
        node._on_save(1, SaveMessage(entries=((2, 3, result),)))
        assert node.pnd_tsk[2].fnl is result

    def test_never_overwrites_existing_result_for_same_sns(self):
        cluster = make()
        node = cluster.node(0)
        original = RegisterArray(4)
        node.pnd_tsk[2] = PendingTask(sns=3, fnl=original)
        node._on_save(1, SaveMessage(entries=((2, 3, RegisterArray(4)),)))
        assert node.pnd_tsk[2].fnl is original

    def test_ignores_stale_save(self):
        cluster = make()
        node = cluster.node(0)
        node.pnd_tsk[2] = PendingTask(sns=9)
        node._on_save(1, SaveMessage(entries=((2, 3, RegisterArray(4)),)))
        assert node.pnd_tsk[2].sns == 9
        assert node.pnd_tsk[2].fnl is None


class TestDoForeverCleanup:
    def test_line75_absorbs_indices(self):
        cluster = make()
        node = cluster.node(0)
        node.reg[0] = TimestampedValue(12, "x")
        node.pnd_tsk[0].sns = 7
        cluster.run_until(cluster.settle_cycles(1))
        assert node.ts >= 12
        assert node.sns >= 7

    def test_line76_clears_illogical_vc(self):
        cluster = make()
        node = cluster.node(0)
        node.pnd_tsk[2] = PendingTask(sns=1, vc=(5, 0, 0, 0))
        cluster.run_until(cluster.settle_cycles(1))
        assert node.pnd_tsk[2].vc is None

    def test_line77_reasserts_own_entry(self):
        cluster = make()
        node = cluster.node(0)
        node.sns = 4  # corrupted high relative to pnd_tsk[0]
        cluster.run_until(cluster.settle_cycles(1))
        assert node.pnd_tsk[0].sns == node.sns

    def test_pending_task_copy(self):
        task = PendingTask(sns=2, vc=(1, 2), fnl=None)
        clone = task.copy()
        clone.sns = 9
        assert task.sns == 2

    def test_unbounded_delta_helpers(self):
        cluster = make(delta=UNBOUNDED_DELTA)
        assert cluster.node(0).is_unbounded_delta()
        assert math.isinf(cluster.node(0).delta)


class TestServedSetIdentity:
    def test_superseded_task_leaves_served_set(self):
        """S ∩ Δ matches task identities (node, sns): once a newer
        invocation supersedes the sampled task, it must not be served
        under the old sample — otherwise a view computed for task s
        could be stored as the result of task s+1."""
        cluster = make(delta=0)
        node = cluster.node(0)
        node.pnd_tsk[2] = PendingTask(sns=1)
        sampled = frozenset(
            (k, d.sns) for k, d in node.delta_set().items()
        )
        assert 2 in node._served_now(sampled)
        node.pnd_tsk[2] = PendingTask(sns=2)  # superseded mid-service
        assert 2 not in node._served_now(sampled)

    def test_resolved_task_leaves_served_set(self):
        cluster = make(delta=0)
        node = cluster.node(0)
        node.pnd_tsk[3] = PendingTask(sns=1)
        sampled = frozenset(
            (k, d.sns) for k, d in node.delta_set().items()
        )
        assert 3 in node._served_now(sampled)
        node.pnd_tsk[3].fnl = RegisterArray(4)
        assert 3 not in node._served_now(sampled)
