"""Tests for the self-stabilizing consensus layer and its two callers.

Covers the :class:`~repro.consensus.ConsensusEndpoint` contract
(agreement, validity, adoption, straggler catch-up, bounded state,
healing under state corruption), the shard-epoch decider built on it,
and the Step-2 reset the layer exists for: with node 0 — the paper
sketch's fixed coordinator — crashed mid-reset, the reset completes.
"""

import pytest

from repro.analysis.invariants import definition1_consistent
from repro.config import ClusterConfig, scenario_config
from repro.backend.sim import SimBackend
from repro.consensus import ConsensusEndpoint, valid_tag
from repro.errors import (
    ConfigurationError,
    EpochEvictedError,
    ResetInProgressError,
)
from repro.fault import TransientFaultInjector
from repro.shard.epoch import DECIDED_EPOCH_WINDOW, ConsensusEpochDecider
from repro.shard.ring import ShardMap


def make_cluster(n=4, seed=0, **kwargs):
    cluster = SimBackend(
        "ss-nonblocking", scenario_config(n=n, seed=seed, **kwargs)
    )
    endpoints = [ConsensusEndpoint.ensure(p) for p in cluster.processes]
    return cluster, endpoints


def make_bounded(n=5, seed=0, max_int=8, **kwargs):
    return SimBackend(
        "bounded-ss-nonblocking",
        scenario_config(n=n, seed=seed, max_int=max_int, **kwargs),
    )


class TestConsensusEndpoint:
    def test_valid_tag(self):
        assert valid_tag(("reset", 0))
        assert valid_tag(("shard-epoch", 12))
        assert not valid_tag(("reset",))
        assert not valid_tag(("reset", -1))
        assert not valid_tag(("reset", True))
        assert not valid_tag((7, 0))
        assert not valid_tag("reset")

    def test_single_proposer_all_decide(self):
        cluster, endpoints = make_cluster()

        async def scenario():
            decided = await endpoints[0].propose(("t", 0), "hello")
            # The proposer deciding does not mean the laggards have
            # drained their queues yet — give them a few units.
            while any(e.result(("t", 0)) is None for e in endpoints):
                await cluster.kernel.sleep(1.0)
            return decided

        decided = cluster.run_until(scenario(), max_events=None)
        assert decided == "hello"
        # Passive nodes adopted and decided the same value.
        assert all(e.result(("t", 0)) == "hello" for e in endpoints)

    def test_contended_proposers_agree(self):
        cluster, endpoints = make_cluster(n=5, seed=2)
        values = [f"v{node}" for node in range(5)]

        async def scenario():
            tasks = [
                cluster.spawn(endpoints[node].propose(("t", 1), values[node]))
                for node in range(5)
            ]
            return await cluster.kernel.gather(tasks)

        decisions = cluster.run_until(scenario(), max_events=None)
        assert len(set(decisions)) == 1
        assert decisions[0] in values

    def test_straggler_catches_up_after_partition(self):
        cluster, endpoints = make_cluster(n=4, seed=3)
        cluster.network.partition({3}, {0, 1, 2})

        async def majority():
            return await endpoints[0].propose(("t", 2), "majority-pick")

        decided = cluster.run_until(majority(), max_events=None)
        assert decided == "majority-pick"
        cluster.network.heal()

        async def straggler():
            return await endpoints[3].propose(("t", 2), "late-proposal")

        late = cluster.run_until(straggler(), max_events=None)
        # Agreement beats the late node's own proposal.
        assert late == "majority-pick"

    def test_corrupt_state_heals_and_still_agrees(self):
        cluster, endpoints = make_cluster(n=5, seed=4)
        injector = TransientFaultInjector(cluster, seed=4)
        values = [f"c{node}" for node in range(5)]

        async def scenario():
            tasks = [
                cluster.spawn(endpoints[node].propose(("t", 3), values[node]))
                for node in range(5)
            ]
            # Let the binary rounds open, then scramble every node's
            # consensus state mid-decision.
            await cluster.kernel.sleep(2.0)
            injector.corrupt_consensus()
            return await cluster.kernel.gather(tasks)

        decisions = cluster.run_until(scenario(), max_events=None)
        assert len(set(decisions)) == 1

    def test_decided_window_and_instance_gc_are_bounded(self):
        cluster, endpoints = make_cluster(n=3, seed=5)
        rounds = ConsensusEndpoint.DECIDED_WINDOW + 4

        async def scenario():
            for index in range(rounds):
                await endpoints[0].propose(("t", index), f"r{index}")

        cluster.run_until(scenario(), max_events=None)
        for endpoint in endpoints:
            assert len(endpoint._decided) <= ConsensusEndpoint.DECIDED_WINDOW
            assert len(endpoint._instances) <= ConsensusEndpoint.MAX_INSTANCES

    def test_validator_purges_invalid_proposals(self):
        cluster, endpoints = make_cluster(n=3, seed=6)

        async def scenario():
            # Node 0 proposes an even number; the validator requires it.
            return await endpoints[0].propose(
                ("t", 90), 42, validator=lambda v: isinstance(v, int)
            )

        assert cluster.run_until(scenario(), max_events=None) == 42

    def test_consensus_metrics_reach_the_registry(self):
        from repro.obs.observe import Observability

        obs = Observability(trace_messages=False)
        cluster = SimBackend("ss-nonblocking", scenario_config(n=3, seed=7))
        cobs = obs.attach(cluster)
        endpoints = [ConsensusEndpoint.ensure(p) for p in cluster.processes]

        async def scenario():
            decided = await endpoints[0].propose(("t", 0), "m")
            while any(e.result(("t", 0)) is None for e in endpoints):
                await cluster.kernel.sleep(1.0)
            return decided

        cluster.run_until(scenario(), max_events=None)
        metrics = cobs.session.collect()
        assert metrics["consensus.decides"] >= 3
        assert metrics["consensus.rounds"] >= 1


class TestEpochDeciders:
    def test_consensus_decider_rejects_epoch_gaps(self):
        cluster = SimBackend("ss-nonblocking", scenario_config(n=3, seed=9))
        decider = ConsensusEpochDecider(cluster)
        current = ShardMap(epoch=0, shard_ids=(0,), vnodes=8)
        gap = ShardMap(epoch=2, shard_ids=(0, 1), vnodes=8)
        with pytest.raises(ConfigurationError):
            cluster.run_until(decider.propose(gap, current), max_events=None)

    def test_consensus_decider_proposes_through_a_live_node(self):
        """No fixed proposer: with node 0 crashed, a split still decides."""
        cluster = SimBackend("ss-nonblocking", scenario_config(n=4, seed=8))
        decider = ConsensusEpochDecider(cluster)
        current = ShardMap(epoch=0, shard_ids=(0,), vnodes=8)
        proposal = ShardMap(epoch=1, shard_ids=(0, 1), vnodes=8)
        cluster.crash(0)

        async def scenario():
            return await cluster.kernel.wait_for(
                decider.propose(proposal, current), timeout=50.0
            )

        assert cluster.run_until(scenario(), max_events=None) == proposal
        assert decider.decided(1) == proposal

    def test_consensus_decider_two_routers_agree(self):
        cluster = SimBackend("ss-nonblocking", scenario_config(n=4, seed=8))
        first = ConsensusEpochDecider(cluster)
        second = ConsensusEpochDecider(cluster)
        current = ShardMap(epoch=0, shard_ids=(0, 1), vnodes=8)
        p1 = ShardMap(epoch=1, shard_ids=(0, 1, 2), vnodes=8)
        p2 = ShardMap(epoch=1, shard_ids=(0, 1, 7), vnodes=8)

        async def scenario():
            tasks = [
                cluster.spawn(first.propose(p1, current)),
                cluster.spawn(second.propose(p2, current)),
            ]
            return await cluster.kernel.gather(tasks)

        d1, d2 = cluster.run_until(scenario(), max_events=None)
        assert d1 == d2
        assert d1 in (p1, p2)
        assert first.decided(1) == second.decided(1) == d1

    def test_consensus_decider_window_default(self):
        assert DECIDED_EPOCH_WINDOW >= 1
        cluster = SimBackend("ss-nonblocking", scenario_config(n=3, seed=9))
        decider = ConsensusEpochDecider(cluster, window=2)
        current = ShardMap(epoch=0, shard_ids=(0,), vnodes=8)

        async def scenario():
            nonlocal current
            for epoch in range(1, 5):
                proposal = ShardMap(
                    epoch=epoch, shard_ids=tuple(range(epoch + 1)), vnodes=8
                )
                current = await decider.propose(proposal, current)

        cluster.run_until(scenario(), max_events=None)
        assert decider.decided(4).epoch == 4
        with pytest.raises(EpochEvictedError):
            decider.decided(1)


def drive_reset_with_node0_crashed(cluster, max_int):
    """Crash node 0, overflow node 1, wait for the reset to settle.

    Returns ``(settled_cycles, post_write_ok)`` where ``settled_cycles``
    is ``None`` when the reset never completed within the cycle budget.
    """
    alive = [node for node in range(cluster.config.n) if node != 0]

    def settled():
        procs = [cluster.node(node) for node in alive]
        return not any(p.resetting for p in procs) and all(
            p.epoch >= 1 for p in procs
        )

    async def drive():
        cluster.crash(0)
        for index in range(max_int + 1):
            try:
                await cluster.write(1, (0, index))
            except ResetInProgressError:
                break
        cluster.tracker.reset()
        cycles = None
        for _ in range(16):
            if settled():
                cycles = cluster.tracker.cycles_elapsed
                break
            await cluster.tracker.wait_cycles(1)
        write_ok = False
        try:
            await cluster.kernel.wait_for(
                cluster.write(1, b"post"), timeout=50.0
            )
            write_ok = True
        except (TimeoutError, ResetInProgressError):
            pass
        return cycles, write_ok

    return cluster.run_until(drive(), max_events=None)


class TestConsensusBackedReset:
    def test_consensus_reset_completes_without_coordinator(self):
        cluster = make_bounded(seed=10)
        cycles, write_ok = drive_reset_with_node0_crashed(cluster, 8)
        assert cycles is not None
        assert write_ok
        epochs = {cluster.node(node).epoch for node in range(1, 5)}
        assert epochs == {1}

    def test_consensus_reset_survives_consensus_corruption(self):
        cluster = make_bounded(seed=11)
        injector = TransientFaultInjector(cluster, seed=11)

        async def drive():
            cluster.crash(0)
            for index in range(9):
                try:
                    await cluster.write(1, (0, index))
                except ResetInProgressError:
                    break
            # The reset window is open: scramble the very consensus
            # instances deciding the commit.
            await cluster.tracker.wait_cycles(1)
            injector.corrupt_consensus()
            cluster.tracker.reset()
            for _ in range(16):
                procs = [cluster.node(node) for node in range(1, 5)]
                if not any(p.resetting for p in procs) and all(
                    p.epoch >= 1 for p in procs
                ):
                    break
                await cluster.tracker.wait_cycles(1)
            await cluster.kernel.wait_for(
                cluster.write(1, b"post"), timeout=50.0
            )

        cluster.run_until(drive(), max_events=None)
        epochs = {cluster.node(node).epoch for node in range(1, 5)}
        assert len(epochs) == 1 and epochs.pop() >= 1

    def test_consensus_reset_no_crash_keeps_definition1(self):
        cluster = make_bounded(n=4, seed=12)

        async def drive():
            for index in range(30):
                try:
                    await cluster.write(index % 4, (index,))
                except ResetInProgressError:
                    await cluster.tracker.wait_cycles(3)
            await cluster.tracker.wait_cycles(4)
            return await cluster.snapshot(0)

        final = cluster.run_until(drive(), max_events=None)
        assert all(value is not None for value in final.values)
        assert definition1_consistent(cluster).ok
        epochs = {p.epoch for p in cluster.processes}
        assert len(epochs) == 1 and epochs.pop() >= 1

    def test_restarted_node_rejoins_after_reset(self):
        """Regression: a restart that sleeps through a reset must not wedge.

        The restarted node wakes in epoch 0 while the cluster is at
        epoch 1; without the envelope-skew catch-up each side drops the
        other's traffic forever and the node's operations never reach a
        quorum (found by fuzz, bounded-ss-nonblocking seed 42).
        """
        cluster = make_bounded(n=3, seed=13)

        async def drive():
            for index in range(9):
                try:
                    await cluster.write(1, (0, index))
                except ResetInProgressError:
                    break
            cluster.tracker.reset()
            for _ in range(16):
                procs = cluster.processes
                if not any(p.resetting for p in procs) and all(
                    p.epoch >= 1 for p in procs
                ):
                    break
                await cluster.tracker.wait_cycles(1)
            cluster.crash(0)
            cluster.resume(0, restart=True)
            assert cluster.node(0).epoch == 0  # slept through the reset

            async def snapshot_with_retry():
                # Catching up bumps node 0's epoch mid-operation, which
                # aborts the in-flight snapshot by design; retry like a
                # real caller would.
                while True:
                    try:
                        return await cluster.snapshot(0)
                    except ResetInProgressError:
                        await cluster.kernel.sleep(1.0)

            return await cluster.kernel.wait_for(
                snapshot_with_retry(), timeout=100.0
            )

        result = cluster.run_until(drive(), max_events=None)
        assert result is not None
        epochs = {p.epoch for p in cluster.processes}
        assert len(epochs) == 1 and epochs.pop() >= 1

    def test_consensus_survives_loss_and_round_skew(self):
        """Regression: binary rounds are not lockstep under loss.

        With 10% loss a node can get stranded one round behind while
        the majority moves on and only retransmits its current votes;
        the vote-history catch-up reply must walk the laggard forward
        (found by fuzz, bounded-ss-nonblocking seed 47).
        """
        cluster = SimBackend(
            "ss-nonblocking",
            scenario_config(n=4, seed=47, loss=0.1, duplication=0.05),
        )
        endpoints = [ConsensusEndpoint.ensure(p) for p in cluster.processes]
        values = [f"v{node}" for node in range(4)]

        async def scenario():
            tasks = [
                cluster.spawn(
                    endpoints[node].propose(("lossy", 0), values[node])
                )
                for node in range(4)
            ]
            return await cluster.kernel.gather(tasks)

        decisions = cluster.run_until(scenario(), max_events=None)
        assert len(set(decisions)) == 1
        assert decisions[0] in values


@pytest.mark.runtime
class TestConsensusOnAsyncio:
    def test_agreement_on_live_event_loop(self):
        import asyncio

        from repro.backend.aio import AsyncioBackend

        async def main():
            cluster = AsyncioBackend(
                "ss-nonblocking",
                ClusterConfig(n=4, seed=13),
                time_scale=0.002,
            )
            cluster.start()
            try:
                endpoints = [
                    ConsensusEndpoint.ensure(p) for p in cluster.processes
                ]
                tasks = [
                    endpoints[node].propose(("t", 0), f"live-{node}")
                    for node in range(4)
                ]
                decisions = await asyncio.wait_for(
                    asyncio.gather(*tasks), timeout=20
                )
                assert len(set(decisions)) == 1
                assert decisions[0] in {f"live-{node}" for node in range(4)}
            finally:
                cluster.stop()

        asyncio.run(main())

    def test_consensus_reset_completes_on_live_event_loop(self):
        import asyncio

        from repro.backend.aio import AsyncioBackend

        async def main():
            cluster = AsyncioBackend(
                "bounded-ss-nonblocking",
                ClusterConfig(n=4, seed=14, max_int=6),
                time_scale=0.002,
            )
            cluster.start()
            try:
                cluster.crash(0)
                for index in range(7):
                    try:
                        await asyncio.wait_for(
                            cluster.write(1, (0, index)), timeout=10
                        )
                    except ResetInProgressError:
                        break
                deadline = asyncio.get_running_loop().time() + 20
                while asyncio.get_running_loop().time() < deadline:
                    procs = [cluster.node(node) for node in range(1, 4)]
                    if not any(p.resetting for p in procs) and all(
                        p.epoch >= 1 for p in procs
                    ):
                        break
                    await asyncio.sleep(0.05)
                epochs = {cluster.node(node).epoch for node in range(1, 4)}
                assert epochs == {1}
                await asyncio.wait_for(cluster.write(1, b"post"), timeout=10)
            finally:
                cluster.stop()

        asyncio.run(main())
