"""Unit tests for the quorum service and the cycle tracker."""

import asyncio
from dataclasses import dataclass

import pytest

from repro.analysis.cycles import CycleTracker
from repro.config import ChannelConfig, ClusterConfig
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Process
from repro.net.quorum import AckCollector, Watches, broadcast_until
from repro.runtime.asyncio_kernel import AsyncioKernel
from repro.sim.kernel import Kernel


@dataclass(frozen=True)
class Req(Message):
    KIND = "REQ"
    round: int = 0


@dataclass(frozen=True)
class Ack(Message):
    KIND = "ACK"
    round: int = 0


class Responder(Process):
    """Acks every REQ with the same round number."""

    def initialize_state(self):
        if "REQ" not in self._handlers:
            self.register_handler(
                Req.KIND, lambda s, m: self.send(s, Ack(round=m.round))
            )


def make_cluster(n=5, **channel_kwargs):
    kernel = Kernel(seed=9)
    config = ClusterConfig(
        n=n, channel=ChannelConfig(**channel_kwargs), retransmit_interval=3.0
    )
    network = Network(kernel, config)
    processes = [Responder(i, kernel, network, config) for i in range(n)]
    return kernel, config, network, processes


class TestAckCollector:
    def test_threshold_validation(self):
        kernel, config, network, processes = make_cluster()
        with pytest.raises(ValueError):
            AckCollector(processes[0], "ACK", 0)

    def test_collects_distinct_senders(self):
        kernel, config, network, processes = make_cluster()
        collector = AckCollector(processes[0], "ACK", 3)
        collector.offer(1, Ack(round=1))
        collector.offer(1, Ack(round=1))  # duplicate sender
        collector.offer(2, Ack(round=1))
        assert not collector.satisfied
        collector.offer(3, Ack(round=1))
        assert collector.satisfied
        assert set(collector.replies) == {1, 2, 3}

    def test_match_predicate_filters(self):
        kernel, config, network, processes = make_cluster()
        collector = AckCollector(
            processes[0], "ACK", 2, match=lambda s, m: m.round == 5
        )
        assert not collector.offer(1, Ack(round=4))
        assert collector.offer(1, Ack(round=5))
        assert collector.offer(2, Ack(round=5))
        assert collector.satisfied

    def test_broadcast_until_majority_on_reliable_channels(self):
        kernel, config, network, processes = make_cluster()
        node = processes[0]

        async def run():
            with AckCollector(node, "ACK", config.majority) as collector:
                await broadcast_until(node, lambda: Req(round=1), collector)
                return len(collector.replies)

        count = kernel.run_until_complete(run())
        assert count >= config.majority

    def test_broadcast_until_retransmits_through_loss(self):
        kernel, config, network, processes = make_cluster(loss_probability=0.9)
        node = processes[0]

        async def run():
            with AckCollector(node, "ACK", config.majority) as collector:
                await broadcast_until(node, lambda: Req(round=2), collector)
            return True

        assert kernel.run_until_complete(run(), max_events=500_000)
        # Loss forced at least one retransmission round.
        assert network.metrics.snapshot().messages("REQ") > config.n - 1

    def test_broadcast_until_survives_minority_crash(self):
        kernel, config, network, processes = make_cluster()
        processes[3].crash()
        processes[4].crash()
        node = processes[0]

        async def run():
            with AckCollector(node, "ACK", config.majority) as collector:
                await broadcast_until(node, lambda: Req(round=3), collector)
                return set(collector.replies)

        responders = kernel.run_until_complete(run())
        assert responders <= {0, 1, 2}
        assert len(responders) == 3

    def test_collector_detaches_on_exit(self):
        kernel, config, network, processes = make_cluster()
        node = processes[0]
        collector = AckCollector(node, "ACK", 1)
        with collector:
            pass
        node.deliver(1, Ack(round=0))
        assert not collector.satisfied


def spy_requests(process):
    """The times ``process`` sends a REQ, one entry per copy."""
    sent = []
    send = process.send

    def recording_send(dst, message):
        if message.KIND == "REQ":
            sent.append(process.kernel.now)
        send(dst, message)

    process.send = recording_send
    return sent


class TestBroadcastUntilWake:
    """A watched round ends once ``wanted`` is false at a notify."""

    def start_round(self, kernel, config, node, watches, wanted):
        """A round no peer can answer (all crashed), run as a task."""
        collector = AckCollector(node, "ACK", config.majority)

        async def run():
            with collector:
                await broadcast_until(
                    node,
                    lambda: Req(round=7),
                    collector,
                    watches=watches,
                    wanted=lambda: wanted[0],
                )
            return kernel.now

        return collector, kernel.create_task(run())

    def test_a_wake_that_makes_the_round_unwanted_ends_it_without_a_resend(self):
        kernel, config, network, processes = make_cluster()
        for peer in processes[1:]:
            peer.crash()
        node = processes[0]
        sent = spy_requests(node)
        watches, wanted = Watches(kernel), [True]

        def unwant():
            wanted[0] = False
            watches.notify()

        kernel.call_later(1.0, unwant)
        collector, task = self.start_round(kernel, config, node, watches, wanted)
        kernel.run(until_time=10.0)
        assert task.done() and task.result() == 1.0
        assert sent == [0.0] * config.n  # the first broadcast only
        assert not collector.done

    def test_a_wake_that_changes_nothing_resends_nothing_early(self):
        kernel, config, network, processes = make_cluster()
        for peer in processes[1:]:
            peer.crash()
        node = processes[0]
        sent = spy_requests(node)
        watches, wanted = Watches(kernel), [True]
        kernel.call_later(1.0, watches.notify)
        kernel.call_later(2.0, watches.notify)
        collector, task = self.start_round(kernel, config, node, watches, wanted)
        kernel.run(until_time=config.retransmit_interval - 0.01)
        assert sent == [0.0] * config.n and not task.done()
        kernel.run(until_time=config.retransmit_interval + 0.01)
        assert sent == [0.0] * config.n + [config.retransmit_interval] * config.n
        wanted[0] = False
        watches.notify()
        kernel.run(until_time=10.0)
        assert task.done() and not collector.done

    def test_a_notify_whose_watches_stay_false_schedules_nothing(self):
        kernel, config, network, processes = make_cluster()
        for peer in processes[1:]:
            peer.crash()
        watches, wanted = Watches(kernel), [True]
        collector, task = self.start_round(
            kernel, config, processes[0], watches, wanted
        )
        kernel.run(until_time=1.0)
        held = kernel.create_future()
        watches.watch(lambda: False, held)
        heap, processed = len(kernel._heap), kernel.events_processed
        for _ in range(3):
            watches.notify()
        assert len(kernel._heap) == heap
        assert kernel.events_processed == processed
        assert not held.done() and not task.done()

    def test_a_watched_round_ends_promptly_on_asyncio(self):
        async def main():
            kernel = AsyncioKernel(seed=9, time_scale=0.001)
            config = ClusterConfig(n=5, retransmit_interval=1000.0)
            network = Network(kernel, config)
            processes = [Responder(i, kernel, network, config) for i in range(5)]
            for peer in processes[1:]:
                peer.crash()
            watches, wanted = Watches(kernel), [True]
            collector, task = self.start_round(
                kernel, config, processes[0], watches, wanted
            )
            await kernel.sleep(5.0)
            started = kernel.now
            wanted[0] = False
            watches.notify()
            ended = await asyncio.wait_for(task, timeout=5.0)
            return ended - started, collector.done

        # The retransmission interval is a whole second of wall clock:
        # the round ended on the watch, not on its timer.
        elapsed, collected = asyncio.run(main())
        assert elapsed < 500.0 and not collected


class LoopingProcess(Process):
    """Process whose do-forever iteration just counts."""

    def initialize_state(self):
        self.loops = 0

    async def do_forever_iteration(self):
        self.loops += 1


class TestCycleTracker:
    def make(self, n=3):
        kernel = Kernel(seed=1)
        config = ClusterConfig(n=n, gossip_interval=1.0)
        network = Network(kernel, config)
        processes = [LoopingProcess(i, kernel, network, config) for i in range(n)]
        tracker = CycleTracker(kernel, processes)
        for process in processes:
            process.start()
        return kernel, processes, tracker

    def test_cycle_needs_every_node(self):
        kernel, processes, tracker = self.make()
        kernel.run_until_complete(tracker.wait_cycles(3))
        assert tracker.cycles_elapsed >= 3
        assert all(p.loops >= 3 for p in processes)

    def test_crashed_nodes_do_not_block_cycles(self):
        kernel, processes, tracker = self.make()
        processes[2].crash()
        kernel.run_until_complete(tracker.wait_cycles(2))
        assert tracker.cycles_elapsed >= 2
        assert processes[2].loops == 0

    def test_reset(self):
        kernel, processes, tracker = self.make()
        kernel.run_until_complete(tracker.wait_cycles(2))
        tracker.reset()
        assert tracker.cycles_elapsed == 0
        kernel.run_until_complete(tracker.wait_cycles(1))
        assert tracker.cycles_elapsed >= 1

    def test_boundary_listener(self):
        kernel, processes, tracker = self.make()
        boundaries = []
        tracker.add_boundary_listener(boundaries.append)
        kernel.run_until_complete(tracker.wait_cycles(2))
        assert boundaries[:2] == [1, 2]

    def test_stop_halts_loop(self):
        kernel, processes, tracker = self.make()
        kernel.run_until_complete(tracker.wait_cycles(1))
        loops_before = processes[0].loops
        processes[0].stop()
        kernel.run(until_time=kernel.now + 10.0)
        assert processes[0].loops == loops_before
