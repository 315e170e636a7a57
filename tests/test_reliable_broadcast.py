"""Unit tests for the reliable-broadcast substrate."""

from dataclasses import dataclass
from types import SimpleNamespace

from repro.broadcast.reliable import ReliableBroadcast
from repro.config import ChannelConfig, ClusterConfig
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Process
from repro.obs import session
from repro.sim.kernel import Kernel


@dataclass(frozen=True)
class Note(Message):
    KIND = "NOTE"
    text: str = ""


class RbNode(Process):
    def initialize_state(self):
        self.delivered = []

    def attach_rb(self):
        self.rb = ReliableBroadcast(
            self, lambda origin, payload: self.delivered.append((origin, payload))
        )


def make(n=4, **channel_kwargs):
    kernel = Kernel(seed=5)
    config = ClusterConfig(
        n=n, channel=ChannelConfig(**channel_kwargs), retransmit_interval=2.0
    )
    network = Network(kernel, config)
    nodes = [RbNode(i, kernel, network, config) for i in range(n)]
    for node in nodes:
        node.attach_rb()
    return kernel, nodes


class TestReliableBroadcast:
    def test_all_nodes_deliver(self):
        kernel, nodes = make()
        nodes[0].rb.broadcast(Note(text="hello"))
        kernel.run(until_time=20.0)
        for node in nodes:
            assert [(o, p.text) for (o, p) in node.delivered] == [(0, "hello")]

    def test_exactly_once_despite_duplication(self):
        kernel, nodes = make(duplication_probability=0.8)
        nodes[1].rb.broadcast(Note(text="dup"))
        kernel.run(until_time=50.0)
        for node in nodes:
            assert len(node.delivered) == 1

    def test_delivery_through_heavy_loss(self):
        kernel, nodes = make(loss_probability=0.7)
        nodes[0].rb.broadcast(Note(text="lossy"))
        kernel.run(until_time=500.0)
        for node in nodes:
            assert len(node.delivered) == 1

    def test_relay_covers_crashed_origin(self):
        """If any correct node delivered, all correct nodes deliver —
        even when the origin crashes right after its first broadcast."""
        kernel, nodes = make()
        nodes[0].rb.broadcast(Note(text="orphan"))
        # Let the first wave of sends enter the channels, then crash 0.
        kernel.run(max_events=3)
        nodes[0].crash()
        kernel.run(until_time=200.0)
        for node in nodes[1:]:
            assert len(node.delivered) == 1, node

    def test_crashed_receiver_catches_up_on_resume(self):
        kernel, nodes = make()
        nodes[3].crash()
        nodes[0].rb.broadcast(Note(text="late"))
        kernel.run(until_time=30.0)
        assert nodes[3].delivered == []
        nodes[3].resume()
        kernel.run(until_time=300.0)
        assert len(nodes[3].delivered) == 1

    def test_multiple_messages_ordered_ids(self):
        kernel, nodes = make()
        nodes[0].rb.broadcast(Note(text="a"))
        nodes[0].rb.broadcast(Note(text="b"))
        nodes[2].rb.broadcast(Note(text="c"))
        kernel.run(until_time=50.0)
        for node in nodes:
            texts = sorted(p.text for (_, p) in node.delivered)
            assert texts == ["a", "b", "c"]

    def test_retransmission_stops_after_full_ack(self):
        kernel, nodes = make()
        nodes[0].rb.broadcast(Note(text="quiet"))
        kernel.run(until_time=100.0)
        sent_before = network_rb_count(nodes)
        kernel.run(until_time=500.0)
        assert network_rb_count(nodes) == sent_before


class TestThroughTheOutbox:
    """Re-sending is the node's outbox: one timer, counted, no task."""

    def test_lossy_resends_count_as_retransmissions(self):
        kernel, nodes = make(loss_probability=0.5)
        cluster = SimpleNamespace(
            obs=None,
            kernel=kernel,
            config=nodes[0].config,
            network=nodes[0].network,
            processes=nodes,
            algorithm_name="rb",
        )
        with session() as obs:
            cobs = obs.attach(cluster)
            nodes[0].rb.broadcast(Note(text="lossy"))
            kernel.run(until_time=500.0)
        assert all(len(node.delivered) == 1 for node in nodes)
        retransmits = sum(pobs.retransmits for pobs in cobs.process_obs)
        # Each node sends its first copies once, to its n - 1 peers; every
        # later RB left at a counted retransmission instant.
        first_copies = len(nodes) * (len(nodes) - 1)
        assert network_rb_count(nodes) > first_copies
        assert 0 < retransmits <= network_rb_count(nodes) - first_copies

    def test_a_new_entry_is_resent_on_time_under_a_backed_off_one(self):
        """The one timer re-arms for an entry due before the armed time."""
        kernel, nodes = make()
        nodes[3].crash()
        sent = []  # (time, seq) of node 0's RB copies to node 3
        send = nodes[0].send

        def recording_send(dst, message):
            if dst == 3 and message.KIND == "RB":
                sent.append((kernel.now, message.seq))
            send(dst, message)

        nodes[0].send = recording_send
        nodes[0].rb.broadcast(Note(text="old"))
        kernel.run(until_time=31.0)  # seq 1 re-sent at 30, next due at 62
        nodes[0].rb.broadcast(Note(text="new"))
        kernel.run(until_time=40.0)
        assert [t for t, seq in sent if seq == 2] == [31.0, 33.0, 37.0]
        assert [t for t, seq in sent if seq == 1] == [0.0, 2.0, 6.0, 14.0, 30.0]

    def test_fifty_broadcasts_create_no_task(self):
        kernel, nodes = make(loss_probability=0.2)
        created = []
        create_task = kernel.create_task

        def counting_create_task(coro, name=""):
            created.append(name)
            return create_task(coro, name)

        kernel.create_task = counting_create_task
        for i in range(50):
            nodes[i % len(nodes)].rb.broadcast(Note(text=str(i)))
        kernel.run(until_time=500.0)
        assert created == []
        assert all(len(node.delivered) == 50 for node in nodes)
        assert all(not node.outbox.entries for node in nodes)


def network_rb_count(nodes):
    return nodes[0].network.metrics.snapshot().messages("RB")
