"""Fine-grained tests for reliable-broadcast internals."""

from dataclasses import dataclass

from repro.broadcast.reliable import RbAckMessage, RbDataMessage, ReliableBroadcast
from repro.config import ChannelConfig, ClusterConfig
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Process
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


def make(n=3, retransmit_interval=2.0, **channel_kwargs):
    kernel = Kernel(seed=7)
    config = ClusterConfig(
        n=n,
        channel=ChannelConfig(**channel_kwargs),
        retransmit_interval=retransmit_interval,
    )
    network = Network(kernel, config)
    nodes = [RbNode(i, kernel, network, config) for i in range(n)]
    for node in nodes:
        node.attach_rb()
    return kernel, network, nodes


class TestIds:
    def test_origin_sequence_unique_per_sender(self):
        kernel, network, nodes = make()
        nodes[0].rb.broadcast(Note(text="a"))
        nodes[0].rb.broadcast(Note(text="b"))
        ids = set(nodes[0].rb._known)
        assert ids == {(0, 1), (0, 2)}

    def test_same_seq_different_origins_distinct(self):
        kernel, network, nodes = make()
        nodes[0].rb.broadcast(Note(text="from0"))
        nodes[1].rb.broadcast(Note(text="from1"))
        kernel.run(until_time=20.0)
        for node in nodes:
            assert len(node.delivered) == 2


class TestAcking:
    def test_receiver_acks_every_data_message(self):
        kernel, network, nodes = make()
        nodes[2].crash()  # never acks, so node 0 keeps owing (0, 1)
        message = RbDataMessage(origin=0, seq=1, payload=Note(text="x"))
        nodes[1].deliver(0, message)
        nodes[1].deliver(0, message)  # duplicate: re-acked, not re-delivered
        kernel.run(until_time=5.0)
        assert len(nodes[1].delivered) == 1
        # Node 0 got acks and marked node 1.
        assert nodes[0].outbox.entries[("RB", (0, 1))].acked == {1}

    def test_ack_for_unknown_message_ignored(self):
        kernel, network, nodes = make()
        nodes[0].deliver(1, RbAckMessage(origin=9, seq=9))  # no such message

    def test_local_delivery_immediate(self):
        kernel, network, nodes = make()
        nodes[2].rb.broadcast(Note(text="self"))
        assert nodes[2].delivered[0][1].text == "self"


class TestBackoff:
    def test_retransmissions_back_off_for_dead_peer(self):
        """A permanently crashed peer must cost vanishing bandwidth."""
        kernel, network, nodes = make(retransmit_interval=2.0)
        nodes[2].crash()
        nodes[0].rb.broadcast(Note(text="x"))
        kernel.run(until_time=40.0)
        early = network.metrics.snapshot().messages("RB")
        kernel.run(until_time=400.0)
        late = network.metrics.snapshot().messages("RB")
        # 360 further units at interval 2.0 would be ~180 sends per
        # responsible node without backoff; with x2-up-to-x16 backoff the
        # tail adds only a handful per node.
        assert late - early < 60

    def test_resends_to_a_crashed_peer_double_up_to_the_cap(self):
        """Gaps of 2, 4, 8, 16 and then 32 = 16 × the 2.0 interval."""
        kernel, network, nodes = make(retransmit_interval=2.0)
        nodes[2].crash()
        sent = []
        send = nodes[0].send

        def recording_send(dst, message):
            if dst == 2 and message.KIND == "RB":
                sent.append(kernel.now)
            send(dst, message)

        nodes[0].send = recording_send
        nodes[0].rb.broadcast(Note(text="x"))
        kernel.run(until_time=130.0)
        gaps = [later - earlier for earlier, later in zip(sent, sent[1:])]
        assert sent[0] == 0.0
        assert gaps == [2.0, 4.0, 8.0, 16.0, 32.0, 32.0, 32.0]

    def test_a_crashed_senders_own_silence_does_not_back_off(self):
        """Instants that fall due while the sender is crashed send nothing,
        leave the interval as it was (16 after the re-send at 6) and
        retry one base interval (2) later, so the first re-send after the
        resume is at most one base interval away."""
        kernel, network, nodes = make(n=4, retransmit_interval=2.0)
        nodes[3].crash()
        sent = []
        send = nodes[0].send

        def recording_send(dst, message):
            if dst == 3 and message.KIND == "RB":
                sent.append(kernel.now)
            send(dst, message)

        nodes[0].send = recording_send
        nodes[0].rb.broadcast(Note(text="x"))
        kernel.run(until_time=7.0)
        nodes[0].crash()
        kernel.run(until_time=41.0)  # due at 14, 16, …, 40: all skipped
        nodes[0].resume()
        kernel.run(until_time=63.0)
        assert sent == [0.0, 2.0, 6.0, 42.0, 58.0]

    def test_crashed_relayer_pauses_retransmission(self):
        kernel, network, nodes = make()
        nodes[0].rb.broadcast(Note(text="x"))
        kernel.run(until_time=5.0)
        nodes[0].crash()
        sent = network.metrics.snapshot().messages("RB")
        kernel.run(until_time=30.0)
        # Node 0 sends nothing while crashed; relayers may still talk,
        # but everyone has acked by now, so traffic is flat.
        assert network.metrics.snapshot().messages("RB") <= sent + 4
