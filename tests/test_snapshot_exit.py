"""The one verdict of a snapshot query round: the equivalence quorum.

Every snapshot engine — Algorithm 1's loop (``DgfrNonBlocking.snapshot``,
which the self-stabilizing and bounded non-blocking variants and
``amortized``'s scan round inherit), Algorithm 3's ``base_snapshot`` and
Algorithm 2's ``base_snapshot`` — returns the view its round broadcast
when at least a majority of the round's replies named exactly that view.
These tests pin the two ways it differs from the paper's ``prev = reg``:
a write the querier's own server merges mid-round, which no reply
reported, does not cost a round; and replies short of a majority, which
end Algorithm 3's round when task results arrive first, are no quorum.

The round's collector (``SnapshotAlgorithm.query_collector``) reads
replies past the first majority until they decide the verdict, so one
late reply that names exactly the view rescues a round whose first
majority held a newer entry, and a majority left undecided (a peer
crashed) ends the round at the retransmission instant.
"""

import math

import pytest

from repro import ClusterConfig, SimBackend
from repro.analysis.linearizability import check_snapshot_history
from repro.config import ChannelConfig
from repro.core.base import WriteMessage
from repro.core.register import TimestampedValue
from repro.obs.observe import session

ENGINES = ["dgfr-nonblocking", "ss-always", "dgfr-always"]


#: The engines whose round reads past its first majority: Algorithm 1's
#: loop, Algorithm 3's round, and ``amortized``'s shared scan round.
DECIDED_ENGINES = ["ss-nonblocking", "ss-always", "amortized"]


def cluster_for(algorithm, n=3):
    """A fixed 1 u delay; ``ss-always`` at δ=∞ serves its own task."""
    delta = math.inf if algorithm == "ss-always" else 0
    return SimBackend(
        algorithm,
        ClusterConfig(
            n=n,
            seed=0,
            delta=delta,
            channel=ChannelConfig(min_delay=1.0, max_delay=1.0),
        ),
    )


@pytest.mark.parametrize("algorithm", ENGINES)
def test_a_write_merged_mid_round_that_no_reply_reported_costs_no_round(
    algorithm,
):
    cluster = cluster_for(algorithm)
    node = cluster.node(0)
    injected = []

    def merge_a_peer_write(sender, message):
        # When the first SNAPSHOTack reaches node 0, every server has
        # already answered the round's first broadcast with the view
        # node 0 sent; only node 0's own server now merges p2's WRITE.
        if not injected:
            ahead = node.reg.copy()
            ahead[2] = TimestampedValue(1, "w")
            node._on_write(2, WriteMessage(reg=ahead))
            injected.append(cluster.kernel.now)

    node.register_handler("SNAPSHOTack", merge_a_peer_write)

    async def scenario():
        before = node.ssn
        result = await cluster.snapshot(0)
        return node.ssn - before, result

    rounds, result = cluster.run_until(scenario())
    assert injected
    assert node.reg[2].ts == 1  # the write did reach node 0's reg
    assert rounds == 1  # ``prev = reg`` would have run a second round
    assert result.vector_clock == (0, 0, 0)


def test_replies_short_of_a_majority_are_no_quorum():
    """Fewer than a majority of matching replies are no quorum.

    ``all`` over too few replies that name exactly the view is vacuously
    true, so the helper counts them (Algorithm 3's round ends short of a
    majority when task results empty its served set).
    """
    cluster = cluster_for("ss-always")
    cluster.run_until(cluster.settle_cycles(1))
    node = cluster.node(0)
    view = node.reg.copy()
    clock = view.vector_clock()
    assert not node.equivalence_quorum(view, [clock] * (node.majority - 1))
    assert node.equivalence_quorum(view, [clock] * node.majority)
    ahead = (1,) + clock[1:]
    assert not node.equivalence_quorum(
        view, [clock] * (node.majority - 1) + [ahead]
    )


def test_a_majority_of_matching_replies_is_a_quorum_whatever_the_rest():
    """The verdict counts: ``majority`` of n replies naming the view is a
    quorum however the others differ, and ``majority − 1`` is not."""
    cluster = cluster_for("ss-nonblocking", n=4)
    node = cluster.node(0)
    view = node.reg.copy()
    clock = view.vector_clock()
    ahead = (1,) + clock[1:]
    n, majority = node.config.n, node.majority
    assert node.equivalence_quorum(
        view, [clock] * majority + [ahead] * (n - majority)
    )
    assert not node.equivalence_quorum(
        view, [clock] * (majority - 1) + [ahead] * (n - majority + 1)
    )


def unannounced_entry(cluster, k):
    """Give ``p_k``'s server an own entry no other node holds yet."""
    peer = cluster.node(k)
    peer.ts += 1
    peer.reg[k] = TimestampedValue(peer.ts, "unannounced")


def snapshot_rounds(obs):
    """The snapshot-query rounds recorded inside the one snapshot span."""
    (span,) = obs.recorder.by_name("snapshot")
    return [r for r in span.rounds if r.kind == "SNAPSHOTack"]


@pytest.mark.parametrize("algorithm", DECIDED_ENGINES)
def test_a_late_reply_naming_the_view_rescues_the_round(algorithm):
    """n=4: the first majority holds one reply naming a newer entry, the
    fourth names exactly ``prev``; the round returns ``prev`` in one round,
    and its record names the fourth reply as the one that decided it."""
    with session() as obs:
        cluster = cluster_for(algorithm, n=4)
        node = cluster.node(0)
        unannounced_entry(cluster, 1)
        # p3's reply lands after p0's, p1's and p2's, before the
        # retransmission instant (1.5 u each way, interval 4 u).
        cluster.network.throttle(3, 1.5)
        before = node.ssn
        result = cluster.snapshot_sync(0)
    assert node.ssn - before == 1
    assert result.vector_clock == (0, 0, 0, 0)
    (round_,) = snapshot_rounds(obs)
    assert round_.completer == 3
    assert sorted(round_.replies) == [0, 1, 2, 3]


@pytest.mark.parametrize("algorithm", DECIDED_ENGINES)
def test_an_undecided_majority_ends_at_the_retransmission_instant(algorithm):
    """p3 is crashed and p1's reply differs: no reply can decide the round,
    so it ends at the retransmission instant without re-sending, and the
    next round, with a fresh view, returns p1's entry."""
    with session() as obs:
        cluster = cluster_for(algorithm, n=4)
        node = cluster.node(0)
        cluster.crash(3)
        unannounced_entry(cluster, 1)
        sent = []
        send = node.send

        def recording_send(dst, message):
            if message.KIND == "SNAPSHOT":
                sent.append((message.ssn, dst))
            send(dst, message)

        node.send = recording_send
        result = cluster.snapshot_sync(0)
    first, second = snapshot_rounds(obs)
    assert first.completer is None
    assert first.end - first.start == node.config.retransmit_interval
    assert second.completer is not None
    assert result.vector_clock == (0, 1, 0, 0)
    # One broadcast per round: the undecided round did not re-send.
    assert sorted(sent) == sorted(
        (ssn, dst) for ssn in sorted({ssn for ssn, _ in sent}) for dst in range(4)
    )
    assert len({ssn for ssn, _ in sent}) == 2


@pytest.mark.parametrize("writes", [0, 6])
@pytest.mark.parametrize("algorithm", DECIDED_ENGINES)
def test_a_snapshot_with_a_peer_crashed_completes_once_the_writers_stop(
    algorithm, writes
):
    """p3 is crashed and p1's reply differs, with or without a writer
    running beside the snapshot: every round ends (decided, or at the
    retransmission instant), so the snapshot completes once the writes
    stop.  A round that waited for a decision alone would re-send for
    ever, its replies unchanged, waiting for p3."""
    cluster = cluster_for(algorithm, n=4)
    cluster.crash(3)
    unannounced_entry(cluster, 1)

    async def writer():
        for i in range(writes):
            await cluster.write(2, f"w{i}")

    async def scenario():
        done = cluster.spawn(writer())
        result = await cluster.snapshot(0)
        await done
        return result

    result = cluster.run_until(scenario(), max_events=200_000)
    assert result.vector_clock[3] == 0
    assert check_snapshot_history(cluster.history.records(), 4).ok
