"""The one exit test of a snapshot query round: the equivalence quorum.

Every snapshot engine — Algorithm 1's loop (``DgfrNonBlocking.snapshot``,
which the self-stabilizing and bounded non-blocking variants inherit),
Algorithm 3's ``base_snapshot`` and Algorithm 2's ``base_snapshot`` —
ends a round when a majority of its replies named exactly the view the
round broadcast, and returns that view.  These tests pin the two ways it
differs from the paper's ``prev = reg``: a write the querier's own server
merges mid-round, which no reply reported, does not cost a round; and
replies short of a majority, which end Algorithm 3's round when task
results arrive first, are no quorum.
"""

import math

import pytest

from repro import ClusterConfig, SimBackend
from repro.config import ChannelConfig
from repro.core.base import WriteMessage
from repro.core.register import TimestampedValue

ENGINES = ["dgfr-nonblocking", "ss-always", "dgfr-always"]


def cluster_for(algorithm):
    """n=3 with a fixed 1 u delay; ``ss-always`` at δ=∞ serves its own task."""
    delta = math.inf if algorithm == "ss-always" else 0
    return SimBackend(
        algorithm,
        ClusterConfig(
            n=3,
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
