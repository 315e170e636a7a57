"""Building blocks on top of the snapshot object: counter + barrier.

The paper's opening motivation: snapshot objects make algorithms built
on shared registers easy to design *and analyze*.  This example composes
two classic constructions from ``repro.apps``:

* a **linearizable distributed counter** — increments are writes to the
  caller's own register; reads are snapshots summed over the entries, so
  a read never misses a completed increment and reads are totally
  ordered;
* a **phase barrier** — workers process items in supersteps; the barrier
  opens only when an atomic cut shows every worker done with the phase.

Each application gets its *own* snapshot object (each node owns one
register per object); the two clusters share a single simulated timeline
via a shared kernel — the same pattern a simulated sharded fabric uses.

Run:  python examples/snapshot_applications.py
"""

from repro import ClusterConfig, SimBackend
from repro.apps import DistributedCounter, PhaseBarrier

N = 4
PHASES = 3
ITEMS_PER_PHASE = 5


def main() -> None:
    counter_cluster = SimBackend(
        "ss-always", ClusterConfig(n=N, delta=2, seed=21)
    )
    barrier_cluster = SimBackend(
        "ss-always",
        ClusterConfig(n=N, delta=2, seed=22),
        kernel=counter_cluster.kernel,  # one shared timeline
    )
    counter = DistributedCounter(counter_cluster)
    barrier = PhaseBarrier(barrier_cluster, participants=list(range(N)))
    kernel = counter_cluster.kernel

    async def worker(node: int) -> None:
        for phase in range(1, PHASES + 1):
            for _ in range(ITEMS_PER_PHASE):
                await counter.increment(node)
            await barrier.enter(node, phase)
            await barrier.await_phase(node, phase)

    async def run() -> None:
        tasks = [kernel.create_task(worker(node)) for node in range(N)]
        await kernel.gather(tasks)

    kernel.run_until_complete(run())

    reading = counter.read_sync(0)
    expected = N * PHASES * ITEMS_PER_PHASE
    print(f"items processed : {reading.total} (expected {expected})")
    print(f"per worker      : {reading.per_node}")
    print(f"phases completed: all workers at phase {PHASES}")
    assert reading.total == expected


if __name__ == "__main__":
    main()
