"""Performance-engine benchmarks.

``pytest benchmarks/bench_perf_engine.py`` — pytest-benchmark targets
for the hot paths the fast-path engine optimizes (kernel dispatch,
broadcast fan-out, metrics-off runs, parallel sweep parity) and the
structural obs-off budget tests.  Tracked numbers live in the perf
ledger (``python3 -m ledger``), which also freezes the PR-1 figures for
continuity.
"""

import time

import pytest

_SWEEP_SEEDS = (0, 1, 2, 3)


# -- measurement workloads ---------------------------------------------------


def kernel_tick_workload(events=20_000, kernel=None):
    """The raw scheduler loop: one self-rearming timer, ``events`` firings."""
    from repro.sim.kernel import Kernel

    if kernel is None:
        kernel = Kernel()
    count = 0

    def tick():
        nonlocal count
        count += 1
        if count < events:
            kernel.call_later(0.001, tick)

    kernel.call_later(0.001, tick)
    kernel.run()
    return count


def _pre_obs_kernel_cls():
    """A :class:`Kernel` whose ``run()`` is the pre-observability loop.

    Verbatim copy of the dispatch loop from before ``kernel.obs`` existed
    (no ``self.obs`` test, no batch accounting) — the reference the
    obs-overhead case compares against.  Kept in the benchmark rather than
    the kernel so the production code carries exactly one loop per path.
    """
    import heapq

    from repro.sim.kernel import Kernel

    heappop = heapq.heappop

    class _PreObsKernel(Kernel):
        def run(self, until_time=None, max_events=None, until=None):
            heap = self._heap
            scripted = self._scripted
            processed = 0
            try:
                while heap:
                    if until is not None and until._state != "pending":
                        return
                    when = heap[0][0]
                    if until_time is not None and when > until_time:
                        self._now = until_time
                        return
                    if scripted:
                        entry = self._pop_next()
                    else:
                        entry = heappop(heap)
                    self._now = when
                    entry[3](*entry[4])
                    processed += 1
                    if max_events is not None and processed >= max_events:
                        return
                    if not scripted:
                        while heap and heap[0][0] == when:
                            if until is not None and until._state != "pending":
                                return
                            entry = heappop(heap)
                            entry[3](*entry[4])
                            processed += 1
                            if (
                                max_events is not None
                                and processed >= max_events
                            ):
                                return
            finally:
                self._events_processed += processed

    return _PreObsKernel


def measure_obs_overhead(events=100_000, rounds=7):
    """Kernel-dispatch cost with observability *disabled* vs the pre-obs loop.

    Interleaves the two variants round by round (cancelling load drift on
    a busy host) and compares best-of-``rounds`` times.  Returns
    ``(overhead_pct, current_best, reference_best)``; the contract —
    asserted by ``test_obs_disabled_overhead`` — is that the disabled path
    pays only one ``self.obs is None`` test per ``run()`` call (the
    dispatch loop itself is the verbatim pre-obs loop), ≤ 2% of kernel
    throughput.  The default workload is sized so one round is ~50ms:
    sub-10ms rounds measure scheduler jitter, not the loop.
    """
    from repro.sim.kernel import Kernel

    pre_obs_cls = _pre_obs_kernel_cls()

    def timed(cls):
        start = time.perf_counter()
        kernel_tick_workload(events, kernel=cls())
        return time.perf_counter() - start

    # Warmup: the first dispatch of each loop pays bytecode-cache and
    # branch-predictor cold costs that would bias whichever variant the
    # measured rounds happened to run first.
    timed(Kernel)
    timed(pre_obs_cls)
    current_best = float("inf")
    reference_best = float("inf")
    for r in range(rounds):
        first, second = (
            (Kernel, pre_obs_cls) if r % 2 == 0 else (pre_obs_cls, Kernel)
        )
        a, b = timed(first), timed(second)
        cur, ref = (a, b) if first is Kernel else (b, a)
        current_best = min(current_best, cur)
        reference_best = min(reference_best, ref)
    overhead_pct = (current_best / reference_best - 1.0) * 100.0
    return overhead_pct, current_best, reference_best


def dispatch_line_events(cls, events):
    """Traced line-event count inside ``cls.run`` for a tick workload.

    Deterministic proxy for dispatch-loop cost: ``sys.settrace`` counts
    every source line the run loop executes (callback frames are not
    traced).  Two loops that execute the same lines per event cost the
    same per event, regardless of how noisy the host's wall clock is.
    """
    import sys

    target = cls.run.__code__
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code is target:
            if event == "line":
                count += 1
            return tracer
        return None

    sys.settrace(tracer)
    try:
        kernel_tick_workload(events, kernel=cls())
    finally:
        sys.settrace(None)
    return count


def model_checker_workload(max_runs=50):
    from repro.verify import explore_snapshot_scenario

    result = explore_snapshot_scenario(
        "dgfr-nonblocking",
        [("write", 0, "v"), ("snapshot", 1, None)],
        n=3,
        max_runs=max_runs,
        max_depth=10,
        start_loops=False,
    )
    assert result.runs == max_runs or result.exhausted
    return result


#: Kernel events per operation allowed on :func:`contended_events_per_op`'s
#: run.  Algorithm 2/3 waits are predicate watches, tested inline when a
#: handler changes state: the run takes 35.3 events/op.  With a task
#: woken per state change to re-test its condition (one shared event per
#: node, a ``first_of`` per wake in the query round) it took 102.7.
CONTENDED_EVENTS_PER_OP_BOUND = 50.0


def contended_events_per_op(ops_per_client=30, n=5, seed=0):
    """Kernel events per completed operation on a contended ``ss-always``
    cluster: three nodes write and two snapshot, back to back, at δ = 0
    (every node serves every snapshot task)."""
    from repro import ClusterConfig, SimBackend

    cluster = SimBackend("ss-always", ClusterConfig(n=n, seed=seed, delta=0))

    async def client(node):
        for k in range(ops_per_client):
            if node < 3:
                await cluster.write(node, (node, k))
            else:
                await cluster.snapshot(node)

    async def main():
        await cluster.kernel.gather([cluster.spawn(client(i)) for i in range(n)])

    start = cluster.kernel.events_processed
    cluster.run_until(main(), max_events=None)
    events = cluster.kernel.events_processed - start
    return events / (ops_per_client * n)


def measure_sweep(jobs):
    """Wall-clock seconds for the 4-seed E01–E15 sweep at a job count."""
    from repro.harness.experiments import EXPERIMENTS
    from repro.harness.parallel import experiment_cells, run_cells

    cells = experiment_cells(sorted(EXPERIMENTS), seeds=_SWEEP_SEEDS)
    start = time.perf_counter()
    results = run_cells(cells, jobs=jobs)
    elapsed = time.perf_counter() - start
    assert len(results) == len(cells) and all(r for r in results)
    return elapsed, results


# -- pytest-benchmark targets -------------------------------------------------


def test_kernel_batch_dispatch(benchmark):
    """Same-instant burst dispatch: 200 callbacks per instant, 100 instants."""
    from repro.sim.kernel import Kernel

    def run():
        kernel = Kernel()
        hits = 0

        def hit():
            nonlocal hits
            hits += 1

        for instant in range(100):
            for _ in range(200):
                kernel.call_at(float(instant), hit)
        kernel.run()
        return hits

    assert benchmark(run) == 20_000


def test_sleep_timer_pool(benchmark):
    """Timer churn: many concurrent sleepers re-arming repeatedly."""
    from repro.sim.kernel import Kernel

    def run():
        kernel = Kernel()
        wakes = 0

        async def sleeper(period):
            nonlocal wakes
            for _ in range(100):
                await kernel.sleep(period)
                wakes += 1

        async def main():
            await kernel.gather([sleeper(0.1 * (i + 1)) for i in range(20)])

        kernel.run_until_complete(main())
        return wakes

    assert benchmark(run) == 2_000


def test_broadcast_fanout_cost(benchmark):
    """Per-broadcast cost at n=32 (cached wire_size across 31 channels)."""
    from repro import ClusterConfig, SimBackend

    cluster = SimBackend(
        "ss-nonblocking", ClusterConfig(n=32, seed=0), start=False
    )
    counter = iter(range(10**9))

    def one_write():
        cluster.write_sync(0, next(counter))

    benchmark(one_write)


def test_wire_size_dict_payload(benchmark):
    """Pricing a fabric-shaped WRITE: n=4 slots of 64 ``key: (seq, value)``
    pairs each.  The message is new every round (cold message cache), the
    register entries are the ones the previous rounds already measured."""
    from repro.core.base import WriteMessage
    from repro.core.register import RegisterArray, TimestampedValue
    from repro.net.message import HEADER_BYTES, INT_BYTES

    slot = {f"key-{k:03d}": (k + 1, bytes(16)) for k in range(64)}
    reg = RegisterArray([TimestampedValue(node + 1, dict(slot)) for node in range(4)])
    expected = HEADER_BYTES + 4 * (INT_BYTES + 64 * (7 + INT_BYTES + 16))

    def price_one_message():
        return WriteMessage(reg=reg).wire_size()

    assert benchmark(price_one_message) == expected


def test_metrics_disabled_run(benchmark):
    """Write cost with the collector disabled (the near-free path)."""
    from repro import ClusterConfig, SimBackend

    cluster = SimBackend(
        "ss-nonblocking", ClusterConfig(n=16, seed=0), start=False
    )
    cluster.metrics.disable()
    counter = iter(range(10**9))

    def one_write():
        cluster.write_sync(0, next(counter))

    benchmark(one_write)


def test_model_checker_throughput(benchmark):
    result = benchmark(model_checker_workload)
    assert result.runs == 50 or result.exhausted


def test_ss_always_contended_events_per_op():
    """Algorithm 3 under contention stays under its kernel-event budget.

    An exact count: a wait that went back to waking a task on every state
    change (to re-test a condition that did not change) would more than
    double it.
    """
    per_op = contended_events_per_op()
    assert per_op <= CONTENDED_EVENTS_PER_OP_BOUND, (
        f"ss-always contended run takes {per_op:.1f} kernel events per "
        f"operation; the bound is {CONTENDED_EVENTS_PER_OP_BOUND}"
    )


def test_obs_enabled_counting():
    """KernelStats attached: the tick workload is one single-event batch
    per instant, so the batch counters must track the event count exactly
    (and the first sleep-free workload never touches the timer pool)."""
    from repro.obs.observe import KernelStats
    from repro.sim.kernel import Kernel

    kernel = Kernel()
    kernel.obs = KernelStats()
    assert kernel_tick_workload(2_000, kernel=kernel) == 2_000
    assert kernel.obs.batches == 2_000
    assert kernel.obs.batch_events == 2_000
    assert kernel.obs.largest_batch == 1


def test_obs_disabled_path_is_pre_obs_loop():
    """The obs-off dispatch loop does zero extra work per event.

    Compares traced line-event counts against the verbatim pre-obs loop
    at two workload sizes: the difference must be a small constant (the
    once-per-``run()`` ``self.obs`` test), NOT grow with the event count.
    This is the deterministic form of the ≤ 2% overhead contract — it
    cannot be fooled by a noisy host clock.
    """
    from repro.sim.kernel import Kernel

    pre_obs_cls = _pre_obs_kernel_cls()
    deltas = [
        dispatch_line_events(Kernel, ev) - dispatch_line_events(pre_obs_cls, ev)
        for ev in (1_000, 2_000)
    ]
    assert deltas[0] == deltas[1], (
        f"obs-off dispatch executes {deltas[1] - deltas[0]} extra lines per "
        "1000 events vs the pre-obs loop; the disabled path must match it "
        "line for line"
    )
    assert 0 <= deltas[0] <= 4, (
        f"obs-off run() prefix costs {deltas[0]} line events; expected the "
        "single per-call `self.obs is None` test"
    )


def test_obs_disabled_hotpaths_stay_lean():
    """The per-packet and per-round obs hooks cost a guard test when off.

    The attribution layer hooks two more hot paths than the kernel loop:
    ``Process.deliver`` (one ``obs is not None`` test per arriving
    packet) and ``AckCollector.__enter__`` (one per quorum round).  This
    traces both over a seeded run with observability disabled and pins
    the executed-lines-per-call budget, so any future fattening of the
    disabled path fails structurally — no wall clock involved.
    """
    import sys as _sys

    from repro.config import scenario_config
    from repro.backend.sim import SimBackend
    from repro.net.node import Process
    from repro.net.quorum import AckCollector

    targets = {
        Process.deliver.__code__: "deliver",
        AckCollector.__enter__.__code__: "round_open",
    }
    counts = {"deliver": [0, 0], "round_open": [0, 0]}

    def tracer(frame, event, arg):
        name = targets.get(frame.f_code)
        if name is None:
            return None
        if event == "call":
            counts[name][1] += 1
        elif event == "line":
            counts[name][0] += 1
        return tracer

    cluster = SimBackend("ss-nonblocking", scenario_config(n=4, seed=0))
    assert cluster.obs is None  # no ambient session: the disabled path
    _sys.settrace(tracer)
    try:
        for i in range(6):
            cluster.write_sync(i % 4, f"w{i}".encode())
    finally:
        _sys.settrace(None)

    deliver_lines, deliver_calls = counts["deliver"]
    round_lines, round_calls = counts["round_open"]
    assert deliver_calls > 50 and round_calls == 6
    # deliver: crash test, obs guard, handler dispatch, ack-sink loop.
    assert deliver_lines / deliver_calls <= 8.0, (
        f"obs-off deliver executes {deliver_lines / deliver_calls:.2f} "
        "lines per packet; the disabled path budget is 8"
    )
    # round open: obs guard + sink registration + return.
    assert round_lines / round_calls <= 4.0, (
        f"obs-off AckCollector.__enter__ executes "
        f"{round_lines / round_calls:.2f} lines per round; budget is 4"
    )


@pytest.mark.slow
def test_obs_disabled_overhead():
    """Observability off costs ≤ 2% kernel throughput vs the pre-obs loop.

    Wall-clock backstop for ``test_obs_disabled_path_is_pre_obs_loop``.
    The container's clock jitters by several percent even on best-of
    measurements, so the structural test above is the authoritative gate;
    here we take the best of a few attempts before asserting.
    """
    overhead_pct = current_best = reference_best = None
    for _ in range(5):
        overhead_pct, current_best, reference_best = measure_obs_overhead()
        if overhead_pct <= 2.0:
            break
    assert overhead_pct <= 2.0, (
        f"obs-disabled kernel dispatch {overhead_pct:.2f}% slower than the "
        f"pre-observability loop ({current_best:.4f}s vs "
        f"{reference_best:.4f}s); the disabled path must pay only one "
        "`self.obs is None` test per run() call"
    )


@pytest.mark.slow
def test_parallel_sweep_matches_serial():
    """--jobs 4 sweep returns exactly the serial rows (determinism gate)."""
    serial_elapsed, serial_rows = measure_sweep(jobs=1)
    parallel_elapsed, parallel_rows = measure_sweep(jobs=4)
    assert parallel_rows == serial_rows
