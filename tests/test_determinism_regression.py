"""Determinism regression gates for the fast-path engine.

The performance work in the kernel/channel/codec hot paths must not
change what a seeded run *does* — only how fast it does it.  Three gates
hold that line:

* run-to-run: the same ``(algorithm, seed, workload)`` yields an
  identical final snapshot, metrics snapshot, event count, and clock;
* golden fingerprints: frozen literals for one seeded workload per
  algorithm, so a refactor that shifts RNG consumption (and therefore
  every schedule) fails loudly instead of silently re-baselining.
  Update these literals only for a *deliberate* schedule-affecting
  change, and say so in the commit message;
* scripted mode: the model checker's ``decision_log`` replays exactly;
* CLI: ``--jobs 4`` experiment output is byte-identical to ``--jobs 1``.
"""

import pytest

from repro import ClusterConfig, SimBackend
from repro.config import ChannelConfig
from repro.sim.kernel import TieBreak

ALGORITHMS = ["dgfr-nonblocking", "ss-nonblocking", "ss-always"]

#: algorithm -> (final snapshot values, total messages, final sim clock)
#: for the seeded workload in ``run_workload`` (seed 7, n=4, lossy).
GOLDEN_FINGERPRINTS = {
    "dgfr-nonblocking": (("v4", "v1", "v2", "v3"), 37, 12.535404),
    # Re-pinned when, while an operation is in flight, a request since
    # the last tick began standing in for the gossip digest between its
    # sender and its receiver (122 msgs, 12.250002 before).
    "ss-nonblocking": (("v4", "v1", "v2", "v3"), 108, 12.184287),
    # Re-pinned when a write deposit began ending the do-forever loop's
    # sleep instead of waiting out the gossip period (138 msgs,
    # 17.875608 before), and again when Algorithm 3's requests began
    # standing in for its digests: a skipped digest draws no channel
    # delay, so every later delay shifts (120 msgs, 13.877561 before),
    # and again when a snapshot task began waking the loop too: the final
    # snapshot starts at its invocation, not at the next tick, so the run
    # ends 2.3 u sooner with nine digests and one query round fewer
    # (126 msgs, 13.78219 before).
    "ss-always": (("v4", "v1", "v2", "v3"), 110, 11.511307),
}


def run_workload(algorithm, seed=7):
    """A small seeded workload touching every hot path (loss, dup, gossip)."""
    cluster = SimBackend(
        algorithm,
        ClusterConfig(
            n=4,
            seed=seed,
            channel=ChannelConfig(
                loss_probability=0.05, duplication_probability=0.02
            ),
        ),
    )
    for i in range(5):
        cluster.write_sync(i % 4, f"v{i}")
    snap = cluster.snapshot_sync(0)
    return cluster, snap


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_same_seed_same_run(algorithm):
    cluster_a, snap_a = run_workload(algorithm)
    cluster_b, snap_b = run_workload(algorithm)
    assert snap_a.values == snap_b.values
    assert cluster_a.metrics.snapshot() == cluster_b.metrics.snapshot()
    assert cluster_a.kernel.events_processed == cluster_b.kernel.events_processed
    assert cluster_a.kernel.now == cluster_b.kernel.now


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_golden_fingerprint(algorithm):
    cluster, snap = run_workload(algorithm)
    expected_values, expected_messages, expected_now = GOLDEN_FINGERPRINTS[
        algorithm
    ]
    assert tuple(snap.values) == expected_values
    assert cluster.metrics.snapshot().total_messages == expected_messages
    assert round(cluster.kernel.now, 6) == expected_now


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_golden_fingerprint_with_tracing_on(algorithm):
    """Observability must not perturb seeded schedules.

    The same workload run under a full capture session (spans, message
    trace, kernel stats, per-process heal counters) must reproduce the
    frozen fingerprints exactly — the obs hooks consume no RNG and
    schedule no events, so the schedule cannot shift.
    """
    from repro.obs import session

    with session() as obs:
        cluster, snap = run_workload(algorithm)
    obs.finish()
    expected_values, expected_messages, expected_now = GOLDEN_FINGERPRINTS[
        algorithm
    ]
    assert tuple(snap.values) == expected_values
    assert cluster.metrics.snapshot().total_messages == expected_messages
    assert round(cluster.kernel.now, 6) == expected_now
    # And the capture itself saw the run: spans and trace are populated.
    assert len(obs.recorder.ops()) == 6  # 5 writes + 1 snapshot
    assert all(span.status == "ok" for span in obs.recorder.ops())
    assert len(obs.clusters[0].trace.events) > 0
    assert obs.collect()["net.messages_total"] == expected_messages


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_scripted_decision_log_replays(algorithm):
    def scripted_run():
        cluster = SimBackend(
            algorithm,
            ClusterConfig(
                n=3, seed=0, channel=ChannelConfig(min_delay=1.0, max_delay=1.0)
            ),
            tie_break=TieBreak.SCRIPTED,
        )

        async def scenario():
            await cluster.write(0, "v")
            await cluster.snapshot(1)

        cluster.run_until(scenario(), max_events=200_000)
        return cluster.kernel.decision_log

    log_a = scripted_run()
    log_b = scripted_run()
    assert log_a and log_a == log_b


def test_jobs4_output_equals_jobs1_output(capsys):
    from repro.__main__ import main

    # Five cells with real work (0.0–1.0 s each): more cells than
    # workers, so the merge order is exercised, not just the pool.
    ids = ["e01", "e10", "e12", "e14", "e20"]
    assert main(["experiments", *ids, "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(["experiments", *ids, "--jobs", "4"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel
    assert all(f"E{int(eid[1:])} /" in serial for eid in ids)


def test_counterexample_replay_is_bit_identical_even_under_tracing(
    capsys, tmp_path
):
    """A fuzz counterexample round-trips: spec JSON is canonical, every
    replay reproduces the recorded history fingerprint exactly, and a
    ``--trace-out`` capture neither perturbs the replay nor varies
    between replays (two captures are byte-identical)."""
    import json

    import broken_algorithms  # noqa: F401  (registers broken-first-ack)

    from repro.__main__ import main as repro_main
    from repro.fuzz import ScenarioSpec, generate_spec, run_spec, shrink_spec

    spec = generate_spec(48, algorithm="broken-first-ack", events=40)
    shrunk = shrink_spec(spec)
    # Canonical serialization: spec -> JSON -> spec -> JSON is a fixpoint.
    assert ScenarioSpec.from_json(shrunk.spec.to_json()) == shrunk.spec

    from repro.fuzz import write_counterexample

    ce = tmp_path / "ce.json"
    write_counterexample(ce, shrunk.spec, shrunk.outcome)
    traces = []
    for index in range(2):
        trace_path = tmp_path / f"trace-{index}.json"
        assert repro_main(
            ["replay", str(ce), "--trace-out", str(trace_path)]
        ) == 0
        capsys.readouterr()
        traces.append(trace_path.read_bytes())
    assert traces[0] == traces[1]
    # And the traced replay equals the untraced one.
    untraced = run_spec(shrunk.spec)
    assert untraced.fingerprint() == shrunk.outcome.fingerprint()
    payload = json.loads(traces[0].decode())
    assert payload["traceEvents"], "trace capture saw the replayed cluster"
