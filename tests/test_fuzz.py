"""Tests for the fuzz subsystem: specs, executor, shrinker, campaigns.

The end-to-end guarantee under test: a deliberately broken algorithm is
*found* by a fuzz campaign, the failing spec is *shrunk* to a small
pinned counterexample, and the counterexample file *replays* the exact
violation bit-identically — twice.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import ConfigurationError, scenario_config
from repro.fuzz import (
    ScenarioEvent,
    ScenarioSpec,
    generate_spec,
    load_counterexample,
    replay_counterexample,
    run_fuzz_campaign,
    run_spec,
    shrink_spec,
    write_counterexample,
)

# Registers the "broken-first-ack" algorithm (a quorum-intersection bug:
# snapshots merge only their first ack) as a fuzz target.
from broken_algorithms import BrokenFirstAckOnly  # noqa: F401

#: The generated seed (under the default generator parameters with
#: ``events=40``) whose spec exposes the broken-first-ack bug — found by
#: the campaign in the e2e test below, pinned here so the shrink tests
#: don't have to search for it.  (Re-found when ``read`` joined the
#: generated mix, which re-mapped every seed; it was 10.)
BUG_SEED = 48


class TestScenarioSpec:
    def test_event_round_trips_through_dict(self):
        event = ScenarioEvent(
            kind="partition", group=(0, 2), mode="", gap=0.25
        )
        assert ScenarioEvent.from_dict(event.to_dict()) == event

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown event kind"):
            ScenarioEvent(kind="meteor-strike")

    def test_spec_round_trips_through_json(self):
        spec = generate_spec(7, events=30)
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_json_form_is_canonical(self):
        spec = generate_spec(7, events=10)
        assert spec.to_json() == ScenarioSpec.from_json(spec.to_json()).to_json()

    def test_save_load_round_trip(self, tmp_path):
        spec = generate_spec(3, events=12)
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ScenarioSpec.load(path) == spec

    def test_generation_is_deterministic(self):
        assert generate_spec(42) == generate_spec(42)
        assert generate_spec(42) != generate_spec(43)

    def test_generated_events_are_well_formed(self):
        for seed in range(8):
            spec = generate_spec(seed, events=30)
            assert 3 <= spec.n <= 5
            assert len(spec.events) == 30
            for event in spec.events:
                if event.kind in ("write", "snapshot", "read", "crash", "resume"):
                    assert 0 <= event.node < spec.n
                assert 0 <= event.register < spec.n
                if event.kind == "partition":
                    assert event.group
                    assert len(event.group) <= (spec.n - 1) // 2
                    assert all(0 <= i < spec.n for i in event.group)

    def test_reads_are_in_the_generated_mix(self):
        kinds = [e.kind for e in generate_spec(0, events=60).events]
        assert "read" in kinds and "write" in kinds and "snapshot" in kinds

    def test_fabric_spec_round_trips_through_json(self):
        spec = generate_spec(3, "ss-nonblocking", events=30, shards=2)
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        payload = json.loads(spec.to_json())
        assert payload["shards"] == 2
        by_kind = {event["kind"]: event for event in payload["events"]}
        assert by_kind["write"]["key"].startswith("c")
        assert {"split", "reconfigure"} <= set(by_kind)

    def test_single_cluster_specs_keep_their_bytes(self):
        """No ``shards``, ``key`` or ``shard`` field on disk unless set:
        a spec drawn without shards serializes as before they existed."""
        payload = json.loads(generate_spec(7, events=30).to_json())
        assert "shards" not in payload
        assert all(
            set(event) == {"kind", "node", "value", "group", "mode", "gap", "register"}
            for event in payload["events"]
        )

    def test_version_2_file_without_shards_loads(self, tmp_path):
        spec = generate_spec(7, events=10)
        path = tmp_path / "ce.json"
        write_counterexample(path, spec, run_spec(spec))
        payload = json.loads(path.read_text())
        assert payload["version"] == 2 and "shards" not in payload["spec"]
        assert load_counterexample(path)[0].shards == 0

    def test_fabric_program_places_one_split_and_one_reconfigure(self):
        spec = generate_spec(5, "ss-nonblocking", events=40, shards=2)
        assert (spec.n, spec.delta, spec.shards) == (4, 2.0, 2)
        assert spec.events[20].kind == "split"
        assert spec.events[30].kind == "reconfigure"
        kinds = {event.kind for event in spec.events}
        assert kinds <= {"write", "read", "snapshot", "crash", "resume",
                         "split", "reconfigure"}
        for index, event in enumerate(spec.events):
            if event.kind == "crash":
                assert event.shard < 2 + (index > 20)
                assert event.node < 4 + (index > 30)

    def test_with_events_unpins_script(self):
        spec = replace(generate_spec(1, events=5), decision_script=(1, 0))
        trimmed = spec.with_events(spec.events[:2])
        assert trimmed.decision_script is None
        assert len(trimmed.events) == 2

    def test_config_uses_spec_dimensions(self):
        spec = generate_spec(5)
        config = spec.config()
        assert config.n == spec.n
        assert config.seed == spec.seed
        assert config.delta == spec.delta
        assert config.channel.min_delay == spec.min_delay
        assert config.channel.loss_probability == spec.loss


class TestScenarioConfigFactory:
    def test_defaults_match_cluster_config(self):
        config = scenario_config()
        assert config.n == 5
        assert config.delta == 0.0
        assert config.channel.loss_probability == 0.0
        assert config.channel.duplication_probability == 0.0

    def test_fixed_delay_pins_both_bounds(self):
        config = scenario_config(fixed_delay=1.0)
        assert config.channel.min_delay == config.channel.max_delay == 1.0

    def test_fixed_delay_conflicts_with_range(self):
        with pytest.raises(ConfigurationError, match="not both"):
            scenario_config(fixed_delay=1.0, min_delay=0.5)

    def test_duplication_defaults_to_half_loss(self):
        config = scenario_config(loss=0.1)
        assert config.channel.duplication_probability == pytest.approx(0.05)

    def test_overrides_pass_through(self):
        config = scenario_config(n=3, max_int=64, quorum_size=2)
        assert config.max_int == 64
        assert config.quorum_size == 2


class TestExecutor:
    def test_clean_spec_passes(self):
        outcome = run_spec(generate_spec(0, events=20))
        assert outcome.ok, outcome.failures
        assert outcome.applied + outcome.skipped == 20
        assert outcome.checks >= 2  # final history + final invariants

    def test_runs_are_deterministic(self):
        spec = generate_spec(5, events=25)
        first = run_spec(spec)
        second = run_spec(spec)
        assert first.fingerprint() == second.fingerprint()
        assert first.failures == second.failures

    def test_capture_does_not_perturb_the_run(self):
        spec = generate_spec(9, events=25)
        plain = run_spec(spec)
        captured = run_spec(spec, capture_decisions=True)
        assert plain.fingerprint() == captured.fingerprint()
        assert captured.decision_log  # ties were recorded
        assert not plain.decision_log  # …but only under capture

    def test_pinned_script_replays_identically(self):
        spec = generate_spec(9, events=25)
        captured = run_spec(spec, capture_decisions=True)
        pinned = replace(
            spec,
            decision_script=tuple(c for c, _n in captured.decision_log),
        )
        scripted = run_spec(pinned)
        assert scripted.fingerprint() == captured.fingerprint()

    def test_read_events_run_and_are_recorded(self):
        events = (
            ScenarioEvent(kind="write", node=0, value="w0"),
            ScenarioEvent(kind="read", node=2, register=0),
            ScenarioEvent(kind="corrupt", mode="ssn"),  # ssn, sns and tag
            ScenarioEvent(kind="write", node=1, value="w1"),
            ScenarioEvent(kind="read", node=0, register=1),
        )
        for algorithm in ("ss-always", "amortized"):
            outcome = run_spec(ScenarioSpec(algorithm=algorithm, n=3, events=events))
            assert outcome.ok, (algorithm, outcome.failures)
            assert outcome.applied == 5
            # The burst voided the first window; the second holds w1 + read.
            assert outcome.history[-1][1:4] == ("read", 1, ["read", "w1", 1])

    def test_corruption_skipped_for_non_stabilizing_algorithms(self):
        events = (
            ScenarioEvent(kind="write", node=0, value="w0"),
            ScenarioEvent(kind="corrupt", mode="ts"),
            ScenarioEvent(kind="snapshot", node=1),
        )
        spec = ScenarioSpec(
            algorithm="dgfr-nonblocking", n=3, events=events
        )
        outcome = run_spec(spec)
        assert outcome.ok, outcome.failures
        assert outcome.skipped == 1

    def test_restart_skipped_for_non_stabilizing_algorithms(self):
        """A detectable restart wipes state only the self-stabilizing
        variants claim to survive: elsewhere it is a plain resume, and
        the node's next write does not reuse index 1."""
        events = (
            ScenarioEvent(kind="write", node=1, value="w0"),
            ScenarioEvent(kind="crash", node=1),
            ScenarioEvent(kind="resume", node=1, mode="restart"),
            ScenarioEvent(kind="write", node=1, value="w1"),
            ScenarioEvent(kind="snapshot", node=2),
        )
        for algorithm in ("dgfr-nonblocking", "dgfr-always"):
            outcome = run_spec(ScenarioSpec(algorithm=algorithm, n=3, events=events))
            assert outcome.ok, (algorithm, outcome.failures)
            assert outcome.skipped == 1
            assert outcome.checks == 1  # the final history only
            assert [entry[3] for entry in outcome.history[:2]] == [1, 2]
            assert outcome.history[-1][3][2] == [0, 2, 0]

    def test_corruption_recovery_checked_for_stabilizing_algorithms(self):
        events = (
            ScenarioEvent(kind="write", node=0, value="w0"),
            ScenarioEvent(kind="corrupt", mode="registers"),
            ScenarioEvent(kind="write", node=1, value="w1"),
            ScenarioEvent(kind="snapshot", node=2),
        )
        spec = ScenarioSpec(algorithm="ss-always", n=3, delta=0.0, events=events)
        outcome = run_spec(spec)
        assert outcome.ok, outcome.failures
        assert outcome.checks >= 4  # pre-corruption + post-recovery + finals

    def test_detectable_restart_gets_an_evidence_window(self):
        """A restart wipes ``ts``; a write invoked at that node inside one
        gossip period reuses index 1.  Like a corruption burst, the
        restart closes the history before it and reopens it after the
        recovery cycles."""
        events = (
            ScenarioEvent(kind="write", node=1, value="w0"),
            ScenarioEvent(kind="crash", node=1),
            ScenarioEvent(kind="resume", node=1, mode="restart"),
            ScenarioEvent(kind="write", node=1, value="w1"),
            ScenarioEvent(kind="snapshot", node=2),
        )
        for algorithm in ("ss-nonblocking", "amortized"):
            outcome = run_spec(ScenarioSpec(algorithm=algorithm, n=3, events=events))
            assert outcome.ok, (algorithm, outcome.failures)
            # pre-restart history, post-restart invariants, the two finals
            assert outcome.checks == 4
            assert [entry[2] for entry in outcome.history] == ["w1", None]

    def test_crash_guard_never_kills_majority(self):
        events = tuple(
            ScenarioEvent(kind="crash", node=node) for node in range(4)
        ) + (ScenarioEvent(kind="write", node=0, value="w"),)
        outcome = run_spec(ScenarioSpec(algorithm="ss-always", n=4, events=events))
        assert outcome.ok, outcome.failures
        assert outcome.skipped >= 3  # only one crash fits n=4


class TestShrinker:
    def test_shrink_requires_a_failing_spec(self):
        with pytest.raises(ValueError, match="needs a failing spec"):
            shrink_spec(generate_spec(0, events=10))

    def test_shrinks_bug_to_small_pinned_counterexample(self):
        spec = generate_spec(BUG_SEED, algorithm="broken-first-ack", events=40)
        assert not run_spec(spec).ok  # the seed really exposes the bug
        result = shrink_spec(spec)
        assert result.original_events == 40
        # The acceptance bar: the counterexample keeps at most 25% of the
        # original event program.
        assert result.final_events <= 10
        # The schedule was pinned to an explicit decision script and the
        # minimized spec still fails.
        assert result.spec.decision_script is not None
        outcome = run_spec(result.spec)
        assert not outcome.ok
        assert outcome.fingerprint() == result.outcome.fingerprint()


    def test_read_that_only_observes_is_shrunk_to_a_snapshot(self):
        """A snapshot sees all a read can: when the failure survives the
        substitution the read was only its observer, so a ``read`` left
        in a shrunk program is one the failure needs.  The program fails
        under the engine that keeps the lost write hand-off."""
        spec, _ = load_counterexample(REGRESSIONS / "ss-always-14.json")
        spec = replace(spec, algorithm="broken-write-handoff")
        *program, observer = spec.events
        assert (observer.kind, observer.node) == ("snapshot", 1)
        observed_by_read = spec.with_events(
            program + [replace(observer, kind="read", register=2)]
        )
        assert "read 3: entry 2 cites" in run_spec(observed_by_read).failures[0]
        result = shrink_spec(observed_by_read)
        assert [e.kind for e in result.spec.events][-1] == "snapshot"
        assert "snapshot 3: entry 2 cites" in result.outcome.failures[0]


#: Shrunk counterexamples of findings, kept by content because a change
#: to the generated mix re-maps every seed (``tests/fuzz_regressions/``;
#: the name is the algorithm and the seed that found it at 60 events).
REGRESSIONS = Path(__file__).parent / "fuzz_regressions"

#: The seeds of the pinned ``ss-always`` write hand-off programs.
SS_ALWAYS_HANDOFF_SEEDS = [14, 87, 88, 104, 116, 143, 161, 167, 180]


class TestPinnedCounterexamples:
    def test_write_round_survives_registers_lowered_mid_round(self):
        """ROADMAP 1(b), fixed: an abandoned client's group-commit round
        outlived a ``corrupt registers`` that lowered ``reg`` below its
        ``lReg``, and every later write at the node queued behind it."""
        spec, payload = load_counterexample(REGRESSIONS / "amortized-116.json")
        assert payload["version"] == 1  # version-1 files still load
        assert len(spec.events) == 12
        assert "termination bound" in payload["failures"][0]
        outcome = run_spec(spec)
        assert outcome.ok, outcome.failures

    @pytest.mark.parametrize(
        "name",
        [f"ss-always-{seed}" for seed in SS_ALWAYS_HANDOFF_SEEDS]
        + ["dgfr-always-3"],
        ids=[str(seed) for seed in SS_ALWAYS_HANDOFF_SEEDS] + ["dgfr-always-3"],
    )
    def test_ss_always_abandoned_write_is_not_acknowledged(self, name):
        """A write abandoned at its termination bound once lent its
        timestamp to the next write at its node: the deposit had no
        identity, so the loop's clear acknowledged the wrong write."""
        spec, _ = load_counterexample(REGRESSIONS / f"{name}.json")
        outcome = run_spec(spec)
        assert outcome.ok, outcome.failures

    @pytest.mark.parametrize("seed", SS_ALWAYS_HANDOFF_SEEDS)
    def test_handoff_programs_fail_without_the_deposit_identity(self, seed):
        """The same programs fail under the engine that ignores the
        deposit's identity, so that identity is what makes them pass."""
        spec, _ = load_counterexample(REGRESSIONS / f"ss-always-{seed}.json")
        outcome = run_spec(replace(spec, algorithm="broken-write-handoff"))
        assert not outcome.ok
        assert "NOT linearizable" in outcome.failures[0]

    def test_the_final_check_waits_for_a_reset_under_way(self, monkeypatch):
        """The final phase itself can start a bounded global reset; a
        check landing mid-reset compared nodes already in the new epoch
        (every ts 0) with nodes still in the old one."""
        spec, payload = load_counterexample(
            REGRESSIONS / "bounded-ss-always-2082.json"
        )
        assert "reg_2[0].ts=2 > ts_0=0" in payload["failures"][0]
        assert run_spec(spec).ok
        from repro.fuzz import executor

        async def no_wait(self, context):
            return None

        monkeypatch.setattr(executor._SpecRun, "_finish_reset", no_wait)
        outcome = run_spec(spec)
        assert not outcome.ok
        assert "invariants violated" in outcome.failures[0]

    def test_an_older_epochs_message_in_flight_bounds_nothing(
        self, monkeypatch
    ):
        """After a reset, RESET_JOINs of the old epoch may still be in
        flight; their receivers drop them, so Definition 1 skips them."""
        spec, payload = load_counterexample(
            REGRESSIONS / "bounded-ss-always-364.json"
        )
        assert "in-flight RESET_JOIN" in payload["failures"][0]
        assert run_spec(spec).ok
        from repro.analysis import invariants

        monkeypatch.setattr(invariants, "_older_epoch", lambda *_: False)
        outcome = run_spec(spec)
        assert not outcome.ok
        assert "in-flight RESET_JOIN" in outcome.failures[0]

    def test_fabric_counterexample_replays_bit_identically(self):
        """A fabric campaign's shrunk finding pins its schedule on the
        fabric's shared kernel and replays exactly, like any other."""
        path = REGRESSIONS / "fabric-ss-always-91.json"
        spec, payload = load_counterexample(path)
        assert spec.shards == 2 and spec.decision_script is not None
        assert payload["shrink"] == {
            "original_events": 9, "final_events": 4, "runs": 32
        }
        assert "misses write" in payload["failures"][0]
        first, second = replay_counterexample(path), replay_counterexample(path)
        assert first.ok and second.ok, first.summary()
        assert first.outcome.fingerprint() == second.outcome.fingerprint()

    @pytest.mark.xfail(
        strict=True,
        reason="open: on a fabric a detectable restart gets no recovery "
        "window, and an ss-always node restarted at a shard's collect node "
        "serves the final composed cut a snapshot that misses a completed "
        "write (a plain resume, or ss-nonblocking, passes)",
    )
    def test_fabric_restart_keeps_completed_writes_in_the_next_cut(self):
        spec, _ = load_counterexample(REGRESSIONS / "fabric-ss-always-91.json")
        outcome = run_spec(spec)
        assert outcome.ok, outcome.failures

    def test_newer_format_versions_are_refused(self, tmp_path):
        payload = json.loads((REGRESSIONS / "ss-always-14.json").read_text())
        payload["version"] = 3
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="newer"):
            load_counterexample(path)


class TestCampaignAndReplay:
    def test_campaign_finds_shrinks_and_replays_the_bug(self, tmp_path):
        seeds = list(range(BUG_SEED - 10, BUG_SEED + 1))
        reports = run_fuzz_campaign(
            seeds,
            algorithm="broken-first-ack",
            budget=40,
            out_dir=tmp_path,
        )
        failing = [report for report in reports if not report.ok]
        assert failing, "fuzz campaign failed to find the injected bug"
        report = failing[-1]
        assert report.seed == BUG_SEED
        assert report.shrunk_events is not None
        assert report.shrunk_events <= report.events // 4
        assert report.counterexample is not None

        # The counterexample file replays the violation bit-identically —
        # twice.
        first = replay_counterexample(report.counterexample)
        second = replay_counterexample(report.counterexample)
        assert first.ok and second.ok
        assert first.outcome.fingerprint() == second.outcome.fingerprint()
        assert first.outcome.history == second.outcome.history

    def test_fabric_and_cluster_counterexamples_do_not_collide(self, tmp_path):
        """One directory, one algorithm, one seed: the fabric campaign's
        file carries its shard count, so neither overwrites the other."""
        from broken_algorithms import BrokenAlwaysEquivalent  # noqa: F401

        for shards in (0, 2):
            (report,) = run_fuzz_campaign(
                [5], algorithm="broken-always-equivalent", budget=60,
                out_dir=tmp_path, shrink=False, shards=shards,
            )
            assert not report.ok
        names = sorted(path.name for path in tmp_path.iterdir())
        assert names == [
            "counterexample-broken-always-equivalent-5.json",
            "counterexample-broken-always-equivalent-shards2-5.json",
        ]
        fabric, _ = load_counterexample(tmp_path / names[1])
        assert fabric.shards == 2
        assert replay_counterexample(tmp_path / names[0]).ok
        assert replay_counterexample(tmp_path / names[1]).ok

    def test_parallel_probe_matches_serial(self):
        seeds = [0, 1, 2, 3]
        serial = run_fuzz_campaign(seeds, jobs=1, budget=15)
        parallel = run_fuzz_campaign(seeds, jobs=4, budget=15)
        assert [r.summary() for r in serial] == [
            r.summary() for r in parallel
        ]

    def test_counterexample_format_is_versioned_json(self, tmp_path):
        spec = generate_spec(BUG_SEED, algorithm="broken-first-ack", events=40)
        outcome = run_spec(spec)
        path = tmp_path / "ce.json"
        write_counterexample(path, spec, outcome)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-fuzz-counterexample"
        assert payload["version"] == 2
        loaded, _ = load_counterexample(path)
        assert loaded == spec

    def test_bytes_valued_outcome_round_trips(self, tmp_path):
        """A corruption burst leaves ``bytes`` in the registers and the
        next snapshot returns them; the file must still be JSON."""
        events = (
            ScenarioEvent(kind="write", node=0, value="w0"),
            ScenarioEvent(kind="corrupt", mode="registers"),
            ScenarioEvent(kind="snapshot", node=2),
        )
        spec = ScenarioSpec(algorithm="ss-nonblocking", n=3, events=events)
        outcome = run_spec(spec)
        (snapshot,) = outcome.history
        assert all(isinstance(value, bytes) for value in snapshot[3][1])
        path = tmp_path / "ce.json"
        write_counterexample(path, spec, outcome)
        loaded, payload = load_counterexample(path)
        assert loaded == spec
        assert payload["fingerprint"] == outcome.fingerprint()
        assert replay_counterexample(path).fingerprint_matches

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a repro-fuzz-counterexample"):
            load_counterexample(path)

    def test_replay_detects_divergence(self, tmp_path):
        spec = generate_spec(BUG_SEED, algorithm="broken-first-ack", events=40)
        outcome = run_spec(spec)
        path = tmp_path / "ce.json"
        write_counterexample(path, spec, outcome)
        payload = json.loads(path.read_text())
        payload["fingerprint"]["sim_time"] += 1.0
        path.write_text(json.dumps(payload))
        result = replay_counterexample(path)
        assert result.reproduced
        assert not result.fingerprint_matches
        assert not result.ok
