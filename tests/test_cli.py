"""Tests for the ``python -m repro`` command-line interface."""

import json
import sys
from pathlib import Path

import pytest

from repro.__main__ import _COMMANDS, main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from check_trace_schema import validate  # noqa: E402


class TestCli:
    def test_help(self, capsys):
        assert main([]) == 0
        assert "experiments" in capsys.readouterr().out

    def test_help_flag(self, capsys):
        assert main(["--help"]) == 0
        assert "figures" in capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_command_help_prints_its_usage_section(self, capsys, command, flag):
        assert main([command, flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"``{command}")
        body = out.splitlines()[1:]
        assert body and all(line.startswith("    ") for line in body)
        # Only this command's section: no other command header leaks in.
        assert out.count("\n``") == 0

    def test_unknown_command(self, capsys):
        # "shard" was a command once; `load --shards K` is the same run.
        for command in ("frobnicate", "shard"):
            assert main([command]) == 2
            assert "unknown command" in capsys.readouterr().out

    def test_algorithms_lists_registry(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        for name in (
            "dgfr-nonblocking",
            "ss-nonblocking",
            "dgfr-always",
            "ss-always",
            "stacked",
            "bounded-ss-nonblocking",
            "bounded-ss-always",
        ):
            assert name in out

    def test_experiments_subset(self, capsys):
        assert main(["experiments", "e01"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out
        assert "write_msgs" in out

    def test_experiments_unknown_id(self, capsys):
        assert main(["experiments", "e99"]) == 2

    def test_experiments_ids_are_case_insensitive(self, capsys):
        assert main(["experiments", "E01"]) == 0
        assert "E1" in capsys.readouterr().out

    def test_figures_single(self, capsys):
        assert main(["figures", "fig1-upper"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1 (upper)" in out
        assert "WRITE" in out

    def test_figures_unknown(self, capsys):
        assert main(["figures", "fig99"]) == 2

    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "consistent after 6 cycles: True" in out
        assert "recovered" in out


class TestObservabilityFlags:
    def test_experiments_trace_out_writes_valid_chrome_trace(
        self, capsys, tmp_path
    ):
        out = tmp_path / "trace.json"
        assert main(["experiments", "E01", "--trace-out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "wrote Chrome trace" in stdout
        assert "perfetto" in stdout
        payload = json.loads(out.read_text())
        assert validate(payload) == []
        ops = [
            e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "op"
        ]
        assert ops, "expected operation spans in the E01 trace"
        assert {e["name"] for e in ops} == {"write", "snapshot"}

    def test_experiments_jsonl_out_and_stats(self, capsys, tmp_path):
        out = tmp_path / "events.jsonl"
        assert main(
            ["experiments", "e01", "--jsonl-out", str(out), "--stats"]
        ) == 0
        stdout = capsys.readouterr().out
        assert "metrics" in stdout
        assert "net.messages_total" in stdout
        records = [
            json.loads(line) for line in out.read_text().splitlines()
        ]
        assert records[0]["type"] == "session"
        assert {r["type"] for r in records} == {
            "session",
            "span",
            "message",
            "health",
            "metric",
        }

    def test_capture_forces_jobs_serial(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(
            ["experiments", "e01", "--jobs", "4", "--trace-out", str(out)]
        ) == 0
        captured = capsys.readouterr()
        assert "forcing --jobs 1" in captured.err
        assert validate(json.loads(out.read_text())) == []

    def test_trace_out_requires_a_path(self):
        import pytest

        with pytest.raises(SystemExit, match="requires a file path"):
            main(["experiments", "e01", "--trace-out"])

    def test_chaos_accepts_stats(self, capsys):
        assert main(["chaos", "--budget", "40", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "metrics" in out
        assert "ops.total" in out


class TestVerifyCommand:
    def test_verify_default_algorithms(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "ss-nonblocking" in out
        assert "all schedules OK" in out

    def test_verify_single_algorithm(self, capsys):
        assert main(
            ["verify", "--algorithm", "dgfr-nonblocking", "--budget", "50"]
        ) == 0

    def test_verify_positional_algorithm_removed(self):
        with pytest.raises(SystemExit, match="--algorithm NAME"):
            main(["verify", "dgfr-nonblocking", "--budget", "50"])

    def test_verify_unified_flags(self, capsys):
        assert main(
            [
                "verify",
                "--algorithm",
                "dgfr-nonblocking",
                "--seeds",
                "2",
                "--budget",
                "40",
                "--jobs",
                "2",
            ]
        ) == 0
        captured = capsys.readouterr()
        out = captured.out
        assert "[dfs        ]" in out
        assert "[walk s=0" in out
        assert "[walk s=1" in out
        assert captured.err == ""


class TestCampaignFlagUnification:
    """Chaos, verify, and fuzz share one flag/report vocabulary."""

    def test_chaos_unified_flags(self, capsys):
        assert main(
            ["chaos", "--budget", "30", "--seeds", "2", "--jobs", "2"]
        ) == 0
        captured = capsys.readouterr()
        assert "seed 0:" in captured.out
        assert "seed 1:" in captured.out
        assert captured.err == ""

    def test_chaos_positional_spelling_removed(self):
        with pytest.raises(SystemExit, match="--budget N / --seed-start S"):
            main(["chaos", "30", "1"])

    def test_events_flag_removed_names_budget(self):
        with pytest.raises(SystemExit, match="use --budget N"):
            main(["chaos", "--events", "30"])

    def test_algo_flag_removed_names_algorithm(self):
        with pytest.raises(SystemExit, match="use --algorithm NAME"):
            main(["chaos", "--budget", "30", "--algo", "ss-nonblocking"])

    def test_seed_start_offsets_the_seed_range(self, capsys):
        assert main(
            ["chaos", "--budget", "30", "--seeds", "2", "--seed-start", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "seed 5:" in out
        assert "seed 6:" in out


class TestFuzzCommand:
    def test_fuzz_clean_algorithm_passes(self, capsys):
        assert main(["fuzz", "--seeds", "2", "--budget", "15"]) == 0
        out = capsys.readouterr().out
        assert "seed 0: 15 events: OK" in out
        assert "seed 1: 15 events: OK" in out

    def test_fuzz_finds_shrinks_and_replay_reproduces(self, capsys, tmp_path):
        import broken_algorithms  # noqa: F401  (registers broken-first-ack)

        assert main(
            [
                "fuzz",
                "--algorithm",
                "broken-first-ack",
                "--seed-start",
                "48",
                "--seeds",
                "1",
                "--budget",
                "40",
                "--out",
                str(tmp_path),
            ]
        ) == 1
        out = capsys.readouterr().out
        assert "FAILURES" in out
        assert "shrunk 40 ->" in out
        counterexamples = sorted(tmp_path.glob("counterexample-*.json"))
        assert len(counterexamples) == 1

        assert main(["replay", str(counterexamples[0])]) == 0
        replay_out = capsys.readouterr().out
        assert "reproduced bit-identically" in replay_out
        assert "FAILURE:" in replay_out

    def test_replay_rejects_missing_argument(self):
        import pytest

        with pytest.raises(SystemExit, match="usage"):
            main(["replay"])


class TestShardCommands:
    def test_shard_campaign_runs_and_checks(self, capsys):
        assert main(
            ["load", "--shards", "2", "--depth", "1", "--seeds", "2",
             "--budget", "15"]
        ) == 0
        out = capsys.readouterr().out
        assert "K=2" in out
        assert "linearizable" in out
        assert "seed 0:" in out and "seed 1:" in out

    def test_load_routes_to_fabric_with_shards(self, capsys):
        assert main(
            ["load", "--shards", "2", "--clients", "4", "--depth", "1",
             "--budget", "15"]
        ) == 0
        out = capsys.readouterr().out
        assert "K=2" in out and "composed cuts" in out

    def test_chaos_routes_to_fabric_with_shards(self, capsys):
        assert main(["chaos", "--shards", "2", "--budget", "25"]) == 0
        out = capsys.readouterr().out
        assert "splits" in out and "OK" in out

    def test_shards_flag_validation(self):
        with pytest.raises(SystemExit, match=">= 1"):
            main(["load", "--shards", "0"])
        with pytest.raises(SystemExit, match="integer"):
            main(["load", "--shards", "two"])

    def test_sweep_with_shards_is_rejected(self):
        # Used to run a plain closed-loop campaign and exit 0.
        with pytest.raises(SystemExit, match="--sweep .* --shards"):
            main(["load", "--shards", "2", "--sweep"])


class TestBackendsJson:
    def test_backends_json_document(self, capsys):
        assert main(["backends", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["backends"]) == {"sim", "asyncio", "udp"}
        assert payload["backends"]["sim"]["simulated_time"] is True
        assert payload["backends"]["udp"]["real_sockets"] is True
        assert "simulated_time" in payload["notes"]

    def test_backends_rejects_unknown_args(self):
        with pytest.raises(SystemExit, match="unexpected"):
            main(["backends", "--bogus"])
