"""Tests for the ``python -m repro`` command-line interface."""

import dataclasses
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from check_trace_schema import validate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

_SEEDS = "--seeds --seed-start"
_OBS = "--trace-out --jsonl-out --stats"
_CAMPAIGN = f"{_SEEDS} --algorithm --budget --jobs --backend {_OBS}"

#: Every command and exactly the long flags it accepts (``-j`` is the
#: short spelling of ``--jobs``; ``-h`` goes without saying).
COMMAND_FLAGS = {
    "experiments": f"{_SEEDS} --jobs --backend {_OBS}",
    "figures": "",
    "ablations": f"--jobs {_OBS} --seeds",
    "algorithms": "",
    "verify": _CAMPAIGN,
    "fuzz": f"{_CAMPAIGN} --shards --out --no-shrink",
    "replay": f"--backend {_OBS}",
    "latency": _CAMPAIGN,
    "load": f"{_CAMPAIGN} --duration --shards --batch --clients --depth "
    "--rate --mix --skew --n --sweep",
    "top": "--backend --n --seed --algorithm --budget --refresh --clients "
    "--throttle --metrics-port --plain",
    "backends": "--json",
    "demo": "",
}


_COMMAND_LINE = r"python3?\s+-m\s+repro\b"


def _documented_command_lines():
    """Every ``python -m repro …`` line in the docs, CI and examples."""
    sources = [
        ROOT / "README.md",
        ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md")),
        *sorted((ROOT / "examples").glob("*.py")),
        ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
        ROOT / ".github" / "workflows" / "ci.yml",
    ]
    for path in sources:
        text = path.read_text().replace("\\\n", " ")
        # Inline code may wrap onto the next line: take it whole first.
        inline = re.findall(rf"`{_COMMAND_LINE}([^`]*)`", text)
        text = re.sub(rf"`{_COMMAND_LINE}[^`]*`", "", text)
        # Elsewhere a command ends at a comment, a table cell or a
        # shell redirection.
        lines = re.findall(rf"{_COMMAND_LINE}([^\n`#|>]*)", text)
        for rest in inline + lines:
            argv = shlex.split(rest)
            yield pytest.param(argv, id=f"{path.name}: {' '.join(argv)}")


class TestCli:
    def test_help(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert all(command in out for command in COMMAND_FLAGS)

    def test_help_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "figures" in capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_command_help_prints_its_usage_section(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        usage = out.split("\n\n")[0]
        assert usage.startswith(f"usage: python -m repro {command} [-h]")
        flags = COMMAND_FLAGS[command].split()
        assert sorted(re.findall(r"\[(--[\w-]+)", usage)) == sorted(flags)
        assert all(flag in out for flag in flags)
        assert ("--jobs N, -j N" in out) == ("--jobs" in flags)

    def test_unknown_command(self, usage_error):
        # "shard" was a command once; `load --shards K` is the same run.
        # So was "chaos"; `fuzz [--shards K] --no-shrink` is.
        for command in ("frobnicate", "shard", "chaos"):
            assert f"invalid choice: '{command}'" in usage_error([command])

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["experiments", "e01", "--algorithm", "amortized"], "--algorithm"),
            (["ablations", "a1", "--budget", "3"], "--budget"),
            (["load", "--sweep", "--jobs", "3"], "--jobs"),
            (["load", "--sweep", "--rate", "1"], "--rate"),
        ],
    )
    def test_flag_the_command_does_not_read_is_rejected(
        self, usage_error, argv, flag
    ):
        assert flag in usage_error(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["load", "--clients", "two"],
            ["top", "--n", "x"],
            ["fuzz", "--jobs", "x"],
            ["load", "--rate"],
            ["load", "--mix", "8-2"],
            ["top", "--throttle", "3"],
        ],
    )
    def test_malformed_value_is_a_usage_error(self, usage_error, argv):
        assert f"argument {argv[1]}" in usage_error(argv)

    @pytest.mark.parametrize("argv", list(_documented_command_lines()))
    def test_documented_command_line_parses(self, argv):
        # docs/verification.md's worked example fuzzes the planted engine.
        import broken_algorithms  # noqa: F401

        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exit_info:  # a documented --help
            assert exit_info.code == 0
            return
        assert args.command is None or args.command in COMMAND_FLAGS

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

    def test_experiments_failed_gate_exits_1(self, capsys, monkeypatch):
        from repro.harness.experiments import EXPERIMENTS

        entry = dataclasses.replace(EXPERIMENTS["e01"], gate=lambda rows: ["planted"])
        monkeypatch.setitem(EXPERIMENTS, "e01", entry)
        assert main(["experiments", "e01"]) == 1
        assert "GATE e01: planted" in capsys.readouterr().out

    def test_experiments_unknown_id(self, usage_error):
        assert "e99" in usage_error(["experiments", "e99"])

    def test_experiments_ids_are_case_insensitive(self, capsys):
        assert main(["experiments", "E01"]) == 0
        assert "E1" in capsys.readouterr().out

    def test_ablation_ids_are_case_insensitive(self, capsys):
        assert main(["ablations", "A3"]) == 0
        assert "A3 — retransmission inflation" in capsys.readouterr().out

    def test_figures_single(self, capsys):
        assert main(["figures", "fig1-upper"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1 (upper)" in out
        assert "WRITE" in out

    def test_figures_unknown(self, usage_error):
        assert "fig99" in usage_error(["figures", "fig99"])

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

    def test_trace_out_requires_a_path(self, usage_error):
        err = usage_error(["experiments", "e01", "--trace-out"])
        assert "argument --trace-out: expected one argument" in err

    def test_fuzz_accepts_stats(self, capsys):
        assert main(["fuzz", "--budget", "40", "--stats"]) == 0
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

    def test_verify_positional_algorithm_removed(self, usage_error):
        err = usage_error(["verify", "dgfr-nonblocking", "--budget", "50"])
        assert "unrecognized arguments: dgfr-nonblocking" in err

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
    """The campaign commands share one flag/report vocabulary."""

    def test_fuzz_unified_flags(self, capsys):
        assert main(
            ["fuzz", "--budget", "30", "--seeds", "2", "--jobs", "2"]
        ) == 0
        captured = capsys.readouterr()
        assert "seed 0:" in captured.out
        assert "seed 1:" in captured.out
        assert captured.err == ""

    def test_chaos_positional_spelling_removed(self, usage_error):
        # `chaos 30 1` went with the command; fuzz takes no positionals.
        err = usage_error(["fuzz", "30", "1"])
        assert "unrecognized arguments: 30 1" in err

    def test_events_flag_removed_names_budget(self, usage_error):
        err = usage_error(["fuzz", "--events", "30"])
        assert "unrecognized arguments: --events 30" in err

    def test_algo_flag_removed_names_algorithm(self, usage_error):
        # No prefix matching: --algo is not taken to mean --algorithm.
        err = usage_error(
            ["fuzz", "--budget", "30", "--algo", "ss-nonblocking"]
        )
        assert "unrecognized arguments: --algo ss-nonblocking" in err

    def test_seed_start_offsets_the_seed_range(self, capsys):
        assert main(
            ["fuzz", "--budget", "30", "--seeds", "2", "--seed-start", "5"]
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

    def test_replay_rejects_missing_argument(self, usage_error):
        err = usage_error(["replay"])
        assert "the following arguments are required: FILE" in err


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

    def test_fuzz_routes_to_fabric_with_shards(self, capsys):
        assert main(["fuzz", "--shards", "2", "--budget", "25"]) == 0
        assert "seed 0: 25 events on 2 shards: OK" in capsys.readouterr().out

    def test_fuzz_shards_jobs_output_is_byte_identical(self, capsys):
        outputs = []
        for jobs in ("1", "2"):
            assert main(
                ["fuzz", "--shards", "2", "--seeds", "4", "--jobs", jobs]
            ) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.count("on 2 shards: OK") == 4

    def test_shards_flag_validation(self, usage_error):
        assert ">= 1" in usage_error(["load", "--shards", "0"])
        assert "integer" in usage_error(["load", "--shards", "two"])

    def test_sweep_with_shards_is_rejected(self, usage_error):
        # Used to run a plain closed-loop campaign and exit 0.
        err = usage_error(["load", "--shards", "2", "--sweep"])
        assert re.search("--sweep .* --shards", err)


class TestBackendsJson:
    def test_backends_json_document(self, capsys):
        assert main(["backends", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["backends"]) == {"sim", "asyncio", "udp"}
        assert payload["backends"]["sim"]["simulated_time"] is True
        assert payload["backends"]["udp"]["real_sockets"] is True
        assert "simulated_time" in payload["notes"]

    def test_backends_rejects_unknown_args(self, usage_error):
        err = usage_error(["backends", "--bogus"])
        assert "unrecognized arguments: --bogus" in err
