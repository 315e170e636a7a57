"""``python3 -m ledger`` — run the perf ledger.

::

    python3 -m ledger [--workload W]... [--seed S] [--seconds N]
                      [--trace 0|1 | --traced] [--scale X] [--out FILE]

Prints every metric by name with unit and direction, checks every
recorded history, and exits non-zero on any violation.  With exactly one
``--workload`` the last line of standard output is the result object the
PR driver reads (``correct`` / ``attempted`` / ``failed`` / ``metrics``).
"""

import argparse
import json
import sys


def _parse(argv: list[str] | None) -> argparse.Namespace:
    from ledger.catalog import RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(prog="python3 -m ledger", description=__doc__)
    parser.add_argument("--workload", action="append", choices=[w.name for w in WORKLOADS],
                        help="workload to run (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=1,
                        help="cluster seed S; the workload RNG uses S+1000")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="wall-clock seconds to fill with timed repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced pass: per-layer metrics only")
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's operation count")
    parser.add_argument("--out", help="write the full record as JSON to this file")
    return parser.parse_args(argv)


def _format(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _print_block(name: str, metrics: dict, samples: dict) -> None:
    print(f"\n== {name}  samples: " + ", ".join(f"{k}={v}" for k, v in samples.items()))
    for metric, entry in metrics.items():
        arrow = "^" if entry["better"] == "higher" else "v"
        line = f"  {metric:38} {_format(entry['value']):>12} {entry['unit']:6} {arrow}"
        if entry["value"] is None:
            line += f"  ({entry['reason']})"
        elif "runs" in entry and len(set(entry["runs"])) > 1:
            line += "  runs: " + " ".join(_format(v) for v in entry["runs"])
        print(line)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    import ledger

    ledger.bootstrap()
    try:
        from ledger import run
    except ImportError as exc:
        print(f"ledger: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    from ledger.catalog import WORKLOADS, workload

    selected = [workload(name) for name in args.workload] if args.workload else WORKLOADS
    record = {
        "schema": run.SCHEMA,
        "host": run.host_block(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "workloads": {},
    }
    correct = True
    line = None
    for w in selected:
        if args.trace:
            block = run.trace(w, args.seed, args.scale)
            _print_block(w.name, block["per_layer"], block["samples"])
            for phase, info in block["phases"].items():
                shares = ", ".join(
                    f"{layer} {self_s / info['root_s']:.1%}"
                    for layer, self_s in sorted(
                        info["layer_self_s"].items(), key=lambda kv: -kv[1]
                    )
                )
                print(f"  layer self-time shares of the traced {phase} wall "
                      f"({info['root_s']:.3f} s): {shares}")
            metrics = run.driver_per_layer(block)
        else:
            block = run.measure(w, args.seed, args.seconds, args.scale)
            _print_block(w.name, block["end_to_end"], block["samples"])
            if block["digest"]:
                print(f"  digest {block['digest']}")
            metrics = run.driver_metrics(block)
        for message in block["violation_messages"]:
            print(f"  VIOLATION: {message}")
        ok = not block["violation_messages"]
        correct = correct and ok
        record["workloads"][w.name] = block
        line = {
            "correct": ok,
            "attempted": block["totals"]["attempted"],
            "failed": block["totals"]["failed"],
            "metrics": metrics,
        }
    record["bench_pr1_continuity"] = run.continuity(record["workloads"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    sys.stdout.flush()
    if len(selected) == 1:
        print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
