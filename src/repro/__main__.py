"""Command-line interface: ``python -m repro <command>``.

One :mod:`argparse` parser with a sub-parser per command: ``python -m
repro -h`` lists the commands, ``python -m repro <command> -h`` the
flags of one.  Every usage error exits with status 2 and argparse's
message on stderr.  A command imports the modules it drives only when it
runs, so ``-h`` and usage errors stay cheap.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Any, Callable, Sequence

from repro.backend import (
    CAPABILITY_NOTES,
    backend_capabilities,
    backend_class,
    backend_names,
)
from repro.core.cluster import ALGORITHMS
from repro.errors import ConfigurationError
from repro.obs.cli import clamp_jobs_for_capture, observe_cli


def _positive_int(text: str) -> int:
    """``type=`` for counts: an integer ``>= 1``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _library_type(module: str, name: str) -> Callable[[str], Any]:
    """``type=`` calling the library parser ``module.name``.

    The module is imported only when a value arrives, and the parser's
    :class:`ConfigurationError` becomes a usage error.
    """

    def convert(text: str) -> Any:
        parse = getattr(importlib.import_module(module), name)
        try:
            return parse(text)
        except ConfigurationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


# Parent parsers are built afresh for every command: argparse shares a
# parent's actions between its children, so one command's set_defaults
# (e.g. its --budget) would otherwise become every command's default.


def _parent() -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False, allow_abbrev=False)


def _seed_flags() -> argparse.ArgumentParser:
    parser = _parent()
    parser.add_argument(
        "--seeds", type=_positive_int, default=1, metavar="K",
        help="run K consecutive seeds (default 1)",
    )
    parser.add_argument(
        "--seed-start", type=int, default=0, metavar="S", help="first seed (default 0)"
    )
    return parser


def _campaign_flags() -> argparse.ArgumentParser:
    parser = _seed_flags()
    parser.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), metavar="NAME",
        help="snapshot algorithm (see the algorithms command)",
    )
    parser.add_argument(
        "--budget", type=_positive_int, metavar="N",
        help="per-seed work budget (default %(default)s)",
    )
    return parser


def _jobs_flag() -> argparse.ArgumentParser:
    parser = _parent()
    parser.add_argument(
        "--jobs", "-j", type=_positive_int, default=1, metavar="N",
        help="fan independent cells out across N worker processes; output is "
        "byte-identical to --jobs 1",
    )
    return parser


def _backend_flag() -> argparse.ArgumentParser:
    parser = _parent()
    parser.add_argument(
        "--backend", choices=backend_names(),
        help="runtime: the deterministic simulator, a wall-clock asyncio loop, "
        "or UDP sockets on loopback (docs/runtimes.md)",
    )
    return parser


def _obs_flags() -> argparse.ArgumentParser:
    parser = _parent()
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="write a Chrome trace of every cluster the run builds (open at "
        "https://ui.perfetto.dev); forces --jobs 1",
    )
    parser.add_argument(
        "--jsonl-out", metavar="FILE",
        help="write the same session as a JSON-lines event stream; forces --jobs 1",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print the per-operation, blame and metric tables",
    )
    return parser


def _seed_list(args: argparse.Namespace) -> list[int]:
    return list(range(args.seed_start, args.seed_start + args.seeds))


def _print_reports(seeds: Sequence[int], reports: Sequence[Any]) -> bool:
    """Print a campaign's reports uniformly; returns overall success.

    One summary line per report (seed-prefixed when more than one seed
    ran) and a ``FAILURE:`` line per violation.
    """
    ok = True
    for seed, report in zip(seeds, reports):
        summary = report.summary()
        if len(seeds) > 1 and not summary.startswith(f"seed {seed}:"):
            summary = f"seed {seed}: {summary}"
        print(summary)
        for failure in report.failures:
            print("FAILURE:", failure)
        ok = ok and report.ok
    return ok


def _run_campaign(
    args: argparse.Namespace, run: Callable[..., Sequence[Any]], **kwargs: Any
) -> int:
    """Run ``run(seeds, budget=…, backend=…, **kwargs)`` observed; report."""
    seeds = _seed_list(args)
    with observe_cli(args):
        reports = run(seeds, budget=args.budget, backend=args.backend, **kwargs)
        ok = _print_reports(seeds, reports)
    return 0 if ok else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.harness.experiments import BACKEND_AWARE, EXPERIMENTS
    from repro.harness.parallel import experiment_cells, run_cells
    from repro.harness.report import print_table

    selected = [eid.lower() for eid in args.ids] or sorted(EXPERIMENTS)
    unknown = [eid for eid in selected if eid not in EXPERIMENTS]
    if unknown:
        args.error(
            f"unknown experiment ids {unknown}; choose from "
            f"{sorted(EXPERIMENTS)}"
        )
    common = None
    if args.backend is not None:
        if not args.ids:
            selected = sorted(BACKEND_AWARE)
        sim_only = [eid for eid in selected if eid not in BACKEND_AWARE]
        if sim_only:
            args.error(
                f"--backend applies only to {sorted(BACKEND_AWARE)}; "
                f"{sim_only} measure simulator-only quantities"
            )
        if args.backend != "sim" and args.jobs > 1:
            backend_capabilities(args.backend).require(
                "process_fanout", f"--jobs {args.jobs}"
            )
        common = {"backend": args.backend}
    seeds = _seed_list(args)
    jobs = clamp_jobs_for_capture(args)
    with observe_cli(args):
        cells = experiment_cells(
            selected, seeds=seeds if len(seeds) > 1 else None, common=common
        )
        for cell, rows in zip(cells, run_cells(cells, jobs=jobs)):
            title = EXPERIMENTS[cell.name][0]
            kwargs = dict(cell.kwargs)
            if "seed" in kwargs:
                title = f"{title} [seed {kwargs['seed']}]"
            print_table(rows, title=title)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.harness.figures import FIGURES, render_figure

    names = args.names or list(FIGURES)
    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        args.error(f"unknown figures {unknown}; choose from {list(FIGURES)}")
    for name in names:
        print(render_figure(name))
        print()
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    from repro.harness.ablations import ABLATIONS, run_ablations
    from repro.harness.report import print_table

    names = [name.lower() for name in args.ids] or sorted(ABLATIONS)
    unknown = [name for name in names if name not in ABLATIONS]
    if unknown:
        args.error(
            f"unknown ablations {unknown}; choose from {sorted(ABLATIONS)}"
        )
    seeds = args.seeds if args.seeds > 1 else None
    jobs = clamp_jobs_for_capture(args)
    with observe_cli(args):
        for name, rows in zip(
            names, run_ablations(names, jobs=jobs, seeds=seeds)
        ):
            print_table(rows, title=ABLATIONS[name][0])
    return 0


def _cmd_algorithms(_args: argparse.Namespace) -> int:
    for name, cls in sorted(ALGORITHMS.items()):
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"{name:24s} {cls.__name__:36s} {doc}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.explorer import (
        STANDARD_SCENARIO,
        explore_consensus_decision,
        explore_snapshot_scenario,
        run_verify_campaigns,
    )

    if args.algorithm is not None:
        algorithms = [args.algorithm]
    else:
        algorithms = ["ss-nonblocking", "ss-always"]
    backend = args.backend
    if backend != "sim":
        print(
            f"note: schedule-exploring DFS pass is sim-only; on "
            f"{backend!r} each seed drives a live concurrent workload "
            f"and checks its history for linearizability",
            file=sys.stderr,
        )
    seeds = _seed_list(args)
    jobs = clamp_jobs_for_capture(args)
    ok = True
    with observe_cli(args):
        for algorithm in algorithms:
            if backend == "sim":
                dfs = explore_snapshot_scenario(
                    algorithm,
                    list(STANDARD_SCENARIO),
                    n=3,
                    delta=0,
                    max_runs=args.budget,
                    max_depth=20,
                    strategy="dfs",
                )
                print(f"{algorithm:20s} [dfs        ] {dfs.summary()}")
                ok = ok and dfs.ok
            results = run_verify_campaigns(
                seeds,
                jobs=jobs,
                algorithm=algorithm,
                budget=args.budget,
                backend=backend,
            )
            for seed, result in zip(seeds, results):
                label = (
                    "random-walk" if backend == "sim" else "live"
                )
                if len(seeds) > 1:
                    label = f"{'walk' if backend == 'sim' else 'live'} s={seed}"
                print(f"{algorithm:20s} [{label:11s}] {result.summary()}")
                for failure in result.failures:
                    print("FAILURE:", failure)
                ok = ok and result.ok
        if backend == "sim":
            for strategy in ("dfs", "random-walk"):
                result = explore_consensus_decision(
                    n=3,
                    max_runs=args.budget,
                    max_depth=20,
                    strategy=strategy,
                )
                print(f"{'consensus':20s} [{strategy:11s}] {result.summary()}")
                for failure in result.failures:
                    print("FAILURE:", failure)
                ok = ok and result.ok
    return 0 if ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import run_fuzz_campaign

    return _run_campaign(
        args,
        run_fuzz_campaign,
        jobs=clamp_jobs_for_capture(args),
        algorithm=args.algorithm,
        out_dir=args.out,
        shrink=args.shrink,
        shards=args.shards or 0,
    )


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.fuzz import replay_counterexample

    with observe_cli(args):
        result = replay_counterexample(args.file, backend=args.backend)
        print(result.summary())
        for failure in result.outcome.failures:
            print("FAILURE:", failure)
    return 0 if result.ok else 1


def _cmd_latency(args: argparse.Namespace) -> int:
    from repro.harness.latency import run_latency_campaigns

    return _run_campaign(
        args,
        run_latency_campaigns,
        jobs=clamp_jobs_for_capture(args),
        algorithm=args.algorithm,
    )


def _cmd_load(args: argparse.Namespace) -> int:
    from repro.load import LoadSpec, run_load_campaigns, sweep_rates

    if args.sweep:
        clash = [
            flag
            for flag, given in (
                ("--shards", args.shards is not None),
                ("--rate", args.rate is not None),
                ("--clients", args.clients is not None),
                ("--depth", args.depth is not None),
                ("--jobs", args.jobs > 1),
                ("--seeds", args.seeds > 1),
            )
            if given
        ]
        if clash:
            args.error(
                f"--sweep does not combine with {', '.join(clash)} (it "
                "ladders its own open-loop rates on one cluster at one "
                "seed; the K ladder is `experiments e19`)"
            )
        with observe_cli(args):
            result = sweep_rates(
                backend=args.backend,
                algorithm=args.algorithm,
                n=args.n,
                duration=float(args.budget),
                write_fraction=args.write_fraction,
                skew=args.skew,
                seed=args.seed_start,
                batch=args.batch,
            )
            print(result.summary())
            for failure in result.failures:
                print("FAILURE:", failure)
        return 0 if result.ok else 1
    spec = LoadSpec(
        mode="open" if args.rate is not None else "closed",
        clients=args.clients or 8,
        depth=args.depth or 4,
        rate=args.rate,
        write_fraction=args.write_fraction,
        skew=args.skew,
    )
    return _run_campaign(
        args,
        run_load_campaigns,
        jobs=clamp_jobs_for_capture(args),
        algorithm=args.algorithm,
        spec=spec,
        n=args.n,
        batch=args.batch,
        shards=args.shards,
    )


def _cmd_top(args: argparse.Namespace) -> int:
    if args.refresh <= 0:
        args.error(f"--refresh must be positive, got {args.refresh}")
    simulated = backend_class(args.backend).capabilities.simulated_time
    if args.metrics_port is not None and simulated:
        args.error(
            "--metrics-port needs a live backend (asyncio or udp): the "
            "simulator has no event loop to serve scrapes from"
        )
    from repro.obs.top import run_top

    return run_top(args)


def _cmd_backends(args: argparse.Namespace) -> int:
    names = backend_names()
    if args.json:
        import json

        payload = {
            "backends": {
                name: backend_capabilities(name).describe() for name in names
            },
            "notes": dict(CAPABILITY_NOTES),
        }
        print(json.dumps(payload, indent=2))
        return 0
    width = max(len(c) for c in CAPABILITY_NOTES)
    header = "capability".ljust(width) + "".join(
        f"  {name:>7s}" for name in names
    )
    print(header)
    print("-" * len(header))
    flags = {name: backend_capabilities(name).describe() for name in names}
    for capability in CAPABILITY_NOTES:
        row = capability.ljust(width)
        for name in names:
            mark = "yes" if flags[name][capability] else "-"
            row += f"  {mark:>7s}"
        print(row + f"  ({CAPABILITY_NOTES[capability]})")
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro import ClusterConfig, SimBackend
    from repro.analysis.invariants import definition1_consistent
    from repro.fault import TransientFaultInjector

    cluster = SimBackend("ss-always", ClusterConfig(n=5, delta=2))
    cluster.write_sync(0, b"hello")
    cluster.write_sync(1, b"world")
    print("snapshot:", cluster.snapshot_sync(2).values)
    print("injecting arbitrary state corruption everywhere…")
    TransientFaultInjector(cluster, seed=1).scramble_everything()
    cluster.tracker.reset()
    cluster.run_until(cluster.tracker.wait_cycles(6), max_events=None)
    print("consistent after 6 cycles:", definition1_consistent(cluster).ok)
    cluster.write_sync(0, b"recovered")
    print("post-recovery snapshot:", cluster.snapshot_sync(3).values)
    return 0


_CAMPAIGN = (_campaign_flags, _jobs_flag, _backend_flag, _obs_flags)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` parser: one sub-parser per command.

    Parsing validates every flag; each command's namespace carries its
    handler as ``run`` and its sub-parser's ``error`` for the checks
    only the handler can make (ids, flag combinations).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        allow_abbrev=False,
        epilog="The campaign commands (verify, fuzz, latency, load) share "
        "--seeds/--seed-start/--algorithm/--budget, print a summary line per seed "
        "plus a FAILURE: line per violation, and exit 1 when any seed failed.  "
        "Off the simulator, sim-only capabilities (schedule exploration, fuzz "
        "shrinking) degrade with a note; asking for one outright (e.g. --jobs 2 "
        "on a live backend) raises a ConfigurationError naming it.",
    )
    commands = parser.add_subparsers(
        dest="command", title="commands", metavar="COMMAND"
    )

    def command(name, run, summary, details="", parents=(), **defaults):
        sub = commands.add_parser(
            name,
            help=summary,
            description=f"{summary[:1].upper()}{summary[1:]}. {details}".strip(),
            parents=[make() for make in parents],
            allow_abbrev=False,
        )
        sub.set_defaults(run=run, error=sub.error, **defaults)
        return sub

    sub = command(
        "experiments", _cmd_experiments,
        "run the reproduction experiments and print their tables",
        "IDs are case-insensitive and default to all of E1-E20; with --seeds K "
        "each runs at K consecutive seeds.  --backend runs the backend-aware "
        "experiments (E16-E19) on that runtime.",
        (_seed_flags, _jobs_flag, _backend_flag, _obs_flags),
    )
    sub.add_argument("ids", nargs="*", metavar="ID", help="e.g. e01 e07")

    sub = command(
        "figures", _cmd_figures,
        "render the paper's Figures 1-3 as ASCII space-time diagrams",
    )
    sub.add_argument(
        "names", nargs="*", metavar="NAME",
        help="fig1-upper, fig1-lower, fig2, fig3-upper or fig3-lower (default: all)",
    )

    sub = command(
        "ablations", _cmd_ablations,
        "run the ablation studies (A1-A5 by default)",
        "Seed robustness, gossip interval, loss retransmission and delta-latency "
        "distributions.",
        (_jobs_flag, _obs_flags),
    )
    sub.add_argument("ids", nargs="*", metavar="ID", help="e.g. a1 a4")
    sub.add_argument(
        "--seeds", type=_positive_int, default=1, metavar="K",
        help="widen each study's per-cell seed sweep to K seeds",
    )

    command("algorithms", _cmd_algorithms, "list the registered snapshot algorithms")

    command(
        "verify", _cmd_verify,
        "model-check the standard concurrent write/snapshot scenario",
        "One DFS pass plus one seeded random walk per seed, checking every "
        "schedule's history for linearizability (off the simulator each seed "
        "drives a live workload instead); --budget bounds runs per exploration.  "
        "Without --algorithm it checks ss-nonblocking and ss-always.",
        _CAMPAIGN, budget=200, backend="sim",
    )

    sub = command(
        "fuzz", _cmd_fuzz,
        "counterexample-driven fuzzing",
        "Each seed draws a scenario spec (config dimensions and an event program) "
        "and runs it with per-phase checks; a failure is shrunk to a minimal "
        "deterministic counterexample.  --budget is events per spec.  --shards K "
        "draws fabric storms instead: keyed operations, composed cuts and "
        "crashes around one shard split and one reconfiguration (docs/sharding.md).",
        _CAMPAIGN, budget=40, algorithm="ss-always", backend="sim",
    )
    sub.add_argument(
        "--shards", type=_positive_int, metavar="K", help="fuzz K-shard fabrics"
    )
    sub.add_argument("--out", metavar="DIR", help="write counterexample files here")
    sub.add_argument(
        "--no-shrink", dest="shrink", action="store_false",
        help="record failures unminimized",
    )

    sub = command(
        "replay", _cmd_replay,
        "re-run a fuzz counterexample",
        "Exits 0 exactly when it reproduces the recorded violation "
        "bit-identically; --backend overrides where the spec re-runs (live "
        "replays check the violation, not the fingerprint).",
        (_backend_flag, _obs_flags),
    )
    sub.add_argument("file", metavar="FILE")

    command(
        "latency", _cmd_latency,
        "median per-operation latency and messages per operation",
        "--budget is operations per kind; with --backend udp the same probe runs "
        "over real sockets.",
        _CAMPAIGN, budget=16, algorithm="ss-nonblocking", backend="sim",
    )

    sub = command(
        "load", _cmd_load,
        "saturation load: throughput, latency quantiles and a linearizability "
        "verdict per seed",
        "Closed-loop clients or open-loop arrivals (docs/benchmarking.md); "
        "--budget (alias --duration) is the submission window in simulated time "
        "units.  --shards K drives a K-shard fabric (docs/sharding.md): keyed "
        "operations, composed cuts taken mid-run, and both layers checked.",
        _CAMPAIGN, budget=60, algorithm="ss-nonblocking", backend="sim",
    )
    sub.add_argument(
        "--duration", dest="budget", type=_positive_int, default=argparse.SUPPRESS,
        metavar="N", help="alias of --budget",
    )
    sub.add_argument("--shards", type=_positive_int, metavar="K")
    sub.add_argument(
        "--batch", type=_positive_int, metavar="N",
        help="coalesce up to N messages per channel into one wire bundle",
    )
    sub.add_argument(
        "--clients", type=_positive_int, metavar="N",
        help="closed-loop clients (default 8)",
    )
    sub.add_argument(
        "--depth", type=_positive_int, metavar="K",
        help="operations each closed-loop client keeps in flight (default 4)",
    )
    sub.add_argument(
        "--rate", type=float, metavar="R", help="open-loop arrivals per time unit"
    )
    sub.add_argument(
        "--mix", dest="write_fraction", default=0.8, metavar="W:S",
        type=_library_type("repro.load", "parse_mix"),
        help="writers:scanners ratio (default 8:2)",
    )
    sub.add_argument(
        "--skew", type=float, default=0.0, metavar="X",
        help="concentrate traffic on low node ids (hot keys with --shards)",
    )
    sub.add_argument("--n", type=int, default=4, help="cluster size (default 4)")
    sub.add_argument(
        "--sweep", action="store_true",
        help="ladder the offered rate on one cluster to locate the saturation knee",
    )

    sub = command(
        "top", _cmd_top,
        "live health dashboard: node health, blame table, alerts",
        "Drives a closed-loop workload and refreshes the frame while it runs "
        "(docs/observability.md).",
        (_backend_flag,), backend="sim",
    )
    sub.add_argument("--n", type=int, default=5, help="cluster size (default 5)")
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="ss-nonblocking",
        metavar="NAME",
    )
    sub.add_argument(
        "--budget", type=float, default=60.0, metavar="T", help="run length"
    )
    sub.add_argument(
        "--refresh", type=float, default=10.0, metavar="R",
        help="frame interval (simulated time units on sim)",
    )
    sub.add_argument("--clients", type=int, default=4)
    sub.add_argument(
        "--throttle", dest="throttles", action="append", default=[],
        type=_library_type("repro.obs.top", "parse_throttle"), metavar="NODE:FACTOR",
        help="make a node limp for the gray-failure detector (repeatable)",
    )
    sub.add_argument(
        "--metrics-port", type=int, metavar="P",
        help="serve Prometheus text at /metrics (live backends only)",
    )
    sub.add_argument("--plain", action="store_true", help="never clear the screen")

    sub = command("backends", _cmd_backends, "print the backend capability matrix")
    sub.add_argument("--json", action="store_true", help="as a JSON document")

    command("demo", _cmd_demo, "tiny end-to-end write/snapshot/corrupt/recover demo")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one ``python -m repro`` command; returns its exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
