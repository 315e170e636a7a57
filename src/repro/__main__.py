"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments [ids…]``
    Run the reproduction experiments (all of E1–E20 by default) and
    print their tables.  ``--seeds K`` re-runs each selected experiment
    at K consecutive seeds.  ``--backend {sim,asyncio,udp}`` runs the
    backend-aware experiments (E16–E19) on a chosen runtime.
``figures [names…]``
    Render the paper's Figures 1–3 as ASCII space-time diagrams
    (all by default; names: fig1-upper, fig1-lower, fig2, fig3-upper,
    fig3-lower).
``ablations [ids…]``
    Run the ablation studies (A1–A5 by default): seed-robustness,
    gossip-interval, loss-retransmission, and δ-latency distributions.
    ``--seeds K`` widens each study's per-cell seed sweep to K seeds.
``algorithms``
    List the registered snapshot-object algorithms.

Campaign commands — ``verify``, ``chaos``, ``fuzz``, and ``latency``
share one flag vocabulary (``--seeds K``, ``--seed-start S``,
``--algorithm NAME``, ``--budget N``, ``--jobs N``, ``--backend
{sim,asyncio,udp}``) and one report format (a summary line per seed
plus a ``FAILURE:`` line per violation; exit status 1 when any seed
failed).  ``--backend`` selects the runtime every campaign cluster runs
on: the deterministic simulator (default), a wall-clock asyncio event
loop, or real UDP sockets on loopback (see ``docs/runtimes.md``).
Sim-only capabilities degrade with a clear message — schedule
exploration and fuzz shrinking stay on ``sim``; asking for a sim-only
capability outright (e.g. ``--jobs 2`` on a live backend) raises a
``ConfigurationError`` naming it:

``verify``
    Model-check the standard concurrent write/snapshot scenario: one
    exhaustive-ish DFS pass plus one seeded random-walk exploration per
    seed, checking every schedule's history for linearizability.
    ``--budget`` bounds runs per exploration (default 200).
``chaos``
    Randomized fault campaigns: operations, crashes, partitions, and
    corruption bursts with continuous linearizability and invariant
    checking.  ``--budget`` is events per campaign (default 150).
``fuzz``
    Counterexample-driven fuzzing: each seed draws a full scenario spec
    (config dimensions + event program), executes it with per-phase
    checks, and every failure is automatically shrunk — ddmin over
    events, config minimization, schedule pinning — to a minimal
    deterministic counterexample.  ``--budget`` is events per generated
    spec (default 40); ``--out DIR`` writes counterexample JSON files;
    ``--no-shrink`` records failures unminimized.
``replay FILE``
    Re-execute a counterexample file written by ``fuzz`` and verify it
    reproduces the recorded violation bit-identically (exit 0 exactly
    when it does).  ``--backend NAME`` overrides where the spec re-runs
    (live replays check violation reproduction, not fingerprints).
``latency``
    Measure median per-operation write/snapshot latency and messages
    per operation.  With ``--backend udp`` the same probe runs over
    real sockets, which is how EXPERIMENTS.md's sim-vs-UDP comparison
    is produced.
``load``
    Saturation load generation (see ``docs/benchmarking.md``): drive
    concurrent multi-writer/multi-scanner clients against a deployment
    and report throughput, p50/p95/p99 latency, and a linearizability
    verdict per seed.  ``--clients N`` / ``--depth K`` size the
    closed-loop client pool and its pipeline depth; ``--rate R``
    switches to open-loop arrivals at R ops per time unit; ``--mix W:S``
    sets the writers:scanners ratio and ``--skew X`` concentrates
    traffic on low node ids; ``--n N`` sizes the cluster and
    ``--budget`` (alias ``--duration``) is the submission window in
    simulated time units.  ``--sweep`` ladders the offered rate to
    locate the saturation knee and prints the table.  ``--batch N``
    coalesces up to N messages per channel into one wire bundle
    (``ChannelConfig.batch_window``; works with every mode and
    backend).  ``--shards K`` points the same driver at a K-shard
    fabric (see ``docs/sharding.md``): operations target keys behind
    the consistent-hash router (``--skew X`` becomes Zipf key
    popularity, i.e. hot shards), composed cross-shard snapshots are
    taken mid-run, and every per-shard history *and* the composed cuts
    are checked for linearizability.  ``--sweep`` does not combine with
    ``--shards`` (the rate ladder is sized for one cluster; the K
    ladder is ``experiments e19``).  ``chaos --shards K`` likewise runs
    the sharded chaos storm: crashes, online shard splits with live key
    migration, and composed cuts under fire.

``top``
    Live terminal health dashboard: drive a closed-loop workload and
    refresh per-node health states, the blame table (slowest quorum
    responders), and active alerts while it runs (see
    ``docs/observability.md``).  ``--throttle NODE:FACTOR`` makes a
    node limp so the gray-failure detector has something to catch;
    ``--refresh R`` sets the frame interval (simulated time units on
    ``sim``); ``--metrics-port P`` (live backends) serves the registry
    as Prometheus text exposition at ``/metrics`` for the run.
``backends``
    Print the backend capability matrix (which features each of
    ``sim``/``asyncio``/``udp`` provides); ``--json`` emits it as a
    machine-readable document.
``demo``
    Run a tiny end-to-end demo (write/snapshot/corrupt/recover).

``experiments``, ``ablations``, and the campaign commands accept
``--jobs N`` to fan their independent cells out across N worker
processes; results merge deterministically, so parallel output is
byte-identical to serial.

The same commands accept the observability flags (see
``docs/observability.md``):

``--trace-out FILE``
    Capture every cluster the run constructs — operation spans, message
    flow arrows, one track per node — and write a Chrome ``trace_event``
    JSON file viewable at https://ui.perfetto.dev.
``--jsonl-out FILE``
    Write the same session as a JSON-lines event stream (spans, messages,
    metrics) for ad-hoc analysis.
``--stats``
    Print a terminal summary: per-operation table (counts, latency,
    retransmits, messages), the per-node blame table (slowest quorum
    responders), and the full metric catalog including per-node health
    gauges.

Span capture runs in-process, so ``--trace-out``/``--jsonl-out`` force
``--jobs 1``; ``--stats`` merges worker aggregates deterministically and
composes with any ``--jobs N``.  Tracing never perturbs seeded
schedules — results are identical with or without.
"""

from __future__ import annotations

import sys

from repro.core.cluster import ALGORITHMS


def _cmd_experiments(args: list[str]) -> int:
    from repro.harness.experiments import main as run_experiments

    return run_experiments(args)


def _extract_shards(argv: list[str]) -> tuple[int | None, list[str]]:
    """Split ``--shards K`` out of an argv list (None when absent)."""
    shards: int | None = None
    rest: list[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--shards" or arg.startswith("--shards="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if value is None:
                raise SystemExit("--shards requires a value")
            try:
                shards = int(value)
            except ValueError:
                raise SystemExit(f"--shards must be an integer, got {value!r}")
            if shards < 1:
                raise SystemExit(f"--shards must be >= 1, got {shards}")
        else:
            rest.append(arg)
    return shards, rest


def _extract_batch(argv: list[str]) -> tuple[int | None, list[str]]:
    """Split ``--batch N`` out of an argv list (None when absent)."""
    batch: int | None = None
    rest: list[str] = []
    it = iter(argv)
    for arg in it:
        if arg == "--batch" or arg.startswith("--batch="):
            value = arg.split("=", 1)[1] if "=" in arg else next(it, None)
            if value is None:
                raise SystemExit("--batch requires a value")
            try:
                batch = int(value)
            except ValueError:
                raise SystemExit(f"--batch must be an integer, got {value!r}")
            if batch < 1:
                raise SystemExit(f"--batch must be >= 1, got {batch}")
        else:
            rest.append(arg)
    return batch, rest


def _cmd_figures(args: list[str]) -> int:
    from repro.harness.figures import FIGURES, render_figure

    names = args or list(FIGURES)
    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        print(f"unknown figures: {unknown}; available: {list(FIGURES)}")
        return 2
    for name in names:
        print(render_figure(name))
        print()
    return 0


def _cmd_ablations(args: list[str]) -> int:
    from repro.harness.ablations import ABLATIONS, run_ablations
    from repro.harness.campaign import extract_campaign_flags
    from repro.harness.parallel import extract_jobs
    from repro.harness.report import print_table
    from repro.obs.cli import (
        clamp_jobs_for_capture,
        extract_obs_flags,
        observe_cli,
    )

    obs_flags, args = extract_obs_flags(args)
    jobs, args = extract_jobs(args)
    options, args = extract_campaign_flags(args, default_budget=1)
    names = args or sorted(ABLATIONS)
    unknown = [name for name in names if name not in ABLATIONS]
    if unknown:
        print(f"unknown ablations: {unknown}; available: {sorted(ABLATIONS)}")
        return 2
    seeds = len(options.seeds) if len(options.seeds) > 1 else None
    jobs = clamp_jobs_for_capture(obs_flags, jobs)
    with observe_cli(obs_flags):
        for name, rows in zip(
            names, run_ablations(names, jobs=jobs, seeds=seeds)
        ):
            print_table(rows, title=ABLATIONS[name][0])
    return 0


def _cmd_algorithms(_args: list[str]) -> int:
    for name, cls in sorted(ALGORITHMS.items()):
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        print(f"{name:24s} {cls.__name__:36s} {doc}")
    return 0


def _cmd_verify(args: list[str]) -> int:
    from repro.harness.campaign import (
        extract_backend,
        extract_campaign_flags,
        reject_removed_spellings,
    )
    from repro.harness.parallel import extract_jobs
    from repro.obs.cli import (
        clamp_jobs_for_capture,
        extract_obs_flags,
        observe_cli,
    )
    from repro.verify.explorer import (
        STANDARD_SCENARIO,
        explore_consensus_decision,
        explore_snapshot_scenario,
        run_verify_campaigns,
    )

    obs_flags, args = extract_obs_flags(args)
    jobs, args = extract_jobs(args)
    backend, args = extract_backend(args, default="sim")
    options, rest = extract_campaign_flags(args, default_budget=200)
    reject_removed_spellings(rest, "--algorithm NAME (one per run)")
    if options.algorithm is not None:
        algorithms = [options.algorithm]
    else:
        algorithms = ["ss-nonblocking", "ss-always"]
    if backend != "sim":
        print(
            f"note: schedule-exploring DFS pass is sim-only; on "
            f"{backend!r} each seed drives a live concurrent workload "
            f"and checks its history for linearizability",
            file=sys.stderr,
        )
    jobs = clamp_jobs_for_capture(obs_flags, jobs)
    ok = True
    with observe_cli(obs_flags):
        for algorithm in algorithms:
            if backend == "sim":
                dfs = explore_snapshot_scenario(
                    algorithm,
                    list(STANDARD_SCENARIO),
                    n=3,
                    delta=0,
                    max_runs=options.budget,
                    max_depth=20,
                    strategy="dfs",
                )
                print(f"{algorithm:20s} [dfs        ] {dfs.summary()}")
                ok = ok and dfs.ok
            results = run_verify_campaigns(
                options.seeds,
                jobs=jobs,
                algorithm=algorithm,
                budget=options.budget,
                backend=backend,
            )
            for seed, result in zip(options.seeds, results):
                label = (
                    "random-walk" if backend == "sim" else "live"
                )
                if len(options.seeds) > 1:
                    label = f"{'walk' if backend == 'sim' else 'live'} s={seed}"
                print(f"{algorithm:20s} [{label:11s}] {result.summary()}")
                for failure in result.failures:
                    print("FAILURE:", failure)
                ok = ok and result.ok
        if backend == "sim":
            for strategy in ("dfs", "random-walk"):
                result = explore_consensus_decision(
                    n=3,
                    max_runs=options.budget,
                    max_depth=20,
                    strategy=strategy,
                )
                print(f"{'consensus':20s} [{strategy:11s}] {result.summary()}")
                for failure in result.failures:
                    print("FAILURE:", failure)
                ok = ok and result.ok
    return 0 if ok else 1


def _cmd_chaos(args: list[str]) -> int:
    from repro.harness.campaign import (
        extract_backend,
        extract_campaign_flags,
        print_reports,
        reject_removed_spellings,
    )
    from repro.harness.chaos import run_chaos_campaigns
    from repro.harness.parallel import extract_jobs
    from repro.obs.cli import (
        clamp_jobs_for_capture,
        extract_obs_flags,
        observe_cli,
    )

    obs_flags, args = extract_obs_flags(args)
    jobs, args = extract_jobs(args)
    backend, args = extract_backend(args, default="sim")
    shards, args = _extract_shards(args)
    options, rest = extract_campaign_flags(args, default_budget=150)
    reject_removed_spellings(rest, "--budget N / --seed-start S")
    jobs = clamp_jobs_for_capture(obs_flags, jobs)
    if shards is not None:
        from repro.shard import run_shard_chaos_campaigns

        algorithm = options.algorithm or "ss-nonblocking"
        with observe_cli(obs_flags):
            reports = run_shard_chaos_campaigns(
                options.seeds,
                shards=shards,
                algorithm=algorithm,
                budget=options.budget,
                backend=backend,
            )
            ok = print_reports(options.seeds, reports)
        return 0 if ok else 1
    algorithm = options.algorithm or "ss-always"
    with observe_cli(obs_flags):
        reports = run_chaos_campaigns(
            options.seeds,
            budget=options.budget,
            algorithm=algorithm,
            jobs=jobs,
            backend=backend,
        )
        ok = print_reports(options.seeds, reports)
    return 0 if ok else 1


def _cmd_fuzz(args: list[str]) -> int:
    from repro.fuzz import run_fuzz_campaign
    from repro.harness.campaign import (
        extract_backend,
        extract_campaign_flags,
        print_reports,
        reject_removed_spellings,
    )
    from repro.harness.parallel import extract_jobs
    from repro.obs.cli import (
        clamp_jobs_for_capture,
        extract_obs_flags,
        observe_cli,
    )

    obs_flags, args = extract_obs_flags(args)
    jobs, args = extract_jobs(args)
    backend, args = extract_backend(args, default="sim")
    options, rest = extract_campaign_flags(args, default_budget=40)
    out_dir: str | None = None
    shrink = True
    it = iter(rest)
    leftover: list[str] = []
    for arg in it:
        if arg == "--out":
            out_dir = next(it, None)
            if out_dir is None:
                raise SystemExit("--out requires a directory path")
        elif arg.startswith("--out="):
            out_dir = arg.split("=", 1)[1]
        elif arg == "--no-shrink":
            shrink = False
        else:
            leftover.append(arg)
    reject_removed_spellings(leftover)
    if leftover:
        raise SystemExit(f"fuzz: unexpected arguments {leftover}")
    algorithm = options.algorithm or "ss-always"
    jobs = clamp_jobs_for_capture(obs_flags, jobs)
    with observe_cli(obs_flags):
        reports = run_fuzz_campaign(
            options.seeds,
            jobs=jobs,
            algorithm=algorithm,
            budget=options.budget,
            out_dir=out_dir,
            shrink=shrink,
            backend=backend,
        )
        ok = print_reports(options.seeds, reports)
    return 0 if ok else 1


def _cmd_replay(args: list[str]) -> int:
    from repro.fuzz import replay_counterexample
    from repro.harness.campaign import extract_backend
    from repro.obs.cli import extract_obs_flags, observe_cli

    obs_flags, args = extract_obs_flags(args)
    backend, args = extract_backend(args)
    if len(args) != 1:
        raise SystemExit(
            "usage: python -m repro replay [--backend NAME] "
            "<counterexample.json>"
        )
    with observe_cli(obs_flags):
        result = replay_counterexample(args[0], backend=backend)
        print(result.summary())
        for failure in result.outcome.failures:
            print("FAILURE:", failure)
    return 0 if result.ok else 1


def _cmd_latency(args: list[str]) -> int:
    from repro.harness.campaign import (
        extract_backend,
        extract_campaign_flags,
        print_reports,
        reject_removed_spellings,
    )
    from repro.harness.latency import run_latency_campaigns
    from repro.harness.parallel import extract_jobs
    from repro.obs.cli import (
        clamp_jobs_for_capture,
        extract_obs_flags,
        observe_cli,
    )

    obs_flags, args = extract_obs_flags(args)
    jobs, args = extract_jobs(args)
    backend, args = extract_backend(args, default="sim")
    options, rest = extract_campaign_flags(args, default_budget=16)
    reject_removed_spellings(rest)
    if rest:
        raise SystemExit(f"latency: unexpected arguments {rest}")
    algorithm = options.algorithm or "ss-nonblocking"
    jobs = clamp_jobs_for_capture(obs_flags, jobs)
    with observe_cli(obs_flags):
        reports = run_latency_campaigns(
            options.seeds,
            jobs=jobs,
            algorithm=algorithm,
            budget=options.budget,
            backend=backend,
        )
        ok = print_reports(options.seeds, reports)
    return 0 if ok else 1


def _cmd_load(args: list[str]) -> int:
    from repro.harness.campaign import (
        extract_backend,
        extract_campaign_flags,
        print_reports,
        reject_removed_spellings,
    )
    from repro.harness.parallel import extract_jobs
    from repro.load import LoadSpec, parse_mix, run_load_campaigns, sweep_rates
    from repro.obs.cli import (
        clamp_jobs_for_capture,
        extract_obs_flags,
        observe_cli,
    )

    obs_flags, args = extract_obs_flags(args)
    jobs, args = extract_jobs(args)
    backend, args = extract_backend(args, default="sim")
    shards, args = _extract_shards(args)
    batch, args = _extract_batch(args)
    # --duration is load's natural spelling of the shared --budget knob
    # (the submission window in simulated time units); both are accepted.
    args = [
        "--budget" + arg.removeprefix("--duration") if
        arg == "--duration" or arg.startswith("--duration=") else arg
        for arg in args
    ]
    options, rest = extract_campaign_flags(args, default_budget=60)
    clients, depth, n = 8, 4, 4
    rate: float | None = None
    write_fraction, skew = 0.8, 0.0
    sweep = False
    it = iter(rest)
    leftover: list[str] = []
    for arg in it:
        if arg == "--sweep":
            sweep = True
        elif arg in ("--clients", "--depth", "--rate", "--mix", "--skew",
                     "--n"):
            value = next(it, None)
            if value is None:
                raise SystemExit(f"{arg} requires a value")
            if arg == "--clients":
                clients = int(value)
            elif arg == "--depth":
                depth = int(value)
            elif arg == "--rate":
                rate = float(value)
            elif arg == "--mix":
                write_fraction = parse_mix(value)
            elif arg == "--skew":
                skew = float(value)
            else:
                n = int(value)
        else:
            leftover.append(arg)
    reject_removed_spellings(leftover)
    if leftover:
        raise SystemExit(f"load: unexpected arguments {leftover}")
    if sweep and shards is not None:
        raise SystemExit(
            "load: --sweep does not combine with --shards (the rate ladder "
            "is sized for one cluster; the K ladder is `experiments e19`)"
        )
    algorithm = options.algorithm or "ss-nonblocking"
    jobs = clamp_jobs_for_capture(obs_flags, jobs)
    with observe_cli(obs_flags):
        if sweep:
            result = sweep_rates(
                backend=backend,
                algorithm=algorithm,
                n=n,
                duration=float(options.budget),
                write_fraction=write_fraction,
                skew=skew,
                seed=options.seeds[0],
                batch=batch,
            )
            print(result.summary())
            for failure in result.failures:
                print("FAILURE:", failure)
            return 0 if result.ok else 1
        spec = LoadSpec(
            mode="open" if rate is not None else "closed",
            clients=clients,
            depth=depth,
            rate=rate,
            write_fraction=write_fraction,
            skew=skew,
        )
        reports = run_load_campaigns(
            options.seeds,
            jobs=jobs,
            algorithm=algorithm,
            budget=options.budget,
            backend=backend,
            spec=spec,
            n=n,
            batch=batch,
            shards=shards,
        )
        ok = print_reports(options.seeds, reports)
    return 0 if ok else 1


def _cmd_top(args: list[str]) -> int:
    from repro.obs.top import run_top

    return run_top(args)


def _cmd_backends(args: list[str]) -> int:
    from repro.backend import (
        CAPABILITY_NOTES,
        backend_capabilities,
        backend_names,
    )

    names = backend_names()
    if "--json" in args:
        import json

        payload = {
            "backends": {
                name: backend_capabilities(name).describe() for name in names
            },
            "notes": dict(CAPABILITY_NOTES),
        }
        print(json.dumps(payload, indent=2))
        return 0
    if args:
        raise SystemExit(f"backends: unexpected arguments {args}")
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


def _cmd_demo(_args: list[str]) -> int:
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


_COMMANDS = {
    "experiments": _cmd_experiments,
    "figures": _cmd_figures,
    "ablations": _cmd_ablations,
    "algorithms": _cmd_algorithms,
    "verify": _cmd_verify,
    "chaos": _cmd_chaos,
    "fuzz": _cmd_fuzz,
    "replay": _cmd_replay,
    "latency": _cmd_latency,
    "load": _cmd_load,
    "top": _cmd_top,
    "backends": _cmd_backends,
    "demo": _cmd_demo,
}


def _command_usage(command: str) -> str:
    """The section of the module usage text that documents ``command``."""
    lines = (__doc__ or "").splitlines()
    headers = (f"``{command}``", f"``{command} ")
    start = next(i for i, line in enumerate(lines) if line.startswith(headers))
    end = start + 1
    while end < len(lines) and lines[end].startswith("    "):
        end += 1
    return "\n".join(lines[start:end])


def main(argv: list[str] | None = None) -> int:
    """Dispatch ``python -m repro`` subcommands."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command = argv[0]
    handler = _COMMANDS.get(command)
    if handler is None:
        print(f"unknown command {command!r}; choose from {sorted(_COMMANDS)}")
        return 2
    if "-h" in argv[1:] or "--help" in argv[1:]:
        print(_command_usage(command))
        return 0
    return handler(argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
