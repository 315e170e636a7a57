"""CLI plumbing for observability: ``--trace-out`` / ``--jsonl-out`` / ``--stats``.

``python -m repro`` parses the observability flags into its namespace;
commands wrap their work in :func:`observe_cli`, which installs an
ambient session (so clusters built inside experiment runners attach
automatically) and writes the requested exports when the block exits.

Span-level capture (``--trace-out`` / ``--jsonl-out``) forces
``--jobs 1``: spans and message arrows live in worker memory and do not
travel.  ``--stats`` parallelizes: each worker cell runs under its own
session and ships a portable aggregate snapshot back, which the parent
absorbs in cell order (see :meth:`repro.obs.observe.Observability.absorb`),
so the merged summary matches a serial run.
"""

from __future__ import annotations

import json
import sys
from argparse import Namespace
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.obs.observe import Observability, session

__all__ = ["clamp_jobs_for_capture", "observe_cli"]


def clamp_jobs_for_capture(args: Namespace) -> int:
    """``args.jobs``, or 1 while *span* capture is active (with a notice).

    ``--trace-out``/``--jsonl-out`` record spans in-process, so they
    clamp to one job; ``--stats`` merges across workers and passes
    through untouched.
    """
    if (args.trace_out or args.jsonl_out) and args.jobs > 1:
        print(
            "trace capture records spans in-process; forcing --jobs 1",
            file=sys.stderr,
        )
        return 1
    return args.jobs


@contextmanager
def observe_cli(args: Namespace) -> Iterator[Observability | None]:
    """Run a CLI command under an ambient session; export on clean exit."""
    if not (args.trace_out or args.jsonl_out or args.stats):
        yield None
        return
    obs = Observability()
    with session(obs):
        yield obs
    obs.finish()
    if args.trace_out:
        payload = obs.chrome_trace()
        Path(args.trace_out).write_text(json.dumps(payload) + "\n")
        print(
            f"wrote Chrome trace ({len(payload['traceEvents'])} events) to "
            f"{args.trace_out}; open it at https://ui.perfetto.dev "
            "or about://tracing"
        )
    if args.jsonl_out:
        Path(args.jsonl_out).write_text(obs.jsonl())
        print(f"wrote JSONL event stream to {args.jsonl_out}")
    if args.stats:
        from repro.harness.report import print_obs_summary

        print_obs_summary(obs)
