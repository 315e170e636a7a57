"""Parallel experiment runner: deterministic fan-out over a process pool.

Every experiment, ablation, fuzz probe and exploration in the harness is
a pure function of its descriptor — all randomness derives from explicit
seeds — so independent ``(runner, kwargs)`` cells can execute in worker
processes with no shared state.  This module fans a list of :class:`Cell`
descriptors out across a :mod:`multiprocessing` pool and merges results
**deterministically**: each result is keyed by its cell's position in the
submitted list and the merged list is returned in that order, so the
output of a parallel run is byte-identical to a serial run of the same
cells (``--jobs 4`` equals ``--jobs 1``; the regression test in
``tests/test_parallel_runner.py`` holds us to that).

Cells name their runner through the harness registries
(:data:`repro.harness.experiments.EXPERIMENTS`,
:data:`repro.harness.ablations.ABLATIONS`, the fuzz and verify campaigns)
rather than carrying callables, which keeps them picklable under every
multiprocessing start method.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

__all__ = [
    "Cell",
    "run_cells",
    "experiment_cells",
    "ablation_cells",
    "fuzz_cells",
    "verify_cells",
]


@dataclass(frozen=True, slots=True)
class Cell:
    """One independent unit of work: a registered runner plus its kwargs.

    ``kind`` selects the registry (``"experiment"``, ``"ablation"``,
    ``"fuzz"``, or ``"verify"``), ``name`` the entry within
    it, and ``kwargs`` is a sorted tuple of ``(key, value)`` pairs — a
    hashable, picklable spelling of the keyword arguments.
    """

    kind: str
    name: str
    kwargs: tuple[tuple[str, Any], ...] = ()


def _make_kwargs(kwargs: dict[str, Any] | None) -> tuple[tuple[str, Any], ...]:
    if not kwargs:
        return ()
    return tuple(sorted(kwargs.items()))


def experiment_cells(
    ids: Iterable[str],
    seeds: Iterable[int] | None = None,
    common: dict[str, Any] | None = None,
) -> list[Cell]:
    """Cells for experiment ids, optionally crossed with explicit seeds.

    ``common`` kwargs (e.g. ``backend`` for the backend-aware
    experiments) are merged into every cell.
    """
    base = dict(common or {})
    if seeds is None:
        return [Cell("experiment", eid, _make_kwargs(base)) for eid in ids]
    return [
        Cell("experiment", eid, _make_kwargs({**base, "seed": seed}))
        for eid in ids
        for seed in seeds
    ]


def ablation_cells(
    names: Iterable[str], seeds: int | None = None
) -> list[Cell]:
    """Cells for ablation study names, optionally widening the seed sweep."""
    kwargs = _make_kwargs({"seeds": seeds} if seeds is not None else None)
    return [Cell("ablation", name, kwargs) for name in names]


def fuzz_cells(
    seeds: Iterable[int],
    algorithm: str = "ss-always",
    budget: int = 40,
    shards: int = 0,
) -> list[Cell]:
    """Cells probing one generated fuzz spec per seed (a fabric storm on
    ``shards`` shards when set)."""
    base = {"budget": budget, **({"shards": shards} if shards else {})}
    return [
        Cell("fuzz", algorithm, _make_kwargs({"seed": seed, **base}))
        for seed in seeds
    ]


def verify_cells(
    seeds: Iterable[int], algorithm: str = "ss-always", budget: int = 200
) -> list[Cell]:
    """Cells for one seeded random-walk exploration per seed."""
    return [
        Cell("verify", algorithm, _make_kwargs({"seed": seed, "budget": budget}))
        for seed in seeds
    ]


def _run_cell(
    indexed: tuple[int, Cell, bool]
) -> tuple[int, Any, dict | None]:
    """Execute one cell in a worker process (top-level for picklability).

    With ``capture`` set (third tuple element), the cell runs under its
    own observability session and its portable aggregate snapshot rides
    back alongside the result — how ``--stats`` survives ``--jobs N``:
    the parent absorbs the snapshots in cell order, so the merged
    summary matches a serial run's.
    """
    index, cell, capture = indexed
    if capture:
        from repro.obs.observe import Observability, session

        obs = Observability(trace_messages=False)
        with session(obs):
            result = _execute_cell(cell)
        obs.finish()
        return index, result, obs.portable()
    return index, _execute_cell(cell), None


def _execute_cell(cell: Cell) -> Any:
    """Dispatch one cell to its registered runner."""
    kwargs = dict(cell.kwargs)
    if cell.kind == "experiment":
        from repro.harness.experiments import EXPERIMENTS

        return EXPERIMENTS[cell.name].runner(**kwargs)
    if cell.kind == "ablation":
        from repro.harness.ablations import ABLATIONS

        return ABLATIONS[cell.name].runner(**kwargs)
    if cell.kind == "fuzz":
        from repro.fuzz.runner import probe_seed

        return probe_seed(algorithm=cell.name, **kwargs)
    if cell.kind == "verify":
        from repro.verify.explorer import explore_standard_scenario

        return explore_standard_scenario(
            cell.name, seed=kwargs["seed"], budget=kwargs["budget"]
        )
    raise ValueError(f"unknown cell kind {cell.kind!r}")


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork is much cheaper to start and inherits sys.path for free; fall
    # back to spawn where fork is unavailable (spawn also propagates
    # sys.path, just with a per-worker interpreter startup cost).
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_cells(cells: Sequence[Cell], jobs: int | None = None) -> list[Any]:
    """Run every cell and return their results in cell order.

    ``jobs`` of ``None``, ``0``, or ``1`` runs serially in-process (no pool,
    no pickling).  Larger values fan out across that many worker processes;
    completion order is nondeterministic but the merge keys results by cell
    index, so the returned list — and anything printed from it — is
    identical to the serial run.

    When an ambient observability session is installed (``--stats``),
    each worker cell runs under its own session and ships a portable
    aggregate snapshot back; the parent absorbs them **in cell order**,
    so the merged metrics/blame/health summary is deterministic and
    matches the serial run.  (Span-level capture — ``--trace-out`` /
    ``--jsonl-out`` — still forces serial: spans do not travel.)
    """
    serial = jobs is None or jobs <= 1 or len(cells) <= 1
    if serial:
        indexed = [(i, cell, False) for i, cell in enumerate(cells)]
        return [_run_cell(triple)[1] for triple in indexed]
    from repro.obs.observe import current_session

    parent = current_session()
    indexed = [(i, cell, parent is not None) for i, cell in enumerate(cells)]
    results: list[Any] = [None] * len(indexed)
    portables: list[dict | None] = [None] * len(indexed)
    with _pool_context().Pool(processes=min(jobs, len(indexed))) as pool:
        for index, result, portable in pool.imap_unordered(_run_cell, indexed):
            results[index] = result
            portables[index] = portable
    if parent is not None:
        for portable in portables:
            if portable is not None:
                parent.absorb(portable)
    return results

