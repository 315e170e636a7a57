"""Replay and micro probes: one layer function at a time, in isolation.

Replay probes feed messages and histories captured during the traced
run back to the layer function that handled them (at least five timed
passes, caches invalidated before each).  Micro probes re-measure the
BENCH_PR1 figures so the trajectory stays continuous.  All of them run
after the shims are removed.
"""

from __future__ import annotations

import gc
import math
from statistics import median
from time import perf_counter
from typing import Callable

from repro.analysis.linearizability import check_snapshot_history
from repro.net.codec import CodecError, decode_message, encode_message
from repro.net.message import invalidate_wire_cache
from repro.obs.observe import Observability, session
from repro.sim.kernel import Kernel
from repro.verify import explore_snapshot_scenario

from ledger.catalog import Workload
from ledger.workloads import run_once

__all__ = [
    "replay_size_model",
    "replay_codec",
    "check_scaling_exponent",
    "tick_events_per_s",
    "explorer_schedules_per_s",
    "obs_overhead",
]

PASSES = 5


def _median_pass(setup: Callable[[], None], body: Callable[[], None]) -> float:
    times = []
    for _ in range(PASSES):
        setup()
        start = perf_counter()
        body()
        times.append(perf_counter() - start)
    return median(times)


def replay_size_model(messages: list) -> dict:
    """``Message.wire_size`` on the captured messages, cache cold."""
    if not messages:
        return {}

    def cold() -> None:
        for message in messages:
            invalidate_wire_cache(message)

    def measure() -> None:
        for message in messages:
            message.wire_size()

    seconds = _median_pass(cold, measure)
    return {
        "size_us_per_msg": seconds / len(messages) * 1e6,
        "model_bytes_per_msg": sum(m.wire_size() for m in messages) / len(messages),
        "messages": len(messages),
    }


def replay_codec(messages: list) -> dict:
    """TLV encode + decode of the captured messages, cache cold."""
    encodable = []
    for message in messages:
        invalidate_wire_cache(message)
        try:
            encode_message(message)
        except CodecError:
            continue
        encodable.append(message)
    if not encodable:
        return {}

    def cold() -> None:
        for message in encodable:
            invalidate_wire_cache(message)

    def encode() -> None:
        for message in encodable:
            encode_message(message)

    encode_s = _median_pass(cold, encode)
    blobs = [encode_message(message) for message in encodable]

    def decode() -> None:
        for blob in blobs:
            decode_message(blob)

    decode_s = _median_pass(lambda: None, decode)
    codec_bytes = sum(len(blob) for blob in blobs) / len(blobs)
    model_bytes = sum(m.wire_size() for m in encodable) / len(encodable)
    return {
        "encode_us_per_msg": encode_s / len(encodable) * 1e6,
        "decode_us_per_msg": decode_s / len(encodable) * 1e6,
        "codec_bytes_per_msg": codec_bytes,
        "codec_over_model_bytes": codec_bytes / model_bytes,
        "messages": len(encodable),
    }


def _time_check(records: list, n: int) -> float:
    """One pass if it is slow, the median of five if it is quick."""
    start = perf_counter()
    check_snapshot_history(records, n=n)
    first = perf_counter() - start
    if first > 0.2:
        return first
    return _median_pass(lambda: None, lambda: check_snapshot_history(records, n=n))


def check_scaling_exponent(histories: list[tuple[list, int]]) -> dict:
    """log2(check time on the largest history / on its first half)."""
    records, n = max(histories, key=lambda h: len(h[0]))
    if len(records) < 64:
        return {}
    full = _time_check(records, n)
    half = _time_check(records[: len(records) // 2], n)
    return {"exponent": math.log2(full / half), "records": len(records)}


def tick_events_per_s(events: int = 200_000) -> float:
    """The raw scheduler loop (BENCH_PR1 ``kernel_events_per_sec``)."""

    def once() -> float:
        kernel = Kernel()
        count = 0

        def tick() -> None:
            nonlocal count
            count += 1
            if count < events:
                kernel.call_later(0.001, tick)

        kernel.call_later(0.001, tick)
        start = perf_counter()
        kernel.run()
        return perf_counter() - start

    return events / min(once() for _ in range(3))


def explorer_schedules_per_s(runs: int = 50) -> float:
    """Schedule exploration rate (BENCH_PR1 ``model_checker_schedules_per_sec``)."""

    def once() -> float:
        start = perf_counter()
        explore_snapshot_scenario(
            "dgfr-nonblocking",
            [("write", 0, "v"), ("snapshot", 1, None)],
            n=3,
            max_runs=runs,
            max_depth=10,
            start_loops=False,
        )
        return perf_counter() - start

    return runs / min(once() for _ in range(3))


def obs_overhead(w: Workload, seed: int, scale: float, pairs: int = 3) -> dict:
    """Drive wall under an obs session vs none, interleaved pair by pair."""
    off, on, spans_per_op = [], [], 0.0
    for pair in range(pairs):
        for observed in ((False, True) if pair % 2 == 0 else (True, False)):
            gc.collect()
            if observed:
                with session(Observability(trace_messages=False)) as obs:
                    result = run_once(w, seed, scale, check=False)
                on.append(result.drive_s)
                spans_per_op = len(obs.recorder.spans) / result.stats.completed
            else:
                off.append(run_once(w, seed, scale, check=False).drive_s)
    return {
        "on_overhead_pct": (median(on) / median(off) - 1.0) * 100.0,
        "spans_per_op": spans_per_op,
        "pairs": pairs,
    }
