"""Outside-in timing shims: spans at layer boundaries, from the benchmark's side.

:class:`Tracer` installs wrappers on the public entry points listed in
:mod:`ledger.layers`, records one span per call (or per ``send`` step of
a coroutine), and removes every wrapper afterwards — the program itself
is never edited.  A span is ``(name, layer, start, end, parent, run)``
where ``parent`` is the innermost shim span open when it started.

Accounting: a span's *self* time is its duration minus the intervals its
children cover.  The tracer's own bookkeeping after a span ends is
charged to a pseudo-layer ``trace`` instead of the parent, so for every
phase ``sum(self times) + trace == sum(root span durations)`` exactly —
layer shares of the traced wall add up by construction.

Aggregates are kept for every span; the first ``SPAN_CAP`` spans are
also kept whole and written as Chrome trace-event JSON (open it in
https://ui.perfetto.dev).
"""

from __future__ import annotations

import collections.abc
import importlib
import inspect
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

from ledger.layers import CALL, ENTRY_POINTS, HANDLERS, STEPPED

__all__ = ["Tracer", "SPAN_CAP", "CAPTURE_CAP"]

SPAN_CAP = 50_000
#: Distinct messages kept for the replay probes.
CAPTURE_CAP = 4_000


def _module_layer(module_name: str, default: str = "other") -> str:
    """``repro.<layer>.…`` → ``<layer>``."""
    parts = (module_name or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return default


def _resolve(path: str) -> tuple[Any, str]:
    """Dotted path → ``(owner, attribute)``; raises if it no longer exists."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        getattr(owner, parts[-1])  # AttributeError if gone
        return owner, parts[-1]
    raise ImportError(path)


_INHERITED = object()


def _raw(owner: Any, attr: str) -> Any:
    """The attribute as the owner stores it, or ``_INHERITED``."""
    if inspect.isclass(owner):
        return owner.__dict__.get(attr, _INHERITED)
    return getattr(owner, attr)


class _Stepped:
    """Awaitable proxy timing every ``send`` step of a coroutine.

    Client-side algorithm code runs inside coroutines the kernel steps;
    without this proxy its time would be indistinguishable from the
    kernel's own.  Works both awaited from another coroutine and handed
    to ``create_task`` directly.
    """

    __slots__ = ("_tracer", "_inner", "_it", "_name", "_layer")

    def __init__(self, tracer: "Tracer", inner: Any, name: str, layer: str) -> None:
        self._tracer = tracer
        self._inner = inner
        self._it = None
        self._name = name
        self._layer = layer

    def __await__(self) -> "_Stepped":
        return self

    def __iter__(self) -> "_Stepped":
        return self

    def _step(self, method: str, *args: Any) -> Any:
        it = self._it
        if it is None:
            it = self._it = self._inner.__await__()
        tracer = self._tracer
        frame = tracer._open(self._name, self._layer)
        try:
            return getattr(it, method)(*args)
        finally:
            tracer._close(frame, perf_counter())

    def send(self, value: Any) -> Any:
        return self._step("send", value)

    def __next__(self) -> Any:
        return self._step("send", None)

    def throw(self, *exc_info: Any) -> Any:
        return self._step("throw", *exc_info)

    def close(self) -> None:
        self._inner.close()


collections.abc.Coroutine.register(_Stepped)


class Tracer:
    """Installs the shims, aggregates spans, writes the trace file."""

    enabled = True

    def __init__(self) -> None:
        #: ``(phase, name) -> [layer, count, total_s, self_s]``
        self.aggregates: dict[tuple[str, str], list] = {}
        #: phase -> summed duration of its root spans
        self.root_s: dict[str, float] = {}
        #: phase -> tracer bookkeeping charged to the ``trace`` pseudo-layer
        self.overhead_s: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.span_count = 0
        self.captured: list[Any] = []
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._phase = "idle"
        self._run = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        stack = self._stack
        if not stack:
            self._run += 1
        # [name, layer, start, child_s, index, parent_index]
        frame = [name, layer, 0.0, 0.0, self.span_count, stack[-1][4] if stack else -1]
        self.span_count += 1
        stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def _close(self, frame: list, end: float) -> None:
        stack = self._stack
        stack.pop()
        name, layer, start, child_s, index, parent = frame
        duration = end - start
        phase = self._phase
        entry = self.aggregates.get((phase, name))
        if entry is None:
            entry = self.aggregates[(phase, name)] = [layer, 0, 0.0, 0.0]
        entry[1] += 1
        entry[2] += duration
        entry[3] += duration - child_s
        if index < SPAN_CAP:
            self.spans.append((name, layer, start, end, index, parent, self._run))
        after = perf_counter()
        if stack:
            stack[-1][3] += after - start
        else:
            self.root_s[phase] = self.root_s.get(phase, 0.0) + after - start
        self.overhead_s[phase] = self.overhead_s.get(phase, 0.0) + after - end

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Label the spans closed inside the block (``drive``, ``check``)."""
        previous, self._phase = self._phase, name
        try:
            yield
        finally:
            self._phase = previous

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """An explicit span around a block of the benchmark's own code."""
        frame = self._open(name, layer)
        try:
            yield
        finally:
            self._close(frame, perf_counter())

    def step(self, coro: Any, name: str, layer: str) -> Any:
        """Wrap a coroutine object in the stepping proxy."""
        return _Stepped(self, coro, name, layer)

    # -- shims ----------------------------------------------------------------

    def _wrap_call(
        self, fn: Callable, name: str, layer: str, capture: int | None = None
    ) -> Callable:
        if inspect.iscoroutinefunction(fn):

            def stepped_shim(*args: Any, **kwargs: Any) -> Any:
                return _Stepped(self, fn(*args, **kwargs), name, layer)

            return stepped_shim

        open_, close = self._open, self._close
        captured = self.captured

        def shim(*args: Any, **kwargs: Any) -> Any:
            if capture is not None and len(captured) < CAPTURE_CAP:
                item = args[capture]
                if not captured or captured[-1] is not item:
                    captured.append(item)
            frame = open_(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, perf_counter())

        return shim

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, _raw(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Install every shim of :data:`ledger.layers.ENTRY_POINTS`."""
        for path, how, layer, options in ENTRY_POINTS:
            try:
                owner, attr = _resolve(path)
            except (ImportError, AttributeError):
                self.absent.append(path)
                continue
            name = ".".join(path.split(".")[-2:])
            if how == CALL:
                self._install_call(owner, attr, name, layer, options)
            elif how == HANDLERS:
                self._install_handlers(owner, attr)
            elif how == STEPPED:
                self._install_stepped(getattr(owner, attr), options["methods"])

    def _install_call(
        self, owner: Any, attr: str, name: str, layer: str, options: dict
    ) -> None:
        original = getattr(owner, attr)
        shim = self._wrap_call(original, name, layer, options.get("capture"))
        self._patch(owner, attr, shim)
        for module_name in options.get("also", ()):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if getattr(module, attr, None) is original:
                self._patch(module, attr, shim)

    def _install_handlers(self, owner: Any, attr: str) -> None:
        original = getattr(owner, attr)
        wrap = self._wrap_call

        def register_handler(process: Any, kind: str, handler: Callable) -> None:
            layer = _module_layer(getattr(handler, "__module__", ""))
            original(process, kind, wrap(handler, f"handler:{kind}", layer))

        self._patch(owner, attr, register_handler)

    def _install_stepped(self, registry: dict, methods: tuple[str, ...]) -> None:
        seen: set[tuple[type, str]] = set()
        for cls in registry.values():
            for klass in cls.__mro__:
                for method in methods:
                    if method not in klass.__dict__ or (klass, method) in seen:
                        continue
                    seen.add((klass, method))
                    shim = self._wrap_call(
                        klass.__dict__[method],
                        f"{klass.__name__}.{method}",
                        _module_layer(klass.__module__),
                    )
                    self._patch(klass, method, shim)

    def remove(self) -> None:
        """Put every patched attribute back (the original objects)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.remove()

    # -- read-out -------------------------------------------------------------

    def select(
        self, phase: str | None, match: Callable[[str, str], bool]
    ) -> tuple[int, float, float]:
        """``(count, total_s, self_s)`` over spans where ``match(name, layer)``."""
        count, total, self_s = 0, 0.0, 0.0
        for (span_phase, name), (layer, c, t, s) in self.aggregates.items():
            if (phase is None or span_phase == phase) and match(name, layer):
                count += c
                total += t
                self_s += s
        return count, total, self_s

    def layer_self(self, phase: str) -> dict[str, float]:
        """Self seconds per layer in ``phase`` (``trace`` = tracer overhead)."""
        layers: dict[str, float] = {}
        for (span_phase, _name), (layer, _c, _t, self_s) in self.aggregates.items():
            if span_phase == phase:
                layers[layer] = layers.get(layer, 0.0) + self_s
        layers["trace"] = self.overhead_s.get(phase, 0.0)
        return layers

    def write_chrome_trace(self, path: str, meta: dict) -> None:
        """Write the kept spans as Chrome trace-event JSON."""
        origin = min((s[2] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": run,
                "tid": 0,
                "args": {"span": index, "parent": parent},
            }
            for name, layer, start, end, index, parent, run in self.spans
        ]
        record = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                **meta,
                "spans_total": self.span_count,
                "spans_kept": len(self.spans),
                "absent": self.absent,
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
