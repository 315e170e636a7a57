"""Prometheus text exposition for the metric registry.

Renders a collected metric snapshot in the Prometheus text format
(``text/plain; version=0.0.4``) and serves it over a minimal asyncio
HTTP endpoint, so a live run on the UDP backend can be scraped by any
Prometheus-compatible agent while a fault storm is in progress.

Mapping rules:

* dotted names become underscore names under the ``repro_`` prefix
  (``net.messages_total`` → ``repro_net_messages_total``);
* per-node health gauges (``health.<signal>.c<i>.n<j>``) become one
  metric per signal with ``cluster``/``node`` labels
  (``repro_health_state{cluster="0",node="3"}``);
* histogram-valued instruments render as Prometheus summaries:
  ``_count``/``_sum`` plus one ``{quantile="…"}`` sample per estimate.

No third-party client library is involved — the format is plain text
and the server is ``asyncio.start_server`` on loopback.
"""

from __future__ import annotations

import asyncio
import re
from typing import Any, Callable

__all__ = ["prometheus_text", "MetricsExposition", "CONTENT_TYPE"]

#: The Prometheus text exposition content type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_HEALTH = re.compile(r"^health\.([a-z_]+)\.c(\d+)\.n(\d+)$")
_INVALID = re.compile(r"[^a-zA-Z0-9_]")


def _mangle(name: str) -> str:
    return "repro_" + _INVALID.sub("_", name)


def _format_value(value: float) -> str:
    if value != value:  # NaN never leaves the renderer
        return "0"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def prometheus_text(values: dict[str, Any]) -> str:
    """Render one ``MetricsRegistry.collect()`` snapshot as exposition text."""
    scalars: list[tuple[str, str, float]] = []
    health: dict[str, list[tuple[str, str, float]]] = {}
    summaries: list[tuple[str, dict]] = []
    for name, value in sorted(values.items()):
        if isinstance(value, dict):
            summaries.append((name, value))
            continue
        match = _HEALTH.match(name)
        if match is not None:
            signal, cluster, node = match.groups()
            health.setdefault(signal, []).append((cluster, node, value))
        else:
            scalars.append((name, _mangle(name), value))
    lines: list[str] = []
    for name, mangled, value in scalars:
        lines.append(f"# TYPE {mangled} gauge")
        lines.append(f"{mangled} {_format_value(value)}")
    for signal in sorted(health):
        mangled = _mangle(f"health.{signal}")
        lines.append(f"# TYPE {mangled} gauge")
        for cluster, node, value in health[signal]:
            lines.append(
                f'{mangled}{{cluster="{cluster}",node="{node}"}} '
                f"{_format_value(value)}"
            )
    for name, summary in summaries:
        mangled = _mangle(name)
        lines.append(f"# TYPE {mangled} summary")
        for key, quantile in (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")):
            if key in summary:
                lines.append(
                    f'{mangled}{{quantile="{quantile}"}} '
                    f"{_format_value(summary[key])}"
                )
        lines.append(f"{mangled}_count {_format_value(summary.get('count', 0))}")
        lines.append(f"{mangled}_sum {_format_value(summary.get('sum', 0.0))}")
    return "\n".join(lines) + "\n"


class MetricsExposition:
    """A loopback HTTP endpoint serving ``render()`` as exposition text.

    ``render`` is called per scrape (typically
    ``lambda: prometheus_text(obs.collect())``), so the response always
    reflects the live registry.  Must be started from a running asyncio
    event loop — i.e. on the live backends; the simulator has no loop to
    serve from (its clock is virtual).
    """

    def __init__(self, render: Callable[[], str]) -> None:
        self._render = render
        self._server: asyncio.AbstractServer | None = None
        self.host: str | None = None
        self.port: int | None = None

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind and serve; ``port=0`` picks a free port.  Returns the address."""
        self._server = await asyncio.start_server(self._handle, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    @property
    def url(self) -> str:
        """The scrape URL (valid after :meth:`start`)."""
        return f"http://{self.host}:{self.port}/metrics"

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            # Drain the request line and headers; any GET path is served.
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            body = self._render().encode("utf-8")
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: " + CONTENT_TYPE.encode("ascii") + b"\r\n"
                b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
                b"Connection: close\r\n"
                b"\r\n" + body
            )
            await writer.drain()
        finally:
            writer.close()

    async def stop(self) -> None:
        """Stop serving (idempotent)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
