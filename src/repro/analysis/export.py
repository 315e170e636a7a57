"""JSON export/import for histories and message traces.

Runs — especially fuzz campaigns or live UDP deployments — produce
evidence you may want to analyse offline: operation histories (for
re-checking linearizability elsewhere) and message traces (for
rendering diagrams later).  This module round-trips both through plain
JSON; values that JSON cannot carry (``bytes``, tuples) are encoded
reversibly.
"""

from __future__ import annotations

import base64
import json
from typing import Any

from repro.analysis.history import HistoryRecorder, OperationRecord
from repro.analysis.trace import MessageTrace, TraceEvent
from repro.core.base import SnapshotResult
from repro.errors import HistoryError

__all__ = [
    "history_to_json",
    "history_from_json",
    "trace_to_json",
    "trace_from_json",
]


def _encode_value(value: Any) -> Any:
    if isinstance(value, bytes):
        return {"__bytes__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_value(item) for item in value]}
    if isinstance(value, SnapshotResult):
        return {
            "__snapshot__": {
                "values": [_encode_value(item) for item in value.values],
                "vector_clock": list(value.vector_clock),
            }
        }
    if isinstance(value, list):
        return [_encode_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode_value(item) for key, item in value.items()}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if "__bytes__" in value:
            return base64.b64decode(value["__bytes__"])
        if "__tuple__" in value:
            return tuple(_decode_value(item) for item in value["__tuple__"])
        if "__snapshot__" in value:
            inner = value["__snapshot__"]
            return SnapshotResult(
                values=tuple(_decode_value(item) for item in inner["values"]),
                vector_clock=tuple(inner["vector_clock"]),
            )
        return {key: _decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    return value


# -- histories ---------------------------------------------------------------------


def history_to_json(history: HistoryRecorder, indent: int | None = None) -> str:
    """Serialize a history (all records, including pending/aborted)."""
    payload = [
        {
            "op_id": record.op_id,
            "node_id": record.node_id,
            "kind": record.kind,
            "argument": _encode_value(record.argument),
            "invoked_at": record.invoked_at,
            "responded_at": record.responded_at,
            "result": _encode_value(record.result),
            "aborted": record.aborted,
            "meta": _encode_value(record.meta),
        }
        for record in history.records()
    ]
    return json.dumps(payload, indent=indent)


def history_from_json(data: str) -> list[OperationRecord]:
    """Rebuild operation records from :func:`history_to_json` output.

    Returns records directly (not a recorder): the intended use is
    feeding them to the linearizability checkers.
    """
    try:
        payload = json.loads(data)
    except json.JSONDecodeError as exc:
        raise HistoryError(f"malformed history JSON: {exc}") from exc
    records = []
    for item in payload:
        records.append(
            OperationRecord(
                op_id=item["op_id"],
                node_id=item["node_id"],
                kind=item["kind"],
                argument=_decode_value(item["argument"]),
                invoked_at=item["invoked_at"],
                responded_at=item["responded_at"],
                result=_decode_value(item["result"]),
                aborted=item.get("aborted", False),
                meta=_decode_value(item.get("meta", {})),
            )
        )
    return records


# -- traces ----------------------------------------------------------------------------


def trace_to_json(trace: MessageTrace, indent: int | None = None) -> str:
    """Serialize a message trace."""
    payload = [
        {
            "event": event.event,
            "time": event.time,
            "src": event.src,
            "dst": event.dst,
            "kind": event.kind,
        }
        for event in trace.events
    ]
    return json.dumps(payload, indent=indent)


def trace_from_json(data: str) -> MessageTrace:
    """Rebuild a trace from :func:`trace_to_json` output."""
    payload = json.loads(data)
    trace = MessageTrace()
    trace.events = [
        TraceEvent(
            event=item["event"],
            time=item["time"],
            src=item["src"],
            dst=item["dst"],
            kind=item["kind"],
        )
        for item in payload
    ]
    return trace
