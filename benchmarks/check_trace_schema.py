"""Schema check: a ``--trace-out`` file must be a well-formed Chrome trace.

Usage: ``python benchmarks/check_trace_schema.py trace.json``.  Validates
the structure :func:`repro.obs.export.chrome_trace` promises — the same
contract the Perfetto UI relies on:

* a ``traceEvents`` list whose every event carries a known phase (``M``
  metadata, ``X`` complete slices, ``s``/``f`` flow arrows, ``i``
  instants) with that phase's required fields;
* per-node tracks: ``process_name`` and ``thread_name`` metadata, plus a
  ``run`` track per cluster;
* operation spans: ``X`` slices of category ``op`` with span arguments
  (``op_id``, ``status``) and non-negative durations;
* flow-arrow pairing: every finish (``f``) id matches some start (``s``);
* tail-latency attribution: op slices carrying an ``attribution`` arg
  name a slowest responder, a dominant phase, and at least one round;
* transport batching: op slices carrying a ``batching`` arg report at
  least one bundle, and at least as many bundled messages as bundles
  (present only when the run used ``--batch`` > 1);
* health records: ``otherData.health`` entries carry one classified
  node dict per node, with a known state and its matching state code.

Exits non-zero, printing one line per problem, if anything is off.
``tests/test_obs_export.py`` imports :func:`validate` as its golden
structure check and ``tests/test_cli.py`` runs it on ``experiments E01
--trace-out`` files, so the command line and the exporter share one schema.
"""

import json
import sys
from pathlib import Path

_KNOWN_PHASES = {"M", "X", "s", "f", "i"}
_METADATA_NAMES = {"process_name", "thread_name"}
_HEALTH_STATES = {"healthy": 0, "limping": 1, "crashed": 2, "corrupt-suspect": 3}
_ATTRIBUTION_KEYS = {
    "slowest_responder",
    "slowest_latency",
    "completer",
    "dominant_phase",
    "rounds",
}
_NODE_HEALTH_KEYS = {
    "node",
    "state",
    "state_code",
    "service_ewma",
    "replies",
    "silence",
    "retransmit_rate",
    "queue_depth",
    "detections",
}


def _check_attribution(where, attribution, problems):
    """Validate one op slice's ``attribution`` argument."""
    if not isinstance(attribution, dict):
        problems.append(f"{where}: attribution is not an object")
        return
    missing = _ATTRIBUTION_KEYS - attribution.keys()
    if missing:
        problems.append(f"{where}: attribution missing {sorted(missing)}")
        return
    if not isinstance(attribution["rounds"], int) or attribution["rounds"] < 1:
        problems.append(
            f"{where}: attribution rounds {attribution['rounds']!r}"
        )
    latency = attribution["slowest_latency"]
    if not isinstance(latency, (int, float)) or latency < 0:
        problems.append(f"{where}: bad slowest_latency {latency!r}")
    if not isinstance(attribution["dominant_phase"], str):
        problems.append(
            f"{where}: bad dominant_phase {attribution['dominant_phase']!r}"
        )


def _check_batching(where, batching, problems):
    """Validate one op slice's ``batching`` argument."""
    if not isinstance(batching, dict):
        problems.append(f"{where}: batching is not an object")
        return
    missing = {"bundles", "messages"} - batching.keys()
    if missing:
        problems.append(f"{where}: batching missing {sorted(missing)}")
        return
    bundles, messages = batching["bundles"], batching["messages"]
    if not isinstance(bundles, int) or bundles < 1:
        problems.append(f"{where}: batching bundles {bundles!r}")
        return
    if not isinstance(messages, int) or messages < bundles:
        # Singletons bypass the batcher, so every reported bundle
        # carried at least one message — usually more.
        problems.append(
            f"{where}: batching messages {messages!r} < bundles {bundles}"
        )


def _check_health(records, problems):
    """Validate the ``otherData.health`` per-cluster node classifications."""
    if not isinstance(records, list):
        problems.append("otherData.health is not a list")
        return
    for entry in records:
        if not isinstance(entry, dict) or "cluster" not in entry:
            problems.append("health record missing cluster index")
            continue
        where = f"health[cluster={entry['cluster']}]"
        nodes = entry.get("nodes")
        if not isinstance(nodes, list) or not nodes:
            problems.append(f"{where}: missing node classifications")
            continue
        for health in nodes:
            if not isinstance(health, dict):
                problems.append(f"{where}: node entry is not an object")
                continue
            missing = _NODE_HEALTH_KEYS - health.keys()
            if missing:
                problems.append(f"{where}: node missing {sorted(missing)}")
                continue
            state = health["state"]
            if state not in _HEALTH_STATES:
                problems.append(f"{where}: unknown state {state!r}")
            elif health["state_code"] != _HEALTH_STATES[state]:
                problems.append(
                    f"{where}: state_code {health['state_code']!r} does not "
                    f"encode {state!r}"
                )


def _check_event(index, event, problems):
    """Validate one trace event; append problems in place."""
    where = f"traceEvents[{index}]"
    if not isinstance(event, dict):
        problems.append(f"{where}: not an object")
        return None
    phase = event.get("ph")
    if phase not in _KNOWN_PHASES:
        problems.append(f"{where}: unknown phase {phase!r}")
        return None
    if phase == "M":
        if event.get("name") not in _METADATA_NAMES:
            problems.append(f"{where}: metadata name {event.get('name')!r}")
        if not isinstance(event.get("args", {}).get("name"), str):
            problems.append(f"{where}: metadata missing args.name")
    else:
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
    if phase != "M" or "pid" in event:
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: bad pid {event.get('pid')!r}")
    if phase == "X":
        dur = event.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            problems.append(f"{where}: bad dur {dur!r}")
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: X slice missing name")
        if event.get("cat") == "op":
            args = event.get("args", {})
            if "op_id" not in args or "status" not in args:
                problems.append(f"{where}: op slice missing op_id/status args")
            if "attribution" in args:
                _check_attribution(where, args["attribution"], problems)
            if "batching" in args:
                _check_batching(where, args["batching"], problems)
    if phase in ("s", "f"):
        if "id" not in event:
            problems.append(f"{where}: flow event missing id")
        if phase == "f" and event.get("bp") != "e":
            problems.append(f"{where}: flow finish must carry bp='e'")
    return phase


def validate(payload):
    """Validate a Chrome-trace payload; return a list of problem strings."""
    problems = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["missing or empty 'traceEvents' list"]
    if "displayTimeUnit" not in payload:
        problems.append("missing 'displayTimeUnit'")
    process_names = set()
    thread_names = set()
    run_tracks = set()
    op_slices = 0
    flow_starts = set()
    flow_finishes = set()
    for index, event in enumerate(events):
        phase = _check_event(index, event, problems)
        if phase == "M":
            if event.get("name") == "process_name":
                process_names.add(event.get("pid"))
            else:
                thread_names.add((event.get("pid"), event.get("tid")))
        elif phase == "X":
            if event.get("cat") == "run":
                run_tracks.add(event.get("pid"))
            elif event.get("cat") == "op":
                op_slices += 1
        elif phase == "s":
            flow_starts.add(event.get("id"))
        elif phase == "f":
            flow_finishes.add(event.get("id"))
    if not process_names:
        problems.append("no process_name metadata (per-cluster tracks)")
    if not thread_names:
        problems.append("no thread_name metadata (per-node tracks)")
    for pid in sorted(process_names):
        if not any(track_pid == pid for track_pid, _tid in thread_names):
            problems.append(f"cluster pid={pid} has no node tracks")
    if not run_tracks:
        problems.append("no run-level root slice (cat='run')")
    unmatched = flow_finishes - flow_starts
    if unmatched:
        problems.append(
            f"{len(unmatched)} flow finish(es) without a matching start"
        )
    other = payload.get("otherData", {})
    if isinstance(other, dict) and "health" in other:
        _check_health(other["health"], problems)
    return problems


def main(argv):
    if len(argv) < 2:
        print("usage: check_trace_schema.py TRACE.json", file=sys.stderr)
        return 2
    path = argv[1]
    try:
        payload = json.loads(Path(path).read_text())
    except FileNotFoundError:
        print(f"{path}: not found", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"{path}: invalid JSON ({exc})", file=sys.stderr)
        return 1
    problems = validate(payload)
    if problems:
        for problem in problems:
            print(f"{path}: {problem}", file=sys.stderr)
        return 1
    events = payload["traceEvents"]
    phases = sorted({event.get("ph") for event in events})
    print(f"{path}: ok ({len(events)} events, phases {phases})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
