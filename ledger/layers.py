"""The table of public entry points the tracer shims, one row per boundary.

Every row names a *public* attribute by dotted path, so the benchmark
keeps working across refactors: a path that no longer resolves is listed
under ``absent`` in the trace record and the metrics fed by it read
``null`` — never a crash.  Rows:

``(target, how, layer, options)``

* ``CALL``    — wrap a function or method; one span per call.  Coroutine
  functions get the stepping proxy instead (one span per ``send`` step).
* ``HANDLERS``— wrap ``Process.register_handler`` so every handler
  registered afterwards is shimmed; the layer is the handler's own
  module (``repro.<layer>…``).
* ``STEPPED`` — the target is a registry of classes (``ALGORITHMS``);
  wrap the coroutine methods named in ``methods`` wherever the class
  hierarchy defines them.

Options: ``also`` lists modules that imported the function by name and
whose binding must be patched too; ``capture`` is the positional index
of an argument to keep for the replay probes.
"""

from __future__ import annotations

__all__ = ["CALL", "HANDLERS", "STEPPED", "ENTRY_POINTS"]

CALL = "call"
HANDLERS = "handlers"
STEPPED = "stepped"

ENTRY_POINTS: tuple[tuple[str, str, str | None, dict], ...] = (
    ("repro.sim.kernel.Kernel.run_until_complete", CALL, "sim", {}),
    ("repro.net.network.Network.send", CALL, "net", {"capture": 3}),
    ("repro.runtime.udp.UdpNetwork.send", CALL, "runtime", {"capture": 3}),
    ("repro.net.message.Message.wire_size", CALL, "net", {}),
    ("repro.net.codec.encode_message", CALL, "net", {"also": ("repro.runtime.udp",)}),
    ("repro.net.codec.decode_message", CALL, "net", {"also": ("repro.runtime.udp",)}),
    ("repro.net.node.Process.register_handler", HANDLERS, None, {}),
    ("repro.net.quorum.AckCollector.__enter__", CALL, "net", {}),
    ("repro.net.quorum.AckCollector.offer", CALL, "net", {}),
    (
        "repro.core.cluster.ALGORITHMS",
        STEPPED,
        "core",
        {"methods": ("write", "snapshot", "do_forever_iteration")},
    ),
    ("repro.backend.base.ClusterBackend.submit_write", CALL, "backend", {}),
    ("repro.backend.base.ClusterBackend.submit_snapshot", CALL, "backend", {}),
    ("repro.backend.base.ClusterBackend.write", CALL, "backend", {}),
    ("repro.backend.base.ClusterBackend.snapshot", CALL, "backend", {}),
    ("repro.shard.fabric.ShardedFabric.slot_of", CALL, "shard", {}),
    ("repro.shard.fabric.ShardedFabric.submit_write", CALL, "shard", {}),
    ("repro.shard.fabric.ShardedFabric.submit_scan", CALL, "shard", {}),
    ("repro.shard.fabric.ShardedFabric.compose_snapshot", CALL, "shard", {}),
    ("repro.client.SnapshotClient.check", CALL, "shard", {}),
    ("repro.analysis.history.HistoryRecorder.invoke", CALL, "analysis", {}),
    ("repro.analysis.history.HistoryRecorder.respond", CALL, "analysis", {}),
    (
        "repro.analysis.linearizability.check_snapshot_history",
        CALL,
        "analysis",
        {"also": ("repro.shard.check",)},
    ),
    ("repro.analysis.invariants.definition1_consistent", CALL, "analysis", {}),
    ("repro.fault.transient.TransientFaultInjector.scramble_everything", CALL, "fault", {}),
)
