"""Which public call of which layer the traced run wraps, and the
per-layer metrics computed from the spans.

Every wrapper carries a label (the call it wraps) and the span name its
time is booked under; several calls of one layer may share a span name.
``FIRES`` states, for every label, the workloads whose traced run must
call it at least once: a layer metric that should move on a workload is
only trustworthy if its wrapper demonstrably fired there.
"""

from __future__ import annotations

import time
from typing import Any

from .tracing import SpanRecorder, patch_function, patch_method

ALL = ("ring-lookups", "ring-monitored", "tree-steering", "tree-tcp")
SIM = ("ring-lookups", "ring-monitored", "tree-steering")
TRAFFIC = ("ring-lookups", "ring-monitored", "tree-tcp")
PROPERTIES_ON = ("ring-monitored", "tree-steering")

#: label -> workloads whose traced run must call it.
FIRES = {
    "Simulator.run": SIM,
    "NodeState.clone": ALL,
    "WorkloadSpec.make_request": TRAFFIC,
    "LivePropertyMonitor.__call__": ALL,
    "SafetyProperty.violations": PROPERTIES_ON,
    "NodeScopedProperty.violations_at": PROPERTIES_ON,
    "CrystalBallController.on_tick": ALL,
    "CrystalBallController.handle_control_message": ALL,
    "PeerTransferCache.transfer_cost": ALL,
    "NeighborhoodSnapshot.to_global_state": ALL,
    "SearchEngine.run": ALL,
    "TransitionSystem.apply": ALL,
    "GlobalState.state_hash": ALL,
    "evaluate_violation": ("tree-steering",),
    "ImmediateSafetyCheck.check": ("tree-steering",),
    "replay_error_path": ("tree-steering",),
    "freeze": ALL,
    "to_compact_bytes": ALL,
    "compressed_size": ALL,
    # Checkpoint answers to a peer that already holds an earlier one: the
    # ring workloads deep-check a node once per 16 rounds (160 s), so in
    # their 60 s no peer is asked twice and the delta path stays cold.
    "diff_size": ("tree-steering", "tree-tcp"),
    "delta_size": (),
    "from_compact_bytes": ("tree-tcp",),
    "encode_frame": ("tree-tcp",),
    # The tcp reader decodes inline (decode_header + from_compact_bytes);
    # decode_frame is the offline decoder and fires on no workload.
    "decode_frame": (),
    "decode_header": ("tree-tcp",),
    "write_frame": ("tree-tcp",),
    "read_frame": ("tree-tcp",),
    "AsyncioTcpBackend.run": ("tree-tcp",),
}


class TimedEngine:
    """A ``SearchEngine`` that times each consequence-prediction search.

    Only searches whose start snapshot holds at least two nodes are
    latency samples; a lone-node snapshot has nothing to predict across
    and finishes in well under a millisecond, so mixing the two would put
    the median in the gap between them.
    """

    def __init__(self) -> None:
        from repro.mc.parallel import SerialEngine

        self.inner = SerialEngine()
        #: (wall seconds, events applied) of each search from a snapshot
        #: of >= 2 nodes.
        self.samples: list[tuple[float, int]] = []
        self.lone_node_runs = 0
        self.states_visited = 0
        self.transitions = 0
        self.duplicates = 0

    def run(self, system, first_state, properties, budget=None, **kwargs):
        started = time.perf_counter()
        result = self.inner.run(system, first_state, properties, budget,
                                **kwargs)
        elapsed = time.perf_counter() - started
        stats = result.stats
        if len(first_state.nodes) >= 2:
            self.samples.append((elapsed, stats.transitions_applied))
        else:
            self.lone_node_runs += 1
        self.states_visited += stats.states_visited
        self.transitions += stats.transitions_applied
        self.duplicates += stats.duplicate_states
        return result


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's public calls (load the whole stack first so
    each module global that binds a wrapped function exists)."""
    from repro.api import list_systems
    from repro.backends import AsyncioTcpBackend, backend_names, wire
    from repro.core.checkpoint import PeerTransferCache
    from repro.core.controller import CrystalBallController
    from repro.core.immediate import ImmediateSafetyCheck
    from repro.core.monitor import LivePropertyMonitor
    from repro.core.replay import replay_error_path
    from repro.core.snapshot import NeighborhoodSnapshot
    from repro.core.steering import evaluate_violation
    from repro.mc.global_state import GlobalState
    from repro.mc.transition import TransitionSystem
    from repro.properties import NodeScopedProperty, SafetyProperty
    from repro.runtime import serialization
    from repro.runtime.simulator import Simulator
    from repro.runtime.state import NodeState

    list_systems()
    backend_names()
    for cls, method, span in (
            (Simulator, "run", "runtime.run"),
            (AsyncioTcpBackend, "run", "tcp.run"),
            (NodeState, "clone", "runtime.clone"),
            (LivePropertyMonitor, "__call__", "monitor"),
            (SafetyProperty, "violations", "properties.check"),
            (NodeScopedProperty, "violations_at", "properties.check"),
            (CrystalBallController, "on_tick", "controller"),
            (CrystalBallController, "handle_control_message",
             "controller.control_msg"),
            (NeighborhoodSnapshot, "to_global_state", "controller"),
            (PeerTransferCache, "transfer_cost", "checkpoint.cost"),
            (TransitionSystem, "apply", "mc.apply"),
            (GlobalState, "state_hash", "mc.hash"),
            (ImmediateSafetyCheck, "check", "isc.check")):
        patch_method(recorder, cls, method, span)
    # The engine the benchmark hands to CrystalBall is the search layer's
    # entry point: its span is the whole prediction search.
    TimedEngine.run = recorder.wrap("mc.search", vars(TimedEngine)["run"],
                                    "SearchEngine.run")
    patch_function(recorder, evaluate_violation, "steering.vet")
    patch_function(recorder, replay_error_path, "replay")
    # freeze recurses through its own module global; wrapping it there
    # would open a span per nesting level, so only its callers see it.
    patch_function(recorder, serialization.freeze, "serialization.freeze",
                   skip_modules=("repro.runtime.serialization",))
    for fn in (serialization.to_compact_bytes,
               serialization.from_compact_bytes,
               serialization.compressed_size, serialization.diff_size,
               serialization.delta_size):
        patch_function(recorder, fn, "serialization.compact")
    patch_function(recorder, wire.encode_frame, "wire.encode")
    patch_function(recorder, wire.decode_frame, "wire.decode")
    patch_function(recorder, wire.decode_header, "wire.decode")
    patch_function(recorder, wire.write_frame, "wire.write")
    patch_function(recorder, wire.read_frame, "wire.read")


def wrap_request(recorder: SpanRecorder):
    """Request-factory wrapper for :class:`workloads.Plan`."""
    return lambda fn: recorder.wrap("workload.make_request", fn,
                                    "WorkloadSpec.make_request")


def unfired(recorder: SpanRecorder, workload: str) -> list[str]:
    """Labels that should have fired on ``workload`` but did not."""
    return sorted(label for label, where in FIRES.items()
                  if workload in where and recorder.calls[label] == 0)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(recorder: SpanRecorder, report: Any,
              engine: TimedEngine) -> dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``.

    Times are self times in seconds.  Counts read from the run report and
    its live handles; the monitor and message counters come from the
    run's ``repro.obs`` metrics, which the traced run enables.
    """
    self_s, total_s, spans = recorder.totals()
    get = self_s.get
    counters = report.metrics.get("counters", {})
    totals = report.totals()
    workload = report.workload
    attempted = (workload.get("requests_injected", 0)
                 + workload.get("requests_skipped", 0))
    completed = workload.get("requests_completed", 0)
    wire_report = report.outcome.get("wire", {})
    computed = counters.get("monitor.node_checks_computed", 0)
    cached = counters.get("monitor.node_checks_cached", 0)
    frames = recorder.calls["write_frame"]
    vetted = recorder.calls["evaluate_violation"]
    return {
        "runtime.events": (report.simulator.events_executed, "count"),
        "runtime.self_s": (get("runtime.run", 0.0), "s"),
        "runtime.messages_delivered": (
            counters.get("runtime.messages_delivered", 0), "count"),
        "runtime.messages_dropped": (
            counters.get("runtime.messages_dropped", 0), "count"),
        "runtime.state_clones": (spans.get("runtime.clone", 0), "count"),
        "runtime.state_clone_s": (get("runtime.clone", 0.0), "s"),
        "workload.requests_injected": (
            workload.get("requests_injected", 0), "count"),
        "workload.requests_completed": (completed, "count"),
        "workload.requests_skipped": (
            workload.get("requests_skipped", 0), "count"),
        "workload.requests_failed_pct": (
            100.0 * _ratio(max(0, attempted - completed), attempted), "%"),
        "workload.make_request_s": (get("workload.make_request", 0.0), "s"),
        "monitor.s": (get("monitor", 0.0), "s"),
        "monitor.events_checked": (
            report.live_monitor.events_checked, "count"),
        "monitor.inconsistent_states": (
            report.live_inconsistent_states(), "count"),
        "monitor.node_checks_computed": (computed, "count"),
        "monitor.node_checks_cached": (cached, "count"),
        "monitor.cache_hit_ratio": (_ratio(cached, computed + cached),
                                    "ratio"),
        "properties.check_s": (get("properties.check", 0.0), "s"),
        "controller.self_s": (get("controller", 0.0), "s"),
        "controller.control_msg_s": (get("controller.control_msg", 0.0),
                                     "s"),
        "checkpoint.cost_s": (get("checkpoint.cost", 0.0), "s"),
        "controller.snapshots_collected": (
            totals["snapshots_collected"], "count"),
        "controller.incomplete_snapshots": (
            totals["incomplete_snapshots"], "count"),
        "controller.snapshot_complete_ratio": (
            1.0 - _ratio(totals["incomplete_snapshots"],
                         totals["snapshots_collected"]), "ratio"),
        "controller.checkpoint_bytes": (report.checkpoint_bytes(), "bytes"),
        "controller.violations_predicted": (
            report.total_predicted(), "count"),
        "mc.search_s": (get("mc.search", 0.0), "s"),
        "mc.runs": (len(engine.samples), "count"),
        "mc.lone_node_runs": (engine.lone_node_runs, "count"),
        "mc.states_visited": (engine.states_visited, "count"),
        "mc.transitions": (engine.transitions, "count"),
        "mc.states_per_s": (
            _ratio(engine.states_visited, total_s.get("mc.search", 0.0)),
            "1/s"),
        "mc.apply_s": (get("mc.apply", 0.0), "s"),
        "mc.hash_s": (get("mc.hash", 0.0), "s"),
        "mc.duplicate_ratio": (_ratio(engine.duplicates, engine.transitions),
                               "ratio"),
        "steering.vet_s": (get("steering.vet", 0.0), "s"),
        "steering.filters_installed": (totals["filters_installed"],
                                       "count"),
        "steering.unhelpful_ratio": (
            _ratio(totals["steering_unhelpful"], vetted), "ratio"),
        "isc.check_s": (get("isc.check", 0.0), "s"),
        "isc.checks": (totals["isc_checks"], "count"),
        "isc.blocks": (totals["isc_blocks"], "count"),
        "replay.s": (get("replay", 0.0), "s"),
        "replay.reproduced_ratio": (
            _ratio(totals["replay_reproduced"], totals["replayed_paths"]),
            "ratio"),
        "serialization.freeze_s": (get("serialization.freeze", 0.0), "s"),
        "serialization.freeze_calls": (
            spans.get("serialization.freeze", 0), "count"),
        "serialization.compact_s": (get("serialization.compact", 0.0), "s"),
        "wire.encode_s": (get("wire.encode", 0.0), "s"),
        "wire.decode_s": (get("wire.decode", 0.0), "s"),
        "wire.frames": (frames, "count"),
        "wire.bytes_per_frame": (
            _ratio(recorder.returned["write_frame"], frames), "bytes"),
        "wire.fallback_local": (wire_report.get("fallback_local", 0),
                                "count"),
        "tcp.wait_s": (get("tcp.run", 0.0), "s"),
        "bench.spans": (len(recorder.start), "count"),
    }
