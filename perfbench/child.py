"""One benchmark run of one workload in a fresh process.

Invoked by ``run.py`` as ``python -m perfbench.child '<json request>'``
with ``src`` on ``PYTHONPATH``; prints one JSON object as its last line.
Request kinds:

``timed``
    Import the stack, run the experiment once with ``max_events(0)``
    (set-up: registry, backend, nodes, controllers, monitor, listeners),
    then run it in full with tracing and ``repro.obs`` off.
``traced``
    Wrap every layer's public calls, enable ``repro.obs`` metrics, run in
    full, write the spans out and report the per-layer metrics.
``reference``
    A comparison run for the output checks (CrystalBall off, or the sim
    backend), reporting the same counts as ``timed``.
``warm``
    Import the stack only, so no timed run pays for compiling modules.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path


def _counts(report, engine) -> dict:
    """The deterministic outcome of one run."""
    from repro.backends import protocol_state_digest

    workload = report.workload
    wire_report = report.outcome.get("wire", {})
    held = [checkpoint.compressed_bytes()
            for controller in report.controllers.values()
            for checkpoint in controller.store.checkpoints]
    return {
        "events": report.simulator.events_executed,
        "requests_injected": workload.get("requests_injected", 0),
        "requests_completed": workload.get("requests_completed", 0),
        "requests_skipped": workload.get("requests_skipped", 0),
        "events_checked": report.live_monitor.events_checked,
        "inconsistent_states": report.live_inconsistent_states(),
        "violations_predicted": report.total_predicted(),
        "checkpoint_bytes": report.checkpoint_bytes(),
        "checkpoint_size": sum(held) / len(held) if held else 0.0,
        "nodes": report.node_count,
        "searches": len(engine.samples) if engine else 0,
        "lone_node_searches": engine.lone_node_runs if engine else 0,
        "transitions": engine.transitions if engine else 0,
        "fallback_local": wire_report.get("fallback_local", 0),
        "frames": wire_report.get("frames_sent", 0),
        "digest": protocol_state_digest(report.simulator),
    }


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(request: dict) -> dict:
    started = time.perf_counter()
    import repro.api  # noqa: F401

    from perfbench.layers import TimedEngine
    from perfbench.workloads import Plan, build

    import_s = time.perf_counter() - started
    plan = Plan(name=request["workload"], seed=request["seed"],
                length=request.get("length", 1.0))
    started = time.perf_counter()
    build(replace(plan, max_events=0)).run()
    setup_run_s = time.perf_counter() - started

    engine = TimedEngine()
    experiment = build(replace(plan, engine=engine))
    started = time.perf_counter()
    report = experiment.run()
    wall_s = time.perf_counter() - started
    return {"setup_s": import_s + setup_run_s, "wall_s": wall_s,
            "samples": engine.samples, "peak_rss_mb": _peak_rss_mb(),
            **_counts(report, engine)}


def traced(request: dict) -> dict:
    from perfbench.layers import TimedEngine, install, per_layer, unfired
    from perfbench.layers import wrap_request
    from perfbench.tracing import SpanRecorder
    from perfbench.workloads import Plan, build

    recorder = SpanRecorder()
    install(recorder)
    engine = TimedEngine()
    experiment = build(Plan(name=request["workload"], seed=request["seed"],
                            length=request.get("length", 1.0), engine=engine,
                            wrap_request=wrap_request(recorder),
                            metrics=True))
    started = time.perf_counter()
    report = experiment.run()
    wall_s = time.perf_counter() - started
    recorder.write(Path(request["spans_path"]))
    # Layer figures first: the counts below call wrapped functions too.
    layers = per_layer(recorder, report, engine)
    unfired_labels = unfired(recorder, request["workload"])
    return {"wall_s": wall_s, "unfired": unfired_labels, "per_layer": layers,
            **_counts(report, engine)}


def reference(request: dict) -> dict:
    from perfbench.workloads import Plan, build

    report = build(Plan(name=request["workload"], seed=request["seed"],
                        length=request.get("length", 1.0),
                        mode=request.get("mode"),
                        backend=request.get("backend"))).run()
    return _counts(report, None)


def warm(request: dict) -> dict:
    """Import the whole stack once, so later runs find compiled modules."""
    from repro.api import list_systems
    from repro.backends import backend_names

    return {"systems": len(list_systems()), "backends": backend_names()}


def main(argv: list[str]) -> int:
    request = json.loads(argv[1])
    kinds = {"timed": timed, "traced": traced, "reference": reference,
             "warm": warm}
    result = kinds[request["kind"]](request)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
