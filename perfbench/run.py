"""The repository benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ring-lookups --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` runs fresh child processes of the workload one after
another, each timed with tracing and ``repro.obs`` off, until
``--seconds`` of wall time are spent, and reports the end-to-end metrics
(medians over those runs).  ``--trace 1`` runs the workload once untraced
and once with every layer's public calls wrapped, and reports the
per-layer metrics, including the tracing overhead.  Either way the
workload's outputs are checked; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A failed
check sets ``correct`` to false and the exit code to 1.

The benchmark builds nothing: it runs the sources under ``src`` of the
checkout it sits in, and exits with code 2 when they are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import NAMES  # noqa: E402

#: Every run of this script ends within this many wall seconds.
HARD_LIMIT_S = 170.0
#: Spans of traced runs are written here, inside the checkout.
SPANS_DIR = ROOT / ".perfbench_out"

#: Counts that must be identical across runs of one workload and seed.
DETERMINISTIC = ("events", "requests_injected", "requests_completed",
                 "requests_skipped", "events_checked", "inconsistent_states",
                 "violations_predicted", "checkpoint_bytes", "checkpoint_size",
                 "searches",
                 "lone_node_searches", "transitions", "fallback_local",
                 "frames", "digest")


class BenchmarkError(RuntimeError):
    """A child process failed; the run has no result."""


class Children:
    """Runs child processes one at a time under the run's deadline."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ,
                        PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0")

    def run(self, request: dict) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchmarkError("out of time before the next child run")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "perfbench.child", json.dumps(request)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchmarkError(
                f"{request['kind']} run exceeded the time limit") from None
        if done.returncode != 0:
            raise BenchmarkError(
                f"{request['kind']} run failed (exit {done.returncode}):\n"
                f"{done.stderr.strip()[-4000:]}")
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise BenchmarkError(f"{request['kind']} run printed no result")
        return json.loads(lines[-1])


# ----------------------------------------------------------------- checks

def check_outputs(workload: str, runs: list[dict],
                  references: dict[str, dict]) -> list[str]:
    """The workload's output checks; returns the failures."""
    failures = []
    first = runs[0]
    for key in DETERMINISTIC:
        values = {json.dumps(run[key]) for run in runs}
        if len(values) > 1:
            failures.append(f"{key} differs between runs of one seed: "
                            f"{sorted(values)}")
    if first["searches"] < 1:
        failures.append("no prediction search ran from a snapshot of "
                        ">= 2 nodes")
    if first["checkpoint_size"] <= 0:
        failures.append("no controller holds a checkpoint")
    if workload.startswith("ring-") and first["requests_completed"] <= 0:
        failures.append("no lookup completed")
    if workload == "tree-tcp":
        sim = references["sim"]
        if first["fallback_local"] != 0:
            failures.append(f"{first['fallback_local']} deliveries skipped "
                            f"the wire")
        if first["frames"] <= 0:
            failures.append("no frame crossed a socket")
        if first["digest"] != sim["digest"]:
            failures.append("final protocol state differs from the sim "
                            "backend run of the same seed")
        if first["events"] != sim["events"]:
            failures.append(f"tcp executed {first['events']} events, "
                            f"sim {sim['events']}")
    if workload == "tree-steering":
        off = references["off"]["inconsistent_states"]
        steered = first["inconsistent_states"]
        if off <= 0:
            failures.append("the CrystalBall-off run shows no inconsistent "
                            "state to prevent")
        if steered >= off:
            failures.append(f"steering left {steered} inconsistent states, "
                            f"CrystalBall off {off}")
        if first["violations_predicted"] <= 0:
            failures.append("steering predicted no violation")
    return failures


def references_for(workload: str, seed: int,
                   children: Children) -> dict[str, dict]:
    """Comparison runs the output checks need (same seed)."""
    base = {"kind": "reference", "workload": workload, "seed": seed}
    if workload == "tree-steering":
        return {"off": children.run({**base, "mode": "off"})}
    if workload == "tree-tcp":
        return {"sim": children.run({**base, "backend": "sim"})}
    return {}


# ---------------------------------------------------------------- metrics

def percentile(samples: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``samples`` (0 when empty; the
    output checks fail such a run)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(runs: list[dict]) -> dict[str, tuple]:
    """The bounded end-to-end metrics over the timed runs of one seed.

    Every one is defined, and never 0, on every workload, and none swings
    with the seed by more than its bound (see README.md): events count
    handler executions live and inside prediction searches, and the
    prediction cost is wall time per event a search explores.
    """
    first = runs[0]
    per_event = [seconds / events for run in runs
                 for seconds, events in run["samples"] if events]
    attempted = first["requests_injected"] + first["requests_skipped"]
    return {
        "events_per_s": (statistics.median(
            (run["events"] + run["transitions"]) / run["wall_s"]
            for run in runs), "1/s"),
        "predict_event_us_p50": (1e6 * percentile(per_event, 0.5), "us"),
        "predict_event_us_p90": (1e6 * percentile(per_event, 0.9), "us"),
        "requests_completed_pct": (
            100.0 * completed(first) / attempted if attempted else 100.0,
            "%"),
        "checkpoint_size": (first["checkpoint_size"], "bytes"),
        "peak_rss_mb": (statistics.median(
            run["peak_rss_mb"] for run in runs), "MB"),
        "setup_s": (statistics.median(run["setup_s"] for run in runs), "s"),
    }


def completed(run: dict) -> int:
    """Requests completed, at most those attempted: completion counts
    reply messages, which a protocol may also send on its own (randtree's
    recovery path answers with the probe reply)."""
    return min(run["requests_completed"],
               run["requests_injected"] + run["requests_skipped"])


def report_lines(workload: str, runs: list[dict]) -> list[str]:
    """The issue-level view of one seed: live events per second, raw
    prediction latency and the outcome counts, with units and samples."""
    first = runs[0]
    latencies = [seconds for run in runs for seconds, _ in run["samples"]]
    attempted = first["requests_injected"] + first["requests_skipped"]
    failed_pct = (100.0 * (attempted - completed(first)) / attempted
                  if attempted else 0.0)
    rows = [
        ("live_events_per_s", statistics.median(
            run["events"] / run["wall_s"] for run in runs), "1/s"),
        ("predict_p50_ms", 1000.0 * percentile(latencies, 0.5), "ms"),
        ("predict_p90_ms", 1000.0 * percentile(latencies, 0.9), "ms"),
        ("requests_failed_pct", failed_pct, "%"),
        ("control_bytes_per_node",
         first["checkpoint_bytes"] / first["nodes"], "bytes"),
        ("inconsistent_states", first["inconsistent_states"], "count"),
        ("violations_predicted", first["violations_predicted"], "count"),
    ]
    lines = [f"# {workload}: {len(runs)} timed runs of {first['events']} "
             f"events; {first['searches']} searches from >= 2-node "
             f"snapshots per run (+{first['lone_node_searches']} lone-node), "
             f"{len(latencies)} latency samples; requests "
             f"{first['requests_injected']} injected, "
             f"{first['requests_completed']} completed, "
             f"{first['requests_skipped']} skipped"]
    lines += [f"# {workload:>15} {name:<28} {value:>14.4f} {unit}"
              for name, value, unit in rows]
    return lines


def tally(first: dict) -> tuple[int, int]:
    """(attempted, failed) operations of one run: requests plus
    prediction searches; failed requests (never completed or skipped at
    a dead node) plus deliveries that skipped the tcp wire."""
    attempted = first["requests_injected"] + first["requests_skipped"]
    failed = attempted - completed(first)
    searches = first["searches"] + first["lone_node_searches"]
    return attempted + searches, failed + first["fallback_local"]


# ------------------------------------------------------------------- main

def measure(args, children: Children):
    references = references_for(args.workload, args.seed, children)
    request = {"kind": "timed", "workload": args.workload, "seed": args.seed}
    started = time.monotonic()
    runs = [children.run(request)]
    while time.monotonic() - started < args.seconds:
        runs.append(children.run(request))
    failures = check_outputs(args.workload, runs, references)
    print("\n".join(report_lines(args.workload, runs)))
    attempted, failed = tally(runs[0])
    return end_to_end(runs), attempted, failed, failures


def trace(args, children: Children):
    request = {"kind": "timed", "workload": args.workload, "seed": args.seed}
    untraced = children.run(request)
    spans_path = SPANS_DIR / f"{args.workload}-seed{args.seed}.spans"
    traced = children.run({**request, "kind": "traced",
                           "spans_path": str(spans_path)})
    failures = check_outputs(
        args.workload, [untraced, traced],
        references_for(args.workload, args.seed, children))
    failures += [f"wrapper {label} never fired"
                 for label in traced["unfired"]]
    metrics = {name: tuple(value)
               for name, value in traced["per_layer"].items()}
    metrics["bench.trace_overhead_pct"] = (
        100.0 * (traced["wall_s"] / untraced["wall_s"] - 1.0), "%")
    print(f"# {args.workload} seed={args.seed}: traced run "
          f"{traced['wall_s']:.2f} s, untraced {untraced['wall_s']:.2f} s; "
          f"spans in {spans_path.relative_to(ROOT)}")
    attempted, failed = tally(untraced)
    return metrics, attempted, failed, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    children = Children(deadline=time.monotonic() + HARD_LIMIT_S)
    try:
        children.run({"kind": "warm"})
        metrics, attempted, failed, failures = (
            trace(args, children) if args.trace else measure(args, children))
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>15} {name:<36} {value:>14.4f} {unit}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
