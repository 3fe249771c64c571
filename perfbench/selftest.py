"""The benchmark's own tests, at a reduced simulated length.

Run from the repository root (the file is not collected by the
repository's own test suite; name it explicitly)::

    python -m pytest perfbench/selftest.py -q

They check that a workload replays identical deterministic counts for
one seed and different ones for another, that the traced run executes
the same events as the untraced one and fires every wrapper its
workload should exercise, that the command's output carries exactly the
metrics ``BENCHMARK.json`` names, and that it fails cleanly without the
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402
from perfbench.tracing import SpanRecorder  # noqa: E402
from perfbench.workloads import NAMES  # noqa: E402

#: Scale on simulated duration for every test run.
LENGTH = 0.5
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: The counts the benchmark asserts are fixed by the seed.
COUNTS = ("events", "requests_injected", "requests_completed",
          "requests_skipped", "violations_predicted", "inconsistent_states",
          "checkpoint_bytes", "transitions", "digest")


def child(kind: str, workload: str, seed: int, **extra) -> dict:
    children = run.Children(deadline=time.monotonic() + 170.0)
    return children.run({"kind": kind, "workload": workload, "seed": seed,
                         "length": LENGTH, **extra})


def command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=175)


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_same_counts_other_seed_other_events(workload):
    first = child("timed", workload, 3)
    again = child("timed", workload, 3)
    other = child("timed", workload, 4)
    assert {key: first[key] for key in COUNTS} == \
        {key: again[key] for key in COUNTS}
    assert first["events"] != other["events"]


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_matches_untraced_and_fires_every_wrapper(workload):
    untraced = child("timed", workload, 5)
    traced = child("traced", workload, 5,
                   spans_path=str(ROOT / ".perfbench_out" / "selftest.spans"))
    assert {key: traced[key] for key in COUNTS} == \
        {key: untraced[key] for key in COUNTS}
    assert traced["unfired"] == []
    names = {metric["name"] for metric in SPEC["per_layer"]}
    assert set(traced["per_layer"]) | {"bench.trace_overhead_pct"} == names


def test_command_prints_the_contract_for_both_modes():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = command("--workload", "tree-tcp", "--seed", "2",
                       "--seconds", "1", "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {metric["name"]: metric["unit"]
                    for metric in SPEC[section]}
        assert {name: value["unit"]
                for name, value in result["metrics"].items()} == expected
        if section == "end_to_end":
            assert all(value["value"] > 0
                       for value in result["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = command("--workload", "ring-lookups", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_subtracts_direct_children(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
    recorder = SpanRecorder()
    leaf = recorder.wrap("leaf", lambda: None, "leaf")
    outer = recorder.wrap("outer", lambda: (leaf(), leaf()), "outer")
    outer()
    self_s, total_s, spans = recorder.totals()
    # outer spans 0..10, its two leaves 1..3 and 4..5.
    assert spans == {"leaf": 2, "outer": 1}
    assert total_s == {"leaf": 3.0, "outer": 10.0}
    assert self_s == {"leaf": 3.0, "outer": 7.0}
    assert recorder.calls == {"leaf": 2, "outer": 1}


def test_percentile_interpolates():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert run.percentile([5.0], 0.9) == 5.0
    assert run.percentile(list(range(11)), 0.9) == 9.0
