"""The four benchmark workloads, each an open loop in simulated time.

Every workload is a live :class:`repro.api.Experiment`; the benchmark
seed is the experiment seed, so the same seed replays the same inputs.
Each builder takes ``length`` (a scale on simulated duration, used by
the self-tests to run shortened copies) and the hooks the benchmark
threads through the public API: a search engine (for prediction-latency
timing) and a wrapper for the workload's request factory (for tracing).

See README.md in this directory for why each workload exists and which
layer it isolates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

NAMES = ("ring-lookups", "ring-monitored", "tree-steering", "tree-tcp")

#: Simulated seconds left after the request stream closes, so requests
#: still in flight at the cut can finish instead of reading as failures.
DRAIN_SECONDS = 10.0


@dataclass(frozen=True)
class Plan:
    """Knobs of one workload run."""

    name: str
    seed: int
    #: Scale on simulated duration (1.0 = the benchmark's full length).
    length: float = 1.0
    #: ``SearchEngine`` instance for consequence prediction (None = serial).
    engine: Any = None
    #: Wraps the workload's request factory (tracing); None = unwrapped.
    wrap_request: Optional[Callable[[Callable], Callable]] = None
    #: Override the CrystalBall mode (the tree-steering off-reference run).
    mode: Optional[str] = None
    #: Override the execution backend (the tree-tcp sim-reference run).
    backend: Optional[str] = None
    #: Stop after this many events (0 = the set-up-only run).
    max_events: Optional[int] = None
    #: Collect ``repro.obs`` metrics (traced runs only).
    metrics: bool = False


def _crystalball_config(spec, mode, budget, **settings):
    from repro.api.experiment import parse_mode
    from repro.core.controller import CrystalBallConfig

    return CrystalBallConfig(mode=parse_mode(mode), search_budget=budget,
                             transition=spec.transition_factory(), **settings)


def _traffic(experiment, workload, plan, *, duration, **shape):
    spec = experiment.spec.workload(workload)
    stream = duration - shape["start"] - DRAIN_SECONDS
    spec = spec.with_traffic(duration=stream, **shape)
    if plan.wrap_request is not None:
        spec = replace(spec, make_request=plan.wrap_request(spec.make_request))
    return experiment.workload(spec)


def _ring(plan: "Plan", nodes: int, properties_on: bool):
    from repro.api import Experiment
    from repro.core.controller import CheckingPolicy
    from repro.mc import SearchBudget

    duration = 60.0 * plan.length
    experiment = (Experiment("chord").nodes(nodes).duration(duration)
                  .churn(False).max_events(4_000_000).seed(plan.seed))
    if not properties_on:
        experiment.properties()
    _traffic(experiment, "lookups", plan, duration=duration,
             rate=2.0 * nodes, burst=max(4, nodes // 16),
             start=duration / 3)
    config = _crystalball_config(
        experiment.spec, plan.mode or "debug",
        SearchBudget(max_states=8, max_depth=2),
        checking=CheckingPolicy(period=16, seed=0),
        delta_checkpoints=True, batched_control_plane=True,
        engine=plan.engine or "serial")
    return experiment.crystalball(config=config)


def _tree_steering(plan: "Plan"):
    from repro.api import Experiment
    from repro.mc import SearchBudget

    experiment = (Experiment("randtree").nodes(6)
                  .duration(300.0 * plan.length)
                  .churn(interval=60.0).network(rst_loss=0.6)
                  .options(bootstrap_index=1, max_children=2,
                           fix_recovery_timer=True)
                  .max_events(150_000).seed(plan.seed))
    config = _crystalball_config(
        experiment.spec, plan.mode or "steering",
        SearchBudget(max_states=400, max_depth=6),
        engine=plan.engine or "serial")
    return experiment.crystalball(config=config)


def _tree_tcp(plan: "Plan"):
    from repro.api import Experiment
    from repro.mc import SearchBudget

    duration = 120.0 * plan.length
    experiment = (Experiment("randtree").nodes(16).duration(duration)
                  .churn(False).properties().max_events(1_000_000)
                  .seed(plan.seed).backend(plan.backend or "tcp"))
    _traffic(experiment, "probes", plan, duration=duration,
             rate=100.0, burst=10, start=duration / 2)
    config = _crystalball_config(
        experiment.spec, plan.mode or "debug",
        SearchBudget(max_states=16, max_depth=2),
        engine=plan.engine or "serial")
    return experiment.crystalball(config=config)


_BUILDERS = {
    "ring-lookups": lambda plan: _ring(plan, 256, properties_on=False),
    "ring-monitored": lambda plan: _ring(plan, 48, properties_on=True),
    "tree-steering": _tree_steering,
    "tree-tcp": _tree_tcp,
}


def build(plan: Plan):
    """The configured :class:`repro.api.Experiment` for ``plan``."""
    experiment = _BUILDERS[plan.name](plan)
    if plan.max_events is not None:
        experiment.max_events(plan.max_events)
    if plan.metrics:
        experiment.metrics()
    return experiment
