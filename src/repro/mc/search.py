"""The breadth-first search of the model checker, and its bookkeeping.

The exhaustive baseline (Figure 5) and consequence prediction (Figure 8)
are one breadth-first search with state-hash caching; Figure 8 only adds
the ``localExplored`` test that decides when a node's internal actions are
expanded.  :class:`BreadthFirstSearch` holds the two steps of that search —
*visit* a dequeued state and enumerate its *successors* — and every
executor runs them: the serial loop behind :func:`find_errors` and
:func:`consequence_prediction`, and each worker of the sharded
:class:`~repro.mc.parallel.sharded.ParallelEngine`.  This module also
holds the ``StopCriterion`` of the paper, expressed as a
:class:`SearchBudget`, and the statistics and results every search shares.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..properties import PropertyViolation, SafetyProperty, check_all
from ..runtime.events import Event
from ..runtime.serialization import freeze
from ..runtime.simulator import FilterAction
from .global_state import GlobalState
from .transition import TransitionSystem


class SearchKind(enum.Enum):
    """Which successor-enumeration rule a search run uses."""

    #: Figure 5: expand every enabled event of every visited state.
    EXHAUSTIVE = "exhaustive"
    #: Figure 8: expand internal actions only for unseen node-local states.
    CONSEQUENCE = "consequence"


#: Optional per-event steering hook used when vetting candidate event
#: filters: returns the filter action to apply to a matching event, or None
#: to execute the event normally.
EventFilterFn = Callable[[Event], Optional[FilterAction]]

#: One frontier entry: (state, its ``state_hash()``, depth, event path from
#: the start state).
FrontierItem = tuple

_DROPPING = (FilterAction.DROP, FilterAction.DROP_AND_RESET)


@dataclass
class SearchBudget:
    """The StopCriterion: bounds on how far a search may go.

    Any bound left ``None`` is unlimited.  ``exhausted`` is evaluated before
    each state expansion, mirroring the ``while (!StopCriterion)`` loop of
    Figures 5 and 8.
    """

    max_states: Optional[int] = 20000
    max_depth: Optional[int] = None
    max_seconds: Optional[float] = None
    #: Upper bound on the bytes held by queued frontier states; long-running
    #: searches stop rather than exhaust memory once the frontier exceeds it.
    max_frontier_bytes: Optional[int] = None
    stop_at_first_violation: bool = False
    #: Record every visited state hash in ``stats.visited_hashes`` — used by
    #: engine-equivalence checks; off by default to keep memory flat.
    record_visited_hashes: bool = False

    def exhausted(self, stats: "SearchStats") -> bool:
        if self.max_states is not None and stats.states_visited >= self.max_states:
            return True
        if self.max_seconds is not None and stats.elapsed_seconds >= self.max_seconds:
            return True
        if (self.max_frontier_bytes is not None
                and stats.frontier_bytes >= self.max_frontier_bytes):
            return True
        return False

    def depth_allowed(self, depth: int) -> bool:
        return self.max_depth is None or depth <= self.max_depth


@dataclass
class SearchStats:
    """Measurements of one search run (Figures 12, 15, 16)."""

    states_visited: int = 0
    states_enqueued: int = 0
    transitions_applied: int = 0
    duplicate_states: int = 0
    max_depth_reached: int = 0
    elapsed_seconds: float = 0.0
    #: bytes attributed to the search tree: frontier states plus hashes of
    #: explored states (the checker "does not cache previously visited
    #: states, it only stores their hashes", Section 5.5).
    peak_memory_bytes: int = 0
    explored_hash_bytes: int = 0
    #: bytes currently held by queued frontier states (kept up to date by the
    #: searches so ``SearchBudget.max_frontier_bytes`` can bound it).
    frontier_bytes: int = 0
    internal_actions_skipped: int = 0
    states_by_depth: dict[int, int] = field(default_factory=dict)
    #: hashes of every visited state, populated only when the budget sets
    #: ``record_visited_hashes``.
    visited_hashes: Optional[set[int]] = None

    def note_visited_hash(self, state_hash: int) -> None:
        if self.visited_hashes is None:
            self.visited_hashes = set()
        self.visited_hashes.add(state_hash)

    _started_at: float = field(default_factory=time.monotonic, repr=False)

    def touch_clock(self) -> None:
        self.elapsed_seconds = time.monotonic() - self._started_at

    def record_visit(self, depth: int) -> None:
        self.states_visited += 1
        self.max_depth_reached = max(self.max_depth_reached, depth)
        self.states_by_depth[depth] = self.states_by_depth.get(depth, 0) + 1
        self.touch_clock()

    def merge(self, other: "SearchStats") -> None:
        """Add the counters of ``other`` — one round of a sharded search, or
        one strategy of a portfolio — into these stats.

        ``explored_hash_bytes``, ``peak_memory_bytes`` and the clock
        describe a whole search, so the caller that owns it sets them.
        """
        self.states_visited += other.states_visited
        self.states_enqueued += other.states_enqueued
        self.transitions_applied += other.transitions_applied
        self.duplicate_states += other.duplicate_states
        self.internal_actions_skipped += other.internal_actions_skipped
        self.frontier_bytes += other.frontier_bytes
        self.max_depth_reached = max(self.max_depth_reached,
                                     other.max_depth_reached)
        for depth, count in other.states_by_depth.items():
            self.states_by_depth[depth] = self.states_by_depth.get(depth, 0) + count
        for state_hash in other.visited_hashes or ():
            self.note_visited_hash(state_hash)

    def memory_per_state(self) -> float:
        """Average bytes per visited state (Figure 16)."""
        if self.states_visited == 0:
            return 0.0
        return (self.peak_memory_bytes + self.explored_hash_bytes) / self.states_visited


@dataclass(frozen=True)
class PredictedViolation:
    """A property violation reachable from the search's start state.

    The event ``path`` is the sequence of handler executions leading from
    the start state to the violating state — exactly what the CrystalBall
    controller needs to build an event filter or a replayable error path.
    """

    violation: PropertyViolation
    path: tuple[Event, ...]
    depth: int
    state_hash: int

    def describe(self) -> str:
        steps = " -> ".join(e.describe() for e in self.path) or "(start state)"
        return f"{self.violation} via {steps}"


@dataclass
class SearchResult:
    """Outcome of one model-checking run."""

    violations: list[PredictedViolation]
    stats: SearchStats
    start_state: GlobalState

    @property
    def found_violation(self) -> bool:
        return bool(self.violations)

    def unique_property_names(self) -> set[str]:
        return {v.violation.property_name for v in self.violations}

    def shortest_violation(self) -> Optional[PredictedViolation]:
        if not self.violations:
            return None
        return min(self.violations, key=lambda v: v.depth)


class BreadthFirstSearch:
    """The dedup sets of one search and its two steps.

    :meth:`visit` handles a dequeued frontier item; :meth:`successors`
    returns the new frontier items it leads to.  The caller owns the
    frontier: the serial loop of :func:`breadth_first_search` keeps one
    FIFO queue, a sharded worker routes each successor to the shard that
    owns its hash.  ``stats``, ``violations`` and ``new_locals`` collect
    what the steps produce; a sharded worker swaps in fresh ones per round.
    """

    def __init__(
        self,
        system: TransitionSystem,
        properties: Sequence[SafetyProperty],
        budget: SearchBudget,
        kind: SearchKind = SearchKind.EXHAUSTIVE,
        event_filter: Optional[EventFilterFn] = None,
    ) -> None:
        if event_filter is not None and kind is not SearchKind.CONSEQUENCE:
            # Filters vet steering actions during consequence prediction only.
            raise ValueError("event filters only apply to consequence prediction")
        self.system = system
        self.properties = properties
        self.budget = budget
        self.kind = kind
        self.event_filter = event_filter
        self.stats = SearchStats()
        self.violations: list[PredictedViolation] = []
        #: Hashes of visited states.
        self.explored: set[int] = set()
        #: Hashes of states already handed to a frontier: successors
        #: reachable from several parents are enqueued only once.
        self.queued: set[int] = set()
        #: hash(n, s) entries: node-local states whose internal actions were
        #: already expanded (Figure 8, ``localExplored``).
        self.local_explored: set[int] = set()
        #: The ``local_explored`` entries this search added itself, in
        #: order; a sharded worker shares them with the other shards.
        self.new_locals: list[int] = []
        # Each (property, node) combination is reported once per search: the
        # first (shallowest) state that exhibits it.  Without this, a
        # violation already present in the start state would be re-reported
        # in every explored state, drowning genuinely new predictions.
        self.reported: set[tuple] = set()

    def visit(self, item: FrontierItem) -> bool:
        """Mark a dequeued state explored and check the properties in it.

        Returns False, counting a duplicate, when the state was already
        visited; its successors must then not be expanded again.
        """
        state, state_hash, depth, path = item
        stats = self.stats
        if state_hash in self.explored:
            stats.duplicate_states += 1
            return False
        self.explored.add(state_hash)
        if self.budget.record_visited_hashes:
            stats.note_visited_hash(state_hash)
        stats.explored_hash_bytes = 8 * len(self.explored)
        stats.record_visit(depth)

        for violation in check_all(self.properties, state):
            key = (violation.property_name, violation.node)
            if key in self.reported:
                continue
            self.reported.add(key)
            self.violations.append(
                PredictedViolation(violation=violation, path=path,
                                   depth=depth, state_hash=state_hash))
        return True

    def successors(self, item: FrontierItem) -> list[FrontierItem]:
        """Apply every event the search expands in a visited state and
        return the successors not yet explored or queued."""
        state, _, depth, path = item
        if not self.budget.depth_allowed(depth + 1):
            return []
        system, stats = self.system, self.stats
        explored, queued = self.explored, self.queued
        event_filter = self.event_filter
        next_depth = depth + 1
        found: list[FrontierItem] = []
        for event in self._events(state):
            action = event_filter(event) if event_filter is not None else None
            if action in _DROPPING:
                next_state = system.apply_filtered(
                    state, event,
                    reset_connection=action is FilterAction.DROP_AND_RESET)
            else:
                next_state = system.apply(state, event)
            stats.transitions_applied += 1
            next_hash = next_state.state_hash()
            if next_hash in explored or next_hash in queued:
                stats.duplicate_states += 1
                continue
            queued.add(next_hash)
            found.append((next_state, next_hash, next_depth, path + (event,)))
            stats.states_enqueued += 1
            stats.frontier_bytes += next_state.size_bytes()
            stats.peak_memory_bytes = max(
                stats.peak_memory_bytes,
                stats.frontier_bytes + stats.explored_hash_bytes)
        return found

    def _events(self, state: GlobalState) -> list[Event]:
        """The events expanded in ``state``: all enabled events (Figure 5),
        or message handlers plus the internal actions of nodes whose local
        state was not expanded before (Figure 8)."""
        system = self.system
        if self.kind is SearchKind.EXHAUSTIVE:
            return system.enabled_events(state)
        events = system.network_events(state)
        for addr in sorted(state.nodes):
            local_hash = hash((freeze(addr), state.nodes[addr].signature()))
            internal = system.internal_events(state, addr)
            if local_hash in self.local_explored:
                self.stats.internal_actions_skipped += len(internal)
                continue
            events.extend(internal)
            self.local_explored.add(local_hash)
            self.new_locals.append(local_hash)
        return events


def breadth_first_search(
    system: TransitionSystem,
    first_state: GlobalState,
    properties: Sequence[SafetyProperty],
    budget: Optional[SearchBudget] = None,
    *,
    kind: SearchKind = SearchKind.EXHAUSTIVE,
    event_filter: Optional[EventFilterFn] = None,
) -> SearchResult:
    """Run one search inline: the ``while (!StopCriterion)`` loop of
    Figures 5 and 8 over a FIFO frontier."""
    budget = budget or SearchBudget()
    search = BreadthFirstSearch(system, properties, budget, kind, event_filter)
    stats = search.stats
    first_hash = first_state.state_hash()
    search.queued.add(first_hash)
    frontier: deque[FrontierItem] = deque([(first_state, first_hash, 0, ())])
    stats.frontier_bytes = first_state.size_bytes()
    stats.peak_memory_bytes = stats.frontier_bytes

    while frontier and not budget.exhausted(stats):
        item = frontier.popleft()
        stats.frontier_bytes -= item[0].size_bytes()
        if not search.visit(item):
            continue
        if search.violations and budget.stop_at_first_violation:
            break
        frontier.extend(search.successors(item))

    stats.touch_clock()
    return SearchResult(violations=search.violations, stats=stats,
                        start_state=first_state)


def find_errors(
    system: TransitionSystem,
    first_state: GlobalState,
    properties: Sequence[SafetyProperty],
    budget: Optional[SearchBudget] = None,
) -> SearchResult:
    """Run the exhaustive search of Figure 5 — the MaceMC baseline
    CrystalBall is compared against in Section 5.3.

    The search starts from ``first_state`` (the initial system state in the
    classic setting, or any supplied state for prefix-based search),
    explores reachable global states in breadth-first order, caches
    visited-state hashes, and reports every state that violates a safety
    property together with the event path that reaches it.
    """
    return breadth_first_search(system, first_state, properties, budget,
                                kind=SearchKind.EXHAUSTIVE)


def consequence_prediction(
    system: TransitionSystem,
    current_state: GlobalState,
    properties: Sequence[SafetyProperty],
    budget: Optional[SearchBudget] = None,
    *,
    event_filter: Optional[EventFilterFn] = None,
) -> SearchResult:
    """Run consequence prediction (Figure 8) from ``current_state`` — the
    paper's key algorithm.

    Consequence prediction is the breadth-first search of Figure 5 with one
    crucial difference: internal actions (timers, application calls, resets
    — the ``HA`` handlers) of a node are explored *only when the node's
    local state has not been seen before* in this search (the
    ``localExplored`` test, Figure 8 line 17).  Message handlers are always
    explored for matching in-flight messages.  The search thus follows
    causally related chains of events while pruning the interleavings of
    independent local actions that make exhaustive search intractable at
    runtime.  Bugs it reports are real with respect to the explored model
    because every reported path is an actual sequence of handler executions.

    Parameters
    ----------
    system:
        Transition system for the protocol under test.
    current_state:
        The live state the search starts from — in deployment this is the
        consistent neighbourhood snapshot collected by the checkpoint
        manager, not the initial system state.
    properties:
        Safety properties whose future violations should be predicted.
    budget:
        Stop criterion; runtime deployments use small state budgets so the
        prediction completes in the time it takes the real system to take a
        few steps.
    event_filter:
        Optional steering hook: events for which it returns a drop action are
        consumed without running their handler (with an optional connection
        reset towards the sender).  This is how CrystalBall re-checks the
        consequences of a candidate event filter before installing it
        (Section 3.3, "Ensuring Safety of Event Filter Actions").

    Returns
    -------
    SearchResult
        Predicted violations, each with the event path that reaches it, plus
        search statistics (states visited, depth, memory — Figures 15/16).
    """
    return breadth_first_search(system, current_state, properties, budget,
                                kind=SearchKind.CONSEQUENCE,
                                event_filter=event_filter)
