"""Tests for exhaustive search, random walks and search bookkeeping."""

import pytest

from repro.core import choose_steering_point, consequence_prediction, derive_filter
from repro.mc import (
    SearchBudget,
    SearchKind,
    SearchStats,
    SerialEngine,
    TransitionConfig,
    TransitionSystem,
    find_errors,
    random_walk_search,
)
from repro.systems.randtree import ALL_PROPERTIES, Figure2Scenario

from test_parallel import CASES


def _system(scenario, **config):
    defaults = dict(enable_resets=True, max_resets_per_node=1)
    defaults.update(config)
    return TransitionSystem(scenario.protocol, TransitionConfig(**defaults))


def test_budget_limits_states():
    budget = SearchBudget(max_states=5)
    stats = SearchStats()
    assert not budget.exhausted(stats)
    stats.states_visited = 5
    assert budget.exhausted(stats)


def test_budget_depth_allowed():
    budget = SearchBudget(max_depth=3)
    assert budget.depth_allowed(3)
    assert not budget.depth_allowed(4)
    assert SearchBudget().depth_allowed(1000)


def test_exhaustive_respects_state_budget():
    scenario = Figure2Scenario.build()
    result = find_errors(_system(scenario), scenario.global_state(),
                         ALL_PROPERTIES, SearchBudget(max_states=50))
    assert result.stats.states_visited <= 50


def test_exhaustive_finds_violation_with_enough_budget():
    scenario = Figure2Scenario.build()
    result = find_errors(_system(scenario), scenario.global_state(),
                         ALL_PROPERTIES,
                         SearchBudget(max_states=4000, max_depth=4))
    assert result.stats.max_depth_reached >= 2
    # Shallow depths already expose the "reset node re-joins itself" family.
    assert result.found_violation


def test_exhaustive_visits_no_duplicate_states():
    scenario = Figure2Scenario.build()
    result = find_errors(_system(scenario, enable_resets=False),
                         scenario.global_state(), ALL_PROPERTIES,
                         SearchBudget(max_states=500, max_depth=6))
    assert result.stats.states_visited <= 500
    assert result.stats.states_visited > 0


def test_stop_at_first_violation_short_circuits():
    scenario = Figure2Scenario.build()
    full = find_errors(_system(scenario), scenario.global_state(),
                       ALL_PROPERTIES, SearchBudget(max_states=3000, max_depth=4))
    early = find_errors(_system(scenario), scenario.global_state(),
                        ALL_PROPERTIES,
                        SearchBudget(max_states=3000, max_depth=4,
                                     stop_at_first_violation=True))
    assert early.stats.states_visited <= full.stats.states_visited


def test_consequence_prediction_skips_explored_local_actions():
    scenario = Figure2Scenario.build()
    result = consequence_prediction(_system(scenario), scenario.global_state(),
                                    ALL_PROPERTIES,
                                    SearchBudget(max_states=1500, max_depth=6))
    assert result.stats.internal_actions_skipped > 0


def test_consequence_prediction_visits_fewer_states_than_bfs_at_same_depth():
    scenario = Figure2Scenario.build()
    budget = SearchBudget(max_states=100000, max_depth=4)
    cp = consequence_prediction(_system(scenario), scenario.global_state(),
                                ALL_PROPERTIES, budget)
    bfs = find_errors(_system(scenario), scenario.global_state(),
                      ALL_PROPERTIES, budget)
    assert cp.stats.states_visited < bfs.stats.states_visited


def test_consequence_prediction_finds_figure2_bug():
    scenario = Figure2Scenario.build()
    result = consequence_prediction(_system(scenario), scenario.global_state(),
                                    ALL_PROPERTIES,
                                    SearchBudget(max_states=8000, max_depth=9))
    assert "randtree.children_siblings_disjoint" in result.unique_property_names()
    violation = min((v for v in result.violations
                     if v.violation.property_name == "randtree.children_siblings_disjoint"),
                    key=lambda v: v.depth)
    assert violation.path  # a real event path, suitable for steering/replay


def test_fixed_protocol_no_longer_predicts_the_figure2_bug():
    scenario = Figure2Scenario.build(fixed=True)
    result = consequence_prediction(_system(scenario), scenario.global_state(),
                                    ALL_PROPERTIES,
                                    SearchBudget(max_states=4000, max_depth=8))
    names = result.unique_property_names()
    assert "randtree.children_siblings_disjoint" not in names
    assert "randtree.recovery_timer_running" not in names


def test_random_walk_reaches_depth_and_reports():
    scenario = Figure2Scenario.build()
    result = random_walk_search(_system(scenario), scenario.global_state(),
                                ALL_PROPERTIES, walks=10, walk_depth=12, seed=3)
    assert result.stats.max_depth_reached > 4
    assert result.stats.transitions_applied > 0


def test_search_stats_memory_accounting():
    scenario = Figure2Scenario.build()
    result = consequence_prediction(_system(scenario), scenario.global_state(),
                                    ALL_PROPERTIES,
                                    SearchBudget(max_states=300, max_depth=5))
    assert result.stats.peak_memory_bytes > 0
    assert result.stats.memory_per_state() > 0
    assert sum(result.stats.states_by_depth.values()) == result.stats.states_visited


# --------------------------------------------------------------------------
# Pinned serial searches: exact stats and violations of the exhaustive and
# consequence-prediction searches on the four engine-equivalence cases, plus
# one consequence-prediction run steered by the Figure 2 event filter and
# runs cut short by stop_at_first_violation and by a state budget.  Any
# change to visit order, successor enumeration, dedup or accounting shows up
# here.  State hashes are left out: they vary with PYTHONHASHSEED.


def figure2_steering_hook(system, start, properties, max_depth):
    """The filter steering derives at n9 against the Figure 2 violation,
    wrapped as an ``event_filter`` hook for consequence prediction."""
    n9 = Figure2Scenario.build().n9
    result = consequence_prediction(system, start, properties,
                                    SearchBudget(max_states=None,
                                                 max_depth=max_depth))
    violation = next(v for v in result.violations
                     if v.violation.property_name
                     == "randtree.children_siblings_disjoint")
    event_filter = derive_filter(n9, choose_steering_point(n9, violation))

    def hook(event):
        if event_filter.matches(event):
            return event_filter.decision(event)
        return None

    return hook


#: Depth of the steered run: deep enough that the filter changes the result.
FILTERED_DEPTH = 6


def _pinned_run(pin_id):
    """Run ``<case>-<kind>[-<variant>]``: ``filtered`` steers with the
    Figure 2 filter, ``first`` stops at the first violation, ``capped``
    stops on a state budget with states still queued."""
    case, kind, *variant = pin_id.split("-")
    system, start, properties, depth = CASES[case]()
    budget = SearchBudget(max_states=None, max_depth=depth)
    hook = None
    if variant == ["filtered"]:
        budget.max_depth = FILTERED_DEPTH
        hook = figure2_steering_hook(system, start, properties, FILTERED_DEPTH)
    elif variant == ["first"]:
        budget.stop_at_first_violation = True
    elif variant == ["capped"]:
        budget.max_states = 60
    result = SerialEngine().run(system, start, properties, budget,
                                kind=SearchKind(kind), event_filter=hook)
    stats = result.stats
    return {
        "states_visited": stats.states_visited,
        "states_enqueued": stats.states_enqueued,
        "transitions_applied": stats.transitions_applied,
        "duplicate_states": stats.duplicate_states,
        "max_depth_reached": stats.max_depth_reached,
        "peak_memory_bytes": stats.peak_memory_bytes,
        "explored_hash_bytes": stats.explored_hash_bytes,
        "frontier_bytes": stats.frontier_bytes,
        "internal_actions_skipped": stats.internal_actions_skipped,
        "states_by_depth": stats.states_by_depth,
        "violations": [
            (v.violation.property_name, str(v.violation.node), v.depth,
             tuple(event.describe() for event in v.path))
            for v in result.violations],
    }


PINNED = {'bulletprime-consequence': {'duplicate_states': 2,
                             'explored_hash_bytes': 48,
                             'frontier_bytes': 0,
                             'internal_actions_skipped': 3,
                             'max_depth_reached': 4,
                             'peak_memory_bytes': 1640,
                             'states_by_depth': {0: 1,
                                                 1: 1,
                                                 2: 1,
                                                 3: 1,
                                                 4: 2},
                             'states_enqueued': 5,
                             'states_visited': 6,
                             'transitions_applied': 7,
                             'violations': []},
 'bulletprime-exhaustive': {'duplicate_states': 5,
                            'explored_hash_bytes': 48,
                            'frontier_bytes': 0,
                            'internal_actions_skipped': 0,
                            'max_depth_reached': 4,
                            'peak_memory_bytes': 1640,
                            'states_by_depth': {0: 1, 1: 1, 2: 1, 3: 1, 4: 2},
                            'states_enqueued': 5,
                            'states_visited': 6,
                            'transitions_applied': 10,
                            'violations': []},
 'chord-consequence': {'duplicate_states': 26,
                       'explored_hash_bytes': 624,
                       'frontier_bytes': 0,
                       'internal_actions_skipped': 142,
                       'max_depth_reached': 3,
                       'peak_memory_bytes': 62460,
                       'states_by_depth': {0: 1, 1: 6, 2: 21, 3: 50},
                       'states_enqueued': 77,
                       'states_visited': 78,
                       'transitions_applied': 103,
                       'violations': []},
 'chord-exhaustive': {'duplicate_states': 210,
                      'explored_hash_bytes': 2256,
                      'frontier_bytes': 0,
                      'internal_actions_skipped': 0,
                      'max_depth_reached': 3,
                      'peak_memory_bytes': 306100,
                      'states_by_depth': {0: 1, 1: 6, 2: 42, 3: 233},
                      'states_enqueued': 281,
                      'states_visited': 282,
                      'transitions_applied': 491,
                      'violations': []},
 'paxos-consequence': {'duplicate_states': 23,
                       'explored_hash_bytes': 384,
                       'frontier_bytes': 0,
                       'internal_actions_skipped': 18,
                       'max_depth_reached': 4,
                       'peak_memory_bytes': 46768,
                       'states_by_depth': {0: 1, 1: 2, 2: 6, 3: 14, 4: 25},
                       'states_enqueued': 47,
                       'states_visited': 48,
                       'transitions_applied': 70,
                       'violations': []},
 'paxos-exhaustive': {'duplicate_states': 53,
                      'explored_hash_bytes': 528,
                      'frontier_bytes': 0,
                      'internal_actions_skipped': 0,
                      'max_depth_reached': 4,
                      'peak_memory_bytes': 70652,
                      'states_by_depth': {0: 1, 1: 2, 2: 7, 3: 18, 4: 38},
                      'states_enqueued': 65,
                      'states_visited': 66,
                      'transitions_applied': 118,
                      'violations': []},
 'randtree-consequence': {'duplicate_states': 55,
                          'explored_hash_bytes': 1000,
                          'frontier_bytes': 0,
                          'internal_actions_skipped': 354,
                          'max_depth_reached': 4,
                          'peak_memory_bytes': 66801,
                          'states_by_depth': {0: 1,
                                              1: 6,
                                              2: 18,
                                              3: 39,
                                              4: 61},
                          'states_enqueued': 124,
                          'states_visited': 125,
                          'transitions_applied': 179,
                          'violations': [('randtree.root_not_child_or_sibling',
                                          '9:5000',
                                          2,
                                          ('9:5000 resets',
                                           '9:5000 fires timer '
                                           "'join_retry'"))]},
 'randtree-consequence-capped': {'duplicate_states': 49,
                                 'explored_hash_bytes': 480,
                                 'frontier_bytes': 61415,
                                 'internal_actions_skipped': 330,
                                 'max_depth_reached': 3,
                                 'peak_memory_bytes': 62913,
                                 'states_by_depth': {0: 1,
                                                     1: 6,
                                                     2: 18,
                                                     3: 35},
                                 'states_enqueued': 117,
                                 'states_visited': 60,
                                 'transitions_applied': 166,
                                 'violations': [('randtree.root_not_child_or_sibling',
                                                 '9:5000',
                                                 2,
                                                 ('9:5000 resets',
                                                  '9:5000 fires timer '
                                                  "'join_retry'"))]},
 'randtree-consequence-filtered': {'duplicate_states': 205,
                                   'explored_hash_bytes': 1760,
                                   'frontier_bytes': 0,
                                   'internal_actions_skipped': 1008,
                                   'max_depth_reached': 6,
                                   'peak_memory_bytes': 72640,
                                   'states_by_depth': {0: 1,
                                                       1: 6,
                                                       2: 18,
                                                       3: 39,
                                                       4: 59,
                                                       5: 56,
                                                       6: 41},
                                   'states_enqueued': 219,
                                   'states_visited': 220,
                                   'transitions_applied': 424,
                                   'violations': [('randtree.root_not_child_or_sibling',
                                                   '9:5000',
                                                   2,
                                                   ('9:5000 resets',
                                                    '9:5000 fires timer '
                                                    "'join_retry'")),
                                                  ('randtree.recovery_timer_running',
                                                   '1:5000',
                                                   5,
                                                   ('1:5000 resets',
                                                    '1:5000 fires timer '
                                                    "'join_retry'",
                                                    '9:5000 sees connection '
                                                    'error with 1:5000',
                                                    '9:5000 handles '
                                                    'Join(1:5000->9:5000)',
                                                    '1:5000 handles '
                                                    'Join(9:5000->1:5000)'))]},
 'randtree-consequence-first': {'duplicate_states': 16,
                                'explored_hash_bytes': 152,
                                'frontier_bytes': 30501,
                                'internal_actions_skipped': 88,
                                'max_depth_reached': 2,
                                'peak_memory_bytes': 32746,
                                'states_by_depth': {0: 1, 1: 6, 2: 12},
                                'states_enqueued': 46,
                                'states_visited': 19,
                                'transitions_applied': 62,
                                'violations': [('randtree.root_not_child_or_sibling',
                                                '9:5000',
                                                2,
                                                ('9:5000 resets',
                                                 '9:5000 fires timer '
                                                 "'join_retry'"))]},
 'randtree-exhaustive': {'duplicate_states': 1435,
                         'explored_hash_bytes': 9728,
                         'frontier_bytes': 0,
                         'internal_actions_skipped': 0,
                         'max_depth_reached': 4,
                         'peak_memory_bytes': 1143998,
                         'states_by_depth': {0: 1,
                                             1: 6,
                                             2: 39,
                                             3: 206,
                                             4: 964},
                         'states_enqueued': 1215,
                         'states_visited': 1216,
                         'transitions_applied': 2650,
                         'violations': [('randtree.root_not_child_or_sibling',
                                         '9:5000',
                                         2,
                                         ('9:5000 resets',
                                          "9:5000 fires timer 'join_retry'")),
                                        ('randtree.recovery_timer_running',
                                         '9:5000',
                                         4,
                                         ('9:5000 resets',
                                          '13:5000 resets',
                                          "13:5000 fires timer 'join_retry'",
                                          '9:5000 handles '
                                          'Join(13:5000->9:5000)'))]},
 'randtree-exhaustive-capped': {'duplicate_states': 230,
                                'explored_hash_bytes': 480,
                                'frontier_bytes': 332217,
                                'internal_actions_skipped': 0,
                                'max_depth_reached': 3,
                                'peak_memory_bytes': 332697,
                                'states_by_depth': {0: 1, 1: 6, 2: 39, 3: 14},
                                'states_enqueued': 343,
                                'states_visited': 60,
                                'transitions_applied': 573,
                                'violations': [('randtree.root_not_child_or_sibling',
                                                '9:5000',
                                                2,
                                                ('9:5000 resets',
                                                 '9:5000 fires timer '
                                                 "'join_retry'"))]},
 'randtree-exhaustive-first': {'duplicate_states': 110,
                               'explored_hash_bytes': 272,
                               'frontier_bytes': 189746,
                               'internal_actions_skipped': 0,
                               'max_depth_reached': 2,
                               'peak_memory_bytes': 191069,
                               'states_by_depth': {0: 1, 1: 6, 2: 27},
                               'states_enqueued': 198,
                               'states_visited': 34,
                               'transitions_applied': 308,
                               'violations': [('randtree.root_not_child_or_sibling',
                                               '9:5000',
                                               2,
                                               ('9:5000 resets',
                                                '9:5000 fires timer '
                                                "'join_retry'"))]}}


@pytest.mark.parametrize("pin_id", sorted(PINNED))
def test_serial_search_is_pinned(pin_id):
    assert _pinned_run(pin_id) == PINNED[pin_id]
