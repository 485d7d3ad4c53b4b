"""Anytime planning: cooperative cancellation, certified gaps, salvage.

Covers the deadline-robustness contract end to end:

* ``SearchBudget`` semantics (cheap ticks, sticky trips, zero-cost
  unbounded path);
* truncated solves return the pre-deadline incumbent with an admissible
  ``optimality_gap_bound`` -- verified against exhaustive search on
  randomized small pools;
* unbounded calls stay ``complete=True`` with an exact 0.0 gap, and the
  anytime fields survive the result JSON round trip.
"""

import math

import pytest

from repro.core.budget import SearchBudget, SearchBudgetExhausted
from repro.core.objectives import Objective, OptimizationGoal
from repro.core.planner import PlannerConfig, SailorPlanner
from repro.core.serialization import result_from_json, result_to_json
from repro.core.simulator import build_environment
from repro.hardware.topology import ClusterTopology
from repro.models.catalog import get_model
from repro.models.spec import TrainingJobSpec


# ---------------------------------------------------------------------------
# SearchBudget unit semantics
# ---------------------------------------------------------------------------

def test_budget_maybe_returns_none_when_unbounded():
    """The unbounded path must cost literally one `is None` test."""
    assert SearchBudget.maybe(None, None) is None
    assert SearchBudget.maybe(deadline=1.0, max_ticks=None) is not None
    assert SearchBudget.maybe(deadline=None, max_ticks=10) is not None


def test_budget_node_cap_trips_exactly_and_stays_tripped():
    budget = SearchBudget(max_ticks=3)
    budget.tick()
    budget.tick()
    with pytest.raises(SearchBudgetExhausted) as excinfo:
        budget.tick()
    assert excinfo.value.reason == "node_budget"
    assert budget.exhausted
    # Sticky: every later tick re-raises immediately.
    with pytest.raises(SearchBudgetExhausted):
        budget.tick()
    assert budget.expired()


def test_budget_deadline_trips_and_expired_is_non_raising():
    budget = SearchBudget(deadline=0.0, check_interval=1)  # already past
    assert budget.expired()  # non-raising probe
    with pytest.raises(SearchBudgetExhausted) as excinfo:
        budget.tick()
    assert excinfo.value.reason == "deadline"


# ---------------------------------------------------------------------------
# Truncated solves: incumbent + certified gap
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_job():
    return TrainingJobSpec(model=get_model("OPT-350M"), global_batch_size=256)


@pytest.fixture(scope="module")
def small_topology():
    return ClusterTopology(nodes={
        "us-central1-a": {"a2-highgpu-4g": 4, "n1-standard-v100-4": 4}})


@pytest.fixture(scope="module")
def small_env(small_job, small_topology):
    return build_environment(small_job, small_topology, seed=7)


def _minimized_scalar(objective, evaluation) -> float:
    if objective.goal is OptimizationGoal.MIN_COST:
        return evaluation.cost_per_iteration_usd
    return evaluation.iteration_time_s


def test_node_budget_truncation_keeps_pre_deadline_incumbent(
        small_env, small_job, small_topology):
    """A budget that trips inside the DP solve loops (nonzero
    ``budget_interrupts``) must still return the incumbent found before the
    trip, marked incomplete with a finite positive gap."""
    full = SailorPlanner(small_env).plan(small_job, small_topology,
                                         Objective.max_throughput())
    assert full.complete and full.optimality_gap_bound == 0.0

    truncated = SailorPlanner(small_env, config=PlannerConfig(
        max_search_nodes=200)).plan(small_job, small_topology,
                                    Objective.max_throughput())
    assert truncated.found
    assert not truncated.complete
    assert truncated.incomplete_branches
    assert truncated.search_stats.budget_interrupts > 0
    assert 0.0 < truncated.optimality_gap_bound < math.inf
    assert truncated.search_stats.branches_incomplete == \
        len(truncated.incomplete_branches)
    assert (truncated.search_stats.branches_complete
            + truncated.search_stats.branches_incomplete) == \
        (full.search_stats.branches_complete
         + full.search_stats.branches_incomplete)
    # The incumbent is a genuinely feasible plan, never worse than nothing
    # and never better than the exhaustive optimum.
    assert truncated.evaluation.is_valid
    assert truncated.evaluation.iteration_time_s >= \
        full.evaluation.iteration_time_s - 1e-12


def test_budget_interrupt_inside_suffix_solve_keeps_incumbent(
        small_env, small_job, small_topology):
    """The deadline can land inside a budget suffix solve (the deepest hot
    loop); the call still returns the pre-trip incumbent."""
    unconstrained = SailorPlanner(small_env).plan(
        small_job, small_topology, Objective.max_throughput())
    budget_objective = Objective.max_throughput(
        max_cost_per_iteration_usd=(
            unconstrained.evaluation.cost_per_iteration_usd * 0.6))
    truncated = SailorPlanner(small_env, config=PlannerConfig(
        max_search_nodes=1000)).plan(small_job, small_topology,
                                     budget_objective)
    assert truncated.found
    assert not truncated.complete
    assert truncated.search_stats.budget_interrupts > 0
    assert truncated.evaluation.cost_per_iteration_usd <= \
        unconstrained.evaluation.cost_per_iteration_usd * 0.6 * 1.001
    assert 0.0 < truncated.optimality_gap_bound < math.inf


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gap_bound_admissible_vs_exhaustive_on_randomized_small_pools(seed):
    """The certified bound's contract: for the minimized scalar ``v`` of
    the incumbent and reported gap ``g``, the unbounded optimum can never
    beat ``v * (1 - g)``.  Checked on randomized small pools against the
    exhaustive (unbounded) solve, across both objectives and a ladder of
    truncation points."""
    import random

    rng = random.Random(seed)
    nodes = {"a2-highgpu-4g": rng.randint(1, 3),
             "n1-standard-v100-4": rng.randint(1, 3)}
    topology = ClusterTopology(nodes={"us-central1-a": nodes})
    job = TrainingJobSpec(model=get_model("OPT-350M"),
                          global_batch_size=rng.choice([128, 256]))
    env = build_environment(job, topology, seed=seed)

    for objective in (Objective.max_throughput(), Objective.min_cost()):
        exhaustive = SailorPlanner(env).plan(job, topology, objective)
        assert exhaustive.found and exhaustive.complete
        best = _minimized_scalar(objective, exhaustive.evaluation)
        for max_nodes in (30, 100, 400):
            result = SailorPlanner(env, config=PlannerConfig(
                max_search_nodes=max_nodes)).plan(job, topology, objective)
            if not result.found:
                # No incumbent: the only admissible claim is "no bound".
                assert result.optimality_gap_bound == math.inf
                assert not result.complete
                continue
            gap = result.optimality_gap_bound
            assert 0.0 <= gap <= 1.0
            value = _minimized_scalar(objective, result.evaluation)
            certified_floor = value * (1.0 - gap)
            assert best >= certified_floor - 1e-9 * max(1.0, abs(best)), (
                f"inadmissible gap: certified floor {certified_floor} "
                f"exceeds exhaustive optimum {best} "
                f"(max_nodes={max_nodes}, objective={objective.goal})")
            if result.complete:
                assert gap == 0.0
                assert value == pytest.approx(best, rel=1e-12)


def test_unbounded_calls_complete_with_zero_gap(small_env, small_job,
                                                small_topology):
    """No deadline, no node budget: the anytime fields must be inert
    (complete, exact 0.0 gap, no cut branches)."""
    result = SailorPlanner(small_env).plan(small_job, small_topology,
                                           Objective.max_throughput())
    assert result.complete
    assert result.optimality_gap_bound == 0.0
    assert result.incomplete_branches == []
    assert result.search_stats.budget_interrupts == 0
    assert result.search_stats.branches_incomplete == 0
    assert result.search_stats.branches_complete > 0


def test_anytime_fields_survive_result_json_round_trip(small_env, small_job,
                                                       small_topology):
    truncated = SailorPlanner(small_env, config=PlannerConfig(
        max_search_nodes=200)).plan(small_job, small_topology,
                                    Objective.max_throughput())
    decoded = result_from_json(result_to_json(truncated))
    assert decoded.complete == truncated.complete
    assert decoded.optimality_gap_bound == truncated.optimality_gap_bound
    assert decoded.incomplete_branches == truncated.incomplete_branches
    assert decoded.search_stats.budget_interrupts == \
        truncated.search_stats.budget_interrupts
