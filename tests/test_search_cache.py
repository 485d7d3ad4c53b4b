"""Tests for the shared planner search context and its caches."""

import gc
import itertools

import pytest

from repro.core.budget import SearchBudgetExhausted
from repro.core.dp_solver import (
    MAX_COMBOS_PER_STAGE,
    DPSolver,
    StageOption,
)
from repro.core.heuristics import (
    HeuristicConfig,
    min_tp_per_stage,
    tp_options_for_stage,
)
from repro.core.objectives import Objective, OptimizationGoal
from repro.core.plan import SearchStats
from repro.core.planner import PlannerConfig, SailorPlanner
from repro.core.search_cache import (
    SPLIT_FRACTIONS,
    PlannerSearchContext,
    StageAssignment,
    tp_options_key,
)
from repro.core.serialization import plan_to_json
from repro.hardware.topology import ClusterTopology
from repro.models.partition import uniform_partition
from repro.runtime.controller import TrainingController
from test_dp_solver import truncated_combos


def build_solver(env, job, context=None, pp=2, dp=2, mbs=2,
                 node_types=("a2-highgpu-4g", "n1-standard-v100-4"),
                 goal=OptimizationGoal.MAX_THROUGHPUT):
    partitions = uniform_partition(job.model, pp)
    config = HeuristicConfig()
    tp_req = min_tp_per_stage(job, partitions, list(node_types), mbs,
                              num_microbatches_in_flight_cap=pp, env=env,
                              config=config)
    tp_options = [tp_options_for_stage(stage, config) for stage in tp_req]
    return DPSolver(env=env, job=job, partitions=partitions,
                    tp_options_per_stage=tp_options, microbatch_size=mbs,
                    data_parallel=dp,
                    num_microbatches=job.num_microbatches(dp, mbs), goal=goal,
                    context=context)


RESOURCES = {("us-central1-a", "a2-highgpu-4g"): 4,
             ("us-central1-a", "n1-standard-v100-4"): 4}


def test_stage_assignment_precomputes_nodes_used():
    option = StageOption(zone="z", node_type="a2-highgpu-4g", tensor_parallel=2)
    assignment = StageAssignment(stage_index=0, placements=((option, 3),),
                                 compute_time_s=1.0, sync_time_s=0.0,
                                 cost_rate_usd_per_s=0.1)
    # 3 replicas at TP=2 on 4-GPU nodes -> 2 whole nodes.
    assert assignment.nodes_used == {("z", "a2-highgpu-4g"): 2}
    assert assignment.total_replicas == 3
    assert assignment.zones == ["z"]


def test_stage_assignment_and_option_are_frozen():
    option = StageOption(zone="z", node_type="a2-highgpu-4g", tensor_parallel=2)
    with pytest.raises(AttributeError):
        option.zone = "other"
    assignment = StageAssignment(stage_index=0, placements=((option, 1),),
                                 compute_time_s=1.0, sync_time_s=0.0,
                                 cost_rate_usd_per_s=0.1)
    with pytest.raises(AttributeError):
        assignment.compute_time_s = 2.0


def test_tp_options_key_is_order_insensitive():
    a = tp_options_key({"x": [1, 2], "y": [4]})
    b = tp_options_key({"y": [4], "x": [1, 2]})
    assert a == b
    assert isinstance(hash(a), int)


def test_context_shares_metric_caches_across_candidates(opt_env, opt_job):
    """Two DP candidates (different dp) reuse the same compute-time cache."""
    context = PlannerSearchContext(opt_env, opt_job)
    solver_a = build_solver(opt_env, opt_job, context=context, dp=2)
    solver_b = build_solver(opt_env, opt_job, context=context, dp=4)
    assert solver_a.solve(dict(RESOURCES)) is not None
    compute_entries = len(context._compute_time)
    misses_after_first = context.stats.cache_misses
    assert solver_b.solve(dict(RESOURCES)) is not None
    # Compute times are keyed independently of dp: the second candidate adds
    # no new entries, it only hits.
    assert len(context._compute_time) == compute_entries
    assert context.stats.cache_hits > 0
    # Sync times and assignments do depend on dp, so some misses are expected
    # -- but far fewer than a cold context would incur.
    cold = PlannerSearchContext(opt_env, opt_job)
    solver_cold = build_solver(opt_env, opt_job, context=cold, dp=4)
    assert solver_cold.solve(dict(RESOURCES)) is not None
    assert (context.stats.cache_misses - misses_after_first
            < cold.stats.cache_misses)


def test_generate_combos_matches_reference_enumeration(opt_env, opt_job):
    """The master-list filter reproduces the seed per-state enumeration."""
    solver = build_solver(opt_env, opt_job, dp=2)
    for resources in (dict(RESOURCES),
                      {("us-central1-a", "a2-highgpu-4g"): 2},
                      {("us-central1-a", "a2-highgpu-4g"): 1,
                       ("us-central1-a", "n1-standard-v100-4"): 4}):
        combos = truncated_combos(solver, 0, resources)
        reference = _reference_combos(solver, 0, resources)
        assert [tuple(c) for c in combos] == reference


def _reference_combos(solver, stage_index, resources):
    """Seed-style per-state combo enumeration (sorted, truncated)."""
    needed = solver.data_parallel
    tp_options = solver.tp_options_per_stage[stage_index]
    options = []
    for (zone, node_type), count in resources.items():
        if count <= 0 or node_type not in tp_options:
            continue
        for tp in tp_options[node_type]:
            option = StageOption(zone=zone, node_type=node_type,
                                 tensor_parallel=tp)
            max_replicas = count * option.replicas_per_node
            if max_replicas >= 1:
                options.append((option, max_replicas))
    by_region = {}
    for option, max_replicas in options:
        by_region.setdefault(solver.env.region_of(option.zone), []).append(
            (option, max_replicas))
    combos = []
    for region_options in by_region.values():
        for option, max_replicas in region_options:
            if max_replicas >= needed:
                combos.append(((option, needed),))
        if needed >= 2:
            for (opt_a, max_a), (opt_b, max_b) in itertools.combinations(
                    region_options, 2):
                if opt_a.zone == opt_b.zone and opt_a.node_type == opt_b.node_type:
                    continue
                points = {1, needed - 1}
                for fraction in SPLIT_FRACTIONS:
                    k = int(round(needed * fraction))
                    if 1 <= k <= needed - 1:
                        points.add(k)
                for k in sorted(points):
                    if k <= max_a and (needed - k) <= max_b:
                        combos.append(((opt_a, k), (opt_b, needed - k)))

    def combo_key(placements):
        metric = max(solver.context.stage_compute_time(
            solver.partitions[stage_index], solver.microbatch_size,
            opt.node_type, opt.tensor_parallel) for opt, _ in placements)
        # Same state-independent tiebreak as the master list, so truncation
        # keeps the same equal-metric combos regardless of resource state.
        return (metric, tuple((opt.zone, opt.node_type, opt.tensor_parallel,
                               count) for opt, count in placements))

    combos.sort(key=combo_key)
    return combos[:MAX_COMBOS_PER_STAGE]


def test_forward_layers_do_not_outlive_their_solve(opt_env, opt_job,
                                                   mixed_topology,
                                                   monkeypatch):
    """Each solve owns its forward pass and frees it with its solver: when
    any solve starts its forward pass, no ``ForwardLayers`` built by an
    earlier solve is still alive (engine forced on, for max-throughput and
    a budgeted objective)."""
    from repro.core import dp_solver
    from repro.core.resource_state import ForwardLayers

    live_at_build = []
    compute_forward_layers = dp_solver.compute_forward_layers

    def counting(*args, **kwargs):
        gc.collect()
        live_at_build.append(sum(isinstance(obj, ForwardLayers)
                                 for obj in gc.get_objects()))
        return compute_forward_layers(*args, **kwargs)

    monkeypatch.setattr(dp_solver, "compute_forward_layers", counting)
    monkeypatch.setattr(dp_solver, "ENGINE_MIN_STATES", 0)
    planner = SailorPlanner(opt_env)
    unconstrained = planner.plan(opt_job, mixed_topology,
                                 Objective.max_throughput())
    assert unconstrained.found
    budget = unconstrained.evaluation.cost_per_iteration_usd * 0.6
    budgeted = planner.plan(opt_job, mixed_topology, Objective.max_throughput(
        max_cost_per_iteration_usd=budget))
    assert budgeted.found
    assert len(live_at_build) > 1
    assert max(live_at_build) == 0


def test_search_stats_merge_and_dict_round_trip():
    a = SearchStats(nodes_explored=3, memo_hits=2, pruned_branches=1,
                    cache_hits=10, cache_misses=4)
    b = SearchStats(nodes_explored=1, memo_hits=5, pruned_branches=2,
                    cache_hits=1, cache_misses=1)
    a.merge(b)
    assert a.nodes_explored == 4
    assert a.memo_hits == 7
    assert a.pruned_branches == 3
    assert a.cache_hits == 11
    assert a.cache_misses == 5
    assert SearchStats.from_dict(a.as_dict()) == a
    assert SearchStats.from_dict({}) == SearchStats()
    assert "nodes=4" in a.describe()


def test_context_stats_shared_with_solver(opt_env, opt_job):
    context = PlannerSearchContext(opt_env, opt_job)
    solver = build_solver(opt_env, opt_job, context=context)
    assert solver.stats is context.stats
    solver.solve(dict(RESOURCES))
    assert context.stats.nodes_explored > 0


# -- whole-solve memo ------------------------------------------------------------


def test_solution_memo_counts_hits_and_memoises_infeasible(opt_env, opt_job):
    context = PlannerSearchContext(opt_env, opt_job)
    built = []

    def make(tag):
        def build():
            built.append(tag)
            return tag
        return build

    assert context.solution(("a",), make(None)) is None
    assert context.solution(("a",), make("A")) is None  # None is a result
    assert context.solution(("b",), make("B")) == "B"
    assert context.solution(("b",), make("B2")) == "B"
    assert built == [None, "B"]
    assert context.stats.solve_memo_hits == 2


def test_solution_memo_is_bounded_fifo(opt_env, opt_job):
    context = PlannerSearchContext(opt_env, opt_job)
    context._solutions_max = 2
    for tag in ("a", "b", "c"):  # the third store evicts ("a",)
        context.solution((tag,), lambda tag=tag: tag)
    assert list(context._solutions) == [("b",), ("c",)]
    assert context.solution(("a",), lambda: "A2") == "A2"
    assert context.stats.solve_memo_hits == 0


def test_interrupted_solve_is_never_memoised(opt_env, opt_job):
    context = PlannerSearchContext(opt_env, opt_job)

    def interrupted():
        raise SearchBudgetExhausted("deadline", 7)

    with pytest.raises(SearchBudgetExhausted):
        context.solution(("k",), interrupted)
    assert context.solution(("k",), lambda: "complete") == "complete"
    assert context.stats.solve_memo_hits == 0


def _plan_text(result):
    return plan_to_json(result.plan) if result.found else None


@pytest.fixture(scope="module")
def budget_objective(opt_env, opt_job, mixed_topology):
    """Max throughput under a budget binding at the unconstrained optimum."""
    best = SailorPlanner(opt_env).plan(opt_job, mixed_topology,
                                       Objective.max_throughput())
    return Objective.max_throughput(
        max_cost_per_iteration_usd=best.evaluation.cost_per_iteration_usd
        * 0.8)


def _warm_matches_cold(env, job, topology, objective, context, config=None):
    """Plan on the warm ``context`` and on a fresh one; return the warm
    result after asserting the two plans are byte-identical."""
    warm = SailorPlanner(env, config=config).plan(job, topology, objective,
                                                  context=context)
    cold = SailorPlanner(env, config=config).plan(job, topology, objective)
    assert cold.search_stats.solve_memo_hits == 0
    assert _plan_text(warm) == _plan_text(cold)
    return warm


@pytest.fixture
def warm_context(opt_env, opt_job, mixed_topology, budget_objective):
    """A context that has planned pool A under the budget objective."""
    context = PlannerSearchContext(opt_env, opt_job)
    SailorPlanner(opt_env).plan(opt_job, mixed_topology, budget_objective,
                                context=context)
    return context


def test_replanning_the_same_pool_hits_the_solve_memo(
        opt_env, opt_job, mixed_topology, budget_objective, warm_context):
    warm = _warm_matches_cold(opt_env, opt_job, mixed_topology,
                              budget_objective, warm_context)
    assert warm.search_stats.solve_memo_hits > 0
    assert warm.search_stats.nodes_explored == 0


def test_solve_memo_keys_the_budget(opt_env, opt_job, mixed_topology,
                                    budget_objective, warm_context):
    other = Objective.max_throughput(
        max_cost_per_iteration_usd=(
            budget_objective.constraint.max_cost_per_iteration_usd * 1.1))
    warm = _warm_matches_cold(opt_env, opt_job, mixed_topology, other,
                              warm_context)
    assert warm.search_stats.solve_memo_hits == 0


def test_solve_memo_keys_the_pool(opt_env, opt_job, budget_objective,
                                  warm_context):
    smaller = ClusterTopology.single_zone(
        "us-central1-a", {"a2-highgpu-4g": 4, "n1-standard-v100-4": 3})
    warm = _warm_matches_cold(opt_env, opt_job, smaller, budget_objective,
                              warm_context)
    assert warm.search_stats.solve_memo_hits == 0


def test_node_budget_plans_bypass_the_solve_memo(
        opt_env, opt_job, mixed_topology, budget_objective, warm_context):
    """Under a deterministic node budget a memo hit would spend no ticks and
    move the cut, so the memo is not consulted: warm == cold, tick for
    tick."""
    config = PlannerConfig(max_search_nodes=300)
    warm = _warm_matches_cold(opt_env, opt_job, mixed_topology,
                              budget_objective, warm_context, config=config)
    assert not warm.complete  # the budget really cut the search
    assert warm.search_stats.solve_memo_hits == 0


def test_first_replan_after_a_price_change_misses_the_solve_memo(
        opt_env, opt_job, mixed_topology):
    controller = TrainingController(env=opt_env, job=opt_job,
                                    objective=Objective.max_throughput())
    controller.replan(mixed_topology)
    assert controller.replan(mixed_topology).search_stats.solve_memo_hits > 0
    controller.handle_price_change(mixed_topology, 0.0)
    decision = controller.decisions[-1]
    assert decision.action == "deployed"
    assert decision.replan_latency_s > 0
    assert decision.solve_memo_hits == 0
