"""Property tests pinning every lower bound the search stack claims.

The invariant linter's ``admissibility`` rule (see CONTRACTS.md) requires
each function claiming a bound -- names ending in ``_lb``, containing
``floor``, or docstrings claiming admissibility -- to be referenced by a
test.  These tests are those references, and they check the actual
property: each floor/bound, computed through the production code paths,
never exceeds the true value it claims to bound (with at most the
documented relative slack).

Covered here: ``DPSolver._prepare_bounds`` / ``DPSolver._suffix_lower_bound``
(suffix bounds of the branch-and-bound DP),
``SailorPlanner._availability_tables`` /
``SailorPlanner._candidate_floor_available`` (the pool-aware candidate
floors behind the dominated-family skip, the ordering tail kill and the
anytime gap certificate, all priced from one floor array inside
``SailorPlanner._plan_branch``; randomized against exhaustive member
enumeration on small 1- and 2-real-zone pools) with their pigeonhole
``SailorPlanner._pipeline_time_lb`` and gradient-sync
``SailorPlanner._sync_time_lb`` terms, and
``PlanArrays.iteration_time_floor_s`` via
``SailorSimulator.iteration_time_floor`` (the incumbent-gate floor).
"""

import bisect
import math
import random

import pytest

from repro.core.budget import SearchBudget
from repro.core.dp_solver import DPSolver
from repro.core.heuristics import (
    HeuristicConfig,
    consolidate_zones,
    data_parallel_candidates,
    min_tp_per_stage,
    tp_options_for_stage,
)
from repro.core.objectives import Objective, OptimizationGoal
from repro.core.planner import _GAP_BOUND_SLACK, PlannerConfig, SailorPlanner
from repro.core.search_cache import (
    MAX_MIXED_TYPES_PER_STAGE,
    PlannerSearchContext,
)
from repro.core.simulator import SailorSimulator
from repro.hardware.topology import ClusterTopology
from repro.models.partition import uniform_partition

A100, V100 = "a2-highgpu-4g", "n1-standard-v100-4"


def _build_solver(env, job, goal, pp=2, dp=2, mbs=2,
                  node_types=("a2-highgpu-4g", "n1-standard-v100-4")):
    partitions = uniform_partition(job.model, pp)
    config = HeuristicConfig()
    tp_req = min_tp_per_stage(job, partitions, list(node_types), mbs,
                              num_microbatches_in_flight_cap=pp, env=env,
                              config=config)
    tp_options = [tp_options_for_stage(stage, config) for stage in tp_req]
    return DPSolver(env=env, job=job, partitions=partitions,
                    tp_options_per_stage=tp_options, microbatch_size=mbs,
                    data_parallel=dp,
                    num_microbatches=job.num_microbatches(dp, mbs), goal=goal)


def _branch_inputs(env, job, topology, goal, pp, mbs):
    """The exact (context, partitions, tp_options, resources) one
    ``_plan_branch`` call builds for a (P, mbs) branch."""
    heuristics = HeuristicConfig()
    consolidated = consolidate_zones(topology, heuristics)
    resources = SailorPlanner._resource_map(consolidated.topology)
    context = PlannerSearchContext(env, job, goal)
    partitions = context.partitions(pp)
    tp_req = min_tp_per_stage(job, partitions,
                              consolidated.topology.node_types(), mbs,
                              num_microbatches_in_flight_cap=pp, env=env,
                              config=heuristics)
    tp_options = [tp_options_for_stage(per_stage, heuristics)
                  for per_stage in tp_req]
    return consolidated, resources, context, partitions, tp_options


@pytest.mark.parametrize("goal", [OptimizationGoal.MAX_THROUGHPUT,
                                  OptimizationGoal.MIN_COST])
def test_suffix_lower_bound_never_exceeds_solution_value(opt_env, opt_job,
                                                         goal):
    """``_suffix_lower_bound(j, a_j)`` bounds *any* completion that assigns
    ``a_j`` to stage ``j`` -- in particular the solver's own optimum, whose
    prefix stages only add non-negative time/cost on top of the suffix."""
    solver = _build_solver(opt_env, opt_job, goal)
    resources = {("us-central1-a", "a2-highgpu-4g"): 4,
                 ("us-central1-a", "n1-standard-v100-4"): 4}
    solution = solver.solve(resources)
    assert solution is not None
    # solve() already ran _prepare_bounds on this root; re-running it is
    # deterministic and must agree that the root is feasible.
    assert solver._prepare_bounds(solver._root) is True
    value = solver._value(solution)
    for stage_index, assignment in enumerate(solution.assignments):
        bound = solver._suffix_lower_bound(stage_index, assignment)
        assert bound <= value * (1 + 1e-9), (
            f"stage {stage_index}: suffix bound {bound} exceeds the "
            f"optimum's value {value}")


def test_prepare_bounds_rejects_infeasible_root(opt_env, opt_job):
    """An empty root pool offers no option for any stage: the bound
    precomputation must report infeasibility, not fabricate a floor."""
    solver = _build_solver(opt_env, opt_job, OptimizationGoal.MAX_THROUGHPUT)
    assert solver._prepare_bounds(()) is False


@pytest.mark.parametrize("objective", [Objective.max_throughput(),
                                       Objective.min_cost()],
                         ids=["throughput", "cost"])
def test_candidate_floor_bounds_the_chosen_plans_evaluation(
        opt_env, opt_job, mixed_topology, objective):
    """The pool-aware floor of the winning (P, mbs, D) candidate must not
    exceed the simulator's actual evaluation of the plan the planner chose
    for it -- the exact comparison the family skip, the ordering tail kill
    and the gap certificate rely on."""
    planner = SailorPlanner(opt_env)
    result = planner.plan(opt_job, mixed_topology, objective)
    assert result.found
    plan = result.plan
    pp = len(plan.stages)
    mbs = plan.microbatch_size
    dp = plan.data_parallel
    consolidated, resources, context, partitions, tp_options = (
        _branch_inputs(opt_env, opt_job, mixed_topology, objective.goal, pp,
                       mbs))
    tables = SailorPlanner._availability_tables(
        context, consolidated, partitions, tp_options, mbs, pp, resources)
    minimize_cost = objective.goal is OptimizationGoal.MIN_COST
    floor = SailorPlanner._candidate_floor_available(
        opt_job, tables, mbs, dp, minimize_cost)
    assert floor < math.inf
    actual = SailorPlanner._incumbent_value(objective, result.evaluation)
    assert floor <= actual, (
        f"candidate floor {floor} exceeds the simulator value {actual}")


def test_unexplored_bound_certifies_the_branch_optimum(opt_env, opt_job,
                                                       mixed_topology):
    """Cut a branch before its first candidate: the priced tail then covers
    *every* candidate, so its bound must lie at or below the value the
    exhaustive run of the same branch actually achieves."""
    objective = Objective.max_throughput()
    pp, mbs = 2, 2
    planner = SailorPlanner(opt_env)
    consolidated, resources, context, _, _ = _branch_inputs(
        opt_env, opt_job, mixed_topology, objective.goal, pp, mbs)

    exhausted = SearchBudget(max_ticks=1)
    assert exhausted.expired() is False  # arms the countdown
    exhausted.ticks = 1
    assert exhausted.expired() is True
    truncated = planner._plan_branch(opt_job, objective, consolidated,
                                     resources, pp, mbs,
                                     PlannerSearchContext(
                                         opt_env, opt_job, objective.goal),
                                     exhausted)
    assert truncated.complete is False
    assert truncated.plan is None  # nothing explored: the bound covers all

    full = planner._plan_branch(opt_job, objective, consolidated, resources,
                                pp, mbs, context, None)
    assert full.complete is True
    assert full.evaluation is not None
    best = SailorPlanner._incumbent_value(objective, full.evaluation)
    assert truncated.unexplored_lb <= best * (1 + 1e-9)


def test_one_floor_array_prices_family_and_gap(opt_env, opt_job,
                                               mixed_topology):
    """The family skip and the gap certificate read the same suffix-minimum
    floor array: a branch cut before its first candidate certifies its
    unexplored set with exactly the family floor the uncut branch reports."""
    pp, mbs = 2, 2
    planner = SailorPlanner(opt_env)
    for objective in (Objective.max_throughput(), Objective.min_cost()):
        consolidated, resources, context, _, _ = _branch_inputs(
            opt_env, opt_job, mixed_topology, objective.goal, pp, mbs)
        exhausted = SearchBudget(max_ticks=1)
        assert exhausted.expired() is False  # arms the countdown
        exhausted.ticks = 1
        truncated = planner._plan_branch(opt_job, objective, consolidated,
                                         resources, pp, mbs,
                                         PlannerSearchContext(
                                             opt_env, opt_job,
                                             objective.goal),
                                         exhausted)
        assert truncated.complete is False
        full = planner._plan_branch(opt_job, objective, consolidated,
                                    resources, pp, mbs, context, None)
        assert full.complete is True
        assert full.family_floor is not None
        assert 0.0 < full.family_floor < math.inf
        assert truncated.unexplored_lb == full.family_floor


@pytest.mark.parametrize("objective", [Objective.max_throughput(),
                                       Objective.min_cost()],
                         ids=["throughput", "cost"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_family_and_availability_floors_vs_exhaustive_enumeration(
        opt_env, opt_job, objective, seed):
    """Randomized pools, exhaustively enumerated: on every (P, mbs) branch
    of a small random cluster, the availability-aware candidate floor
    (``_candidate_floor_available`` over ``_availability_tables``) and the
    family floor ``_plan_branch`` reports must bound the simulator value of
    *every* member the full DP + evaluation pipeline produces."""
    rng = random.Random(seed)
    topology = ClusterTopology.single_zone("us-central1-a", {
        "a2-highgpu-4g": rng.randint(1, 3),
        "n1-standard-v100-4": rng.randint(1, 3),
    })
    planner = SailorPlanner(opt_env)
    heuristics = planner.config.heuristics
    consolidated = consolidate_zones(topology, heuristics)
    resources = SailorPlanner._resource_map(consolidated.topology)
    context = PlannerSearchContext(opt_env, opt_job, objective.goal)
    minimize_cost = objective.goal is OptimizationGoal.MIN_COST
    members_checked = 0
    for pp, mbs in SailorPlanner._branch_specs(
            opt_job, sum(resources.values()), heuristics):
        partitions = context.partitions(pp)
        tp_req = min_tp_per_stage(opt_job, partitions,
                                  consolidated.topology.node_types(), mbs,
                                  num_microbatches_in_flight_cap=pp,
                                  env=opt_env, config=heuristics)
        if any(not per_stage for per_stage in tp_req):
            continue
        tp_options = [tp_options_for_stage(per_stage, heuristics)
                      for per_stage in tp_req]
        max_dp = planner._max_data_parallel(resources, tp_options, pp)
        dp_candidates = data_parallel_candidates(
            opt_job, mbs, max_dp, maximize_throughput=not minimize_cost,
            config=heuristics)
        if not dp_candidates:
            continue

        family = planner._plan_branch(opt_job, objective, consolidated,
                                      resources, pp, mbs,
                                      context).family_floor
        assert family is not None
        tables = SailorPlanner._availability_tables(
            context, consolidated, partitions, tp_options, mbs, pp,
            resources)

        member_values = []
        for dp in dp_candidates:
            avail = SailorPlanner._candidate_floor_available(
                opt_job, tables, mbs, dp, minimize_cost)
            assert family <= avail  # the min over the family's members
            solver = DPSolver(
                env=opt_env, job=opt_job, partitions=partitions,
                tp_options_per_stage=tp_options, microbatch_size=mbs,
                data_parallel=dp,
                num_microbatches=opt_job.num_microbatches(dp, mbs),
                goal=objective.goal, context=context)
            solution = solver.solve(dict(resources))
            if solution is None:
                continue
            plan = planner._build_plan(opt_job, partitions, mbs, solution,
                                       consolidated)
            if plan is None:
                continue
            evaluation = planner.simulator.evaluate(plan)
            if not evaluation.is_valid:
                continue
            value = SailorPlanner._incumbent_value(objective, evaluation)
            assert avail <= value * (1 + 1e-9), (
                f"P{pp}/mbs{mbs}/D{dp}: availability-aware floor {avail} "
                f"exceeds the simulator value {value}")
            member_values.append(value)
            members_checked += 1
        if member_values:
            assert family <= min(member_values) * (1 + 1e-9), (
                f"P{pp}/mbs{mbs}: family floor {family} exceeds the best "
                f"member value {min(member_values)}")
    assert members_checked > 0  # the random pool really exercised the DP


def _carrier_only_floor(job, tables, mbs, dp, minimize_cost):
    """The candidate floor before the pigeonhole and sync terms: the
    carrier floor alone, recomputed from the same per-stage tables."""
    k = -(-dp // MAX_MIXED_TYPES_PER_STAGE)
    sum_t = max_t = rate_sum = 0.0
    for table in tables.carriers:
        if table is None:
            return math.inf
        neg_caps, pref_min_t, min_rate = table
        count = bisect.bisect_right(neg_caps, -k)
        if count == 0:
            return math.inf
        sum_t += pref_min_t[count - 1]
        max_t = max(max_t, pref_min_t[count - 1])
        rate_sum += min_rate
    time_lb = sum_t + (job.num_microbatches(dp, mbs) - 1) * max_t
    value = dp * rate_sum * time_lb if minimize_cost else time_lb
    return value * _GAP_BOUND_SLACK


def _random_pool(seed, two_zones):
    """A small random A100 + V100 pool in one real zone, or split over two
    real zones of one region (one pseudo-zone after H6)."""
    rng = random.Random(seed)
    if not two_zones:
        return ClusterTopology.single_zone("us-central1-a", {
            A100: rng.randint(1, 3), V100: rng.randint(1, 3)})
    return ClusterTopology(nodes={
        "us-central1-a": {A100: rng.randint(1, 2), V100: rng.randint(0, 2)},
        "us-central1-b": {A100: rng.randint(0, 2), V100: rng.randint(1, 2)},
    })


def _branches(env, job, topology, goal):
    """Every (P, mbs) branch with data-parallel candidates, as
    ``(planner, consolidated, resources, context, partitions, tp_options,
    mbs, dp_candidates, tables)``."""
    planner = SailorPlanner(env)
    heuristics = planner.config.heuristics
    consolidated = consolidate_zones(topology, heuristics)
    resources = SailorPlanner._resource_map(consolidated.topology)
    context = PlannerSearchContext(env, job, goal)
    for pp, mbs in SailorPlanner._branch_specs(
            job, sum(resources.values()), heuristics):
        partitions = context.partitions(pp)
        tp_req = min_tp_per_stage(job, partitions,
                                  consolidated.topology.node_types(), mbs,
                                  num_microbatches_in_flight_cap=pp,
                                  env=env, config=heuristics)
        if any(not per_stage for per_stage in tp_req):
            continue
        tp_options = [tp_options_for_stage(per_stage, heuristics)
                      for per_stage in tp_req]
        dp_candidates = data_parallel_candidates(
            job, mbs, planner._max_data_parallel(resources, tp_options, pp),
            maximize_throughput=goal is OptimizationGoal.MAX_THROUGHPUT,
            config=heuristics)
        if not dp_candidates:
            continue
        tables = SailorPlanner._availability_tables(
            context, consolidated, partitions, tp_options, mbs, pp,
            resources)
        yield (planner, consolidated, resources, context, partitions,
               tp_options, mbs, dp_candidates, tables)


def _solve_and_evaluate(planner, env, job, goal, consolidated, resources,
                        context, partitions, tp_options, mbs, dp):
    """The plan and evaluation the planner would produce for one
    candidate, or ``(None, None)`` when the DP or materialisation fails."""
    solution = DPSolver(
        env=env, job=job, partitions=partitions,
        tp_options_per_stage=tp_options, microbatch_size=mbs,
        data_parallel=dp, num_microbatches=job.num_microbatches(dp, mbs),
        goal=goal, context=context).solve(dict(resources))
    if solution is None:
        return None, None
    plan = planner._build_plan(job, partitions, mbs, solution, consolidated)
    if plan is None:
        return None, None
    return plan, planner.simulator.evaluate(plan)


@pytest.mark.parametrize("objective", [Objective.max_throughput(),
                                       Objective.min_cost()],
                         ids=["throughput", "cost"])
@pytest.mark.parametrize("two_zones", [False, True], ids=["1zone", "2zones"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_capacity_aware_floor_bounds_every_candidate(opt_env, opt_job,
                                                     objective, two_zones,
                                                     seed):
    """On randomized 1- and 2-real-zone pools, every (P, mbs, D)
    candidate's floor (carrier, pigeonhole and sync terms together) never
    exceeds the simulator value of the DP solution the planner would
    evaluate, and never drops below the carrier-only floor."""
    minimize_cost = objective.goal is OptimizationGoal.MIN_COST
    topology = _random_pool(seed, two_zones)
    checked = 0
    for (planner, consolidated, resources, context, partitions, tp_options,
         mbs, dp_candidates, tables) in _branches(opt_env, opt_job, topology,
                                                  objective.goal):
        for dp in dp_candidates:
            floor = SailorPlanner._candidate_floor_available(
                opt_job, tables, mbs, dp, minimize_cost)
            assert floor >= _carrier_only_floor(
                opt_job, tables, mbs, dp, minimize_cost)
            plan, evaluation = _solve_and_evaluate(
                planner, opt_env, opt_job, objective.goal, consolidated,
                resources, context, partitions, tp_options, mbs, dp)
            if evaluation is None or not evaluation.is_valid:
                continue
            value = SailorPlanner._incumbent_value(objective, evaluation)
            assert floor <= value, (
                f"P{len(partitions)}/mbs{mbs}/D{dp}: floor {floor} exceeds "
                f"the simulator value {value}")
            checked += 1
    assert checked > 0


def test_pigeonhole_term_lifts_the_floor_when_gpus_are_short(
        opt_env, opt_job, mixed_topology):
    """32 GPUs, P2/mbs1: at D=8 the carrier floor prices both stages at
    full-node TP, but 8 pipelines of 4 GPUs cannot each hold two TP4
    replicas.  ``_pipeline_time_lb`` lifts the floor, which still bounds
    the candidate's evaluated plan; at P4/mbs4/D=8 no 4-GPU pick covers
    the stages' minimum TPs, and the floor is +inf where the DP finds
    nothing."""
    goal = OptimizationGoal.MAX_THROUGHPUT
    lifted = infeasible = 0
    for (planner, consolidated, resources, context, partitions, tp_options,
         mbs, dp_candidates, tables) in _branches(opt_env, opt_job,
                                                  mixed_topology, goal):
        pp = len(partitions)
        if (pp, mbs) not in ((2, 1), (4, 4)):
            continue
        dp = 8
        assert dp in dp_candidates
        nb = opt_job.num_microbatches(dp, mbs)
        pipeline_lb = SailorPlanner._pipeline_time_lb(tables, dp, nb)
        floor = SailorPlanner._candidate_floor_available(
            opt_job, tables, mbs, dp, False)
        carrier = _carrier_only_floor(opt_job, tables, mbs, dp, False)
        plan, evaluation = _solve_and_evaluate(
            planner, opt_env, opt_job, goal, consolidated, resources,
            context, partitions, tp_options, mbs, dp)
        if pp == 2:
            assert tables.pool_gpus // dp == 4
            assert pipeline_lb * _GAP_BOUND_SLACK > carrier
            assert floor >= pipeline_lb * _GAP_BOUND_SLACK
            assert evaluation is not None and evaluation.is_valid
            assert floor <= evaluation.iteration_time_s
            lifted += 1
        else:
            assert pipeline_lb == floor == math.inf
            assert carrier < math.inf
            assert plan is None
            infeasible += 1
    assert lifted == infeasible == 1


def test_leader_ring_sync_floor_on_two_real_zones(opt_env, opt_job):
    """V100 nodes split over two real zones of one region consolidate to
    the same pool as one zone, but a stage may now be spread over both
    zones and all-reduce hierarchically, with a leader ring over the
    inter-zone link.  ``_sync_time_lb`` must take that ring into the
    minimum (here it is lower than any intra-zone ring of D >= 4 over the
    NIC-capped V100 links), and the floor must still bound every plan
    whose stages span both zones."""
    goal = OptimizationGoal.MAX_THROUGHPUT
    one_zone = ClusterTopology(nodes={"us-central1-a": {V100: 4}})
    two_zones = ClusterTopology(nodes={"us-central1-a": {V100: 1},
                                       "us-central1-b": {V100: 3}})
    single = {(len(partitions), mbs): tables
              for (*_, partitions, _, mbs, _, tables)
              in _branches(opt_env, opt_job, one_zone, goal)}
    lowered = spanning = 0
    for (planner, consolidated, resources, context, partitions, tp_options,
         mbs, dp_candidates, tables) in _branches(opt_env, opt_job,
                                                  two_zones, goal):
        assert tables.ring_zones == 2
        assert all(leaders for _, _, leaders in tables.sync)
        flat = single[(len(partitions), mbs)]
        assert flat.ring_zones == 1
        for dp in dp_candidates:
            sync_lb = SailorPlanner._sync_time_lb(tables, dp)
            assert sync_lb <= SailorPlanner._sync_time_lb(flat, dp)
            if sync_lb < SailorPlanner._sync_time_lb(flat, dp):
                lowered += 1
            plan, evaluation = _solve_and_evaluate(
                planner, opt_env, opt_job, goal, consolidated, resources,
                context, partitions, tp_options, mbs, dp)
            if evaluation is None or not evaluation.is_valid:
                continue
            if any(len(stage.zones) > 1 and stage.data_parallel > 1
                   for stage in plan.stages):
                spanning += 1
                stage_sync = max(planner.simulator.context.timing_breakdown(
                    plan).stage_sync_s)
                assert sync_lb <= stage_sync
            floor = SailorPlanner._candidate_floor_available(
                opt_job, tables, mbs, dp, False)
            assert floor <= evaluation.iteration_time_s
    assert lowered > 0
    assert spanning > 0


def test_real_zone_shape_keys_the_availability_floors(opt_env, opt_job):
    """One zone of four V100 nodes and two zones of two each consolidate to
    the same pool, but only the second can spread a stage over zones: the
    two must not share an ``availability_floors`` entry."""
    goal = OptimizationGoal.MAX_THROUGHPUT
    pp, mbs = 2, 2
    heuristics = HeuristicConfig()
    one = consolidate_zones(
        ClusterTopology(nodes={"us-central1-a": {V100: 4}}), heuristics)
    two = consolidate_zones(
        ClusterTopology(nodes={"us-central1-a": {V100: 2},
                               "us-central1-b": {V100: 2}}), heuristics)
    resources = SailorPlanner._resource_map(one.topology)
    assert SailorPlanner._resource_map(two.topology) == resources
    context = PlannerSearchContext(opt_env, opt_job, goal)
    partitions = context.partitions(pp)
    tp_req = min_tp_per_stage(opt_job, partitions, [V100], mbs,
                              num_microbatches_in_flight_cap=pp, env=opt_env,
                              config=heuristics)
    tp_options = [tp_options_for_stage(per_stage, heuristics)
                  for per_stage in tp_req]

    flat = SailorPlanner._availability_tables(
        context, one, partitions, tp_options, mbs, pp, resources)
    split = SailorPlanner._availability_tables(
        context, two, partitions, tp_options, mbs, pp, resources)
    assert context.stats.availability_floor_hits == 0  # two cold builds
    assert split is not flat
    assert (flat.ring_zones, split.ring_zones) == (1, 2)
    assert SailorPlanner._availability_tables(
        context, one, partitions, tp_options, mbs, pp, resources) is flat
    assert context.stats.availability_floor_hits == 1


def test_availability_floor_tables_reuse_warm(opt_env, opt_job,
                                              mixed_topology):
    """A repeated (branch, pool) signature reuses the availability tables
    warm and counts the hit (``availability_floors`` ->
    ``SearchStats.availability_floor_hits``)."""
    pp, mbs = 2, 2
    consolidated, resources, context, partitions, tp_options = (
        _branch_inputs(opt_env, opt_job, mixed_topology,
                       OptimizationGoal.MAX_THROUGHPUT, pp, mbs))

    assert context.stats.availability_floor_hits == 0
    tables = SailorPlanner._availability_tables(context, consolidated,
                                                partitions, tp_options, mbs,
                                                pp, resources)
    assert context.stats.availability_floor_hits == 0  # cold build
    again = SailorPlanner._availability_tables(context, consolidated,
                                               partitions, tp_options, mbs,
                                               pp, resources)
    assert again is tables  # warm reuse, not a rebuild
    assert context.stats.availability_floor_hits == 1


def test_iteration_time_floor_never_exceeds_full_evaluation(
        opt_env, opt_job, mixed_topology):
    """``PlanArrays.iteration_time_floor_s`` (pipeline + update, sync
    dropped) must never exceed the full iteration-time estimate, bitwise,
    on the plan the planner actually ships."""
    result = SailorPlanner(opt_env).plan(opt_job, mixed_topology,
                                         Objective.max_throughput())
    assert result.found
    simulator = SailorSimulator(opt_env)
    evaluation = simulator.evaluate(result.plan)
    floor = simulator.iteration_time_floor(result.plan)
    assert floor <= evaluation.iteration_time_s
    if simulator.context is not None:
        arrays = simulator.context.plan_arrays(result.plan)
        assert arrays.iteration_time_floor_s == floor
        assert arrays.iteration_time_floor_s <= evaluation.iteration_time_s
