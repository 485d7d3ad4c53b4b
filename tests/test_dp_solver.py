"""Unit tests for the per-stage dynamic-programming solver."""

import pytest

from exhaustive_oracle import ExhaustiveSolver
from repro.core import dp_solver
from repro.core.dp_solver import (
    MAX_COMBOS_PER_STAGE,
    DPSolver,
    StageOption,
    combo_cost_lb,
    straggler_converged,
)
from repro.core.heuristics import HeuristicConfig, min_tp_per_stage, tp_options_for_stage
from repro.core.objectives import OptimizationGoal
from repro.models.partition import uniform_partition


def build_solver(env, job, pp=2, dp=2, mbs=2,
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
                    num_microbatches=job.num_microbatches(dp, mbs), goal=goal)


def truncated_combos(solver, stage_index, resources):
    """The combos a stage may take from ``resources``: its master list
    (ranked, H5 region-bound) truncated at ``MAX_COMBOS_PER_STAGE``."""
    key = tuple(sorted((key, count) for key, count in resources.items()
                       if count > 0))
    master = solver._master_combos(stage_index, key)
    return [entry[0] for entry in master[:MAX_COMBOS_PER_STAGE]]


def assert_same_solution(a, b):
    """Same placements and bitwise-equal objective fields (or both None)."""
    assert (a is None) == (b is None)
    if a is None:
        return
    assert [x.placements for x in a.assignments] == \
        [x.placements for x in b.assignments]
    for field in ("max_stage_time_s", "sum_stage_time_s", "max_sync_time_s",
                  "cost_rate_usd_per_s"):
        assert getattr(a, field) == getattr(b, field)  # bitwise


def test_stage_option_packing():
    option = StageOption(zone="z", node_type="a2-highgpu-4g", tensor_parallel=2)
    assert option.replicas_per_node == 2
    assert option.nodes_needed(1) == 1
    assert option.nodes_needed(3) == 2
    full = StageOption(zone="z", node_type="a2-highgpu-4g", tensor_parallel=4)
    assert full.replicas_per_node == 1
    assert full.nodes_needed(3) == 3


def test_solver_assigns_every_stage(opt_env, opt_job):
    solver = build_solver(opt_env, opt_job, pp=2, dp=2)
    resources = {("us-central1-a", "a2-highgpu-4g"): 4,
                 ("us-central1-a", "n1-standard-v100-4"): 4}
    solution = solver.solve(resources)
    assert solution is not None
    assert len(solution.assignments) == 2
    for assignment in solution.assignments:
        assert assignment.total_replicas == 2
        assert assignment.compute_time_s > 0
    assert solution.max_stage_time_s >= max(
        a.compute_time_s for a in solution.assignments) - 1e-12
    assert solution.projected_iteration_time(solver.num_microbatches) > 0


def test_solver_respects_resource_limits(opt_env, opt_job):
    solver = build_solver(opt_env, opt_job, pp=2, dp=4)
    # Only one A100 node: four TP=4 replicas per stage cannot fit anywhere.
    resources = {("us-central1-a", "a2-highgpu-4g"): 1}
    assert solver.solve(resources) is None


def test_solver_uses_no_more_nodes_than_available(opt_env, opt_job):
    solver = build_solver(opt_env, opt_job, pp=2, dp=2)
    resources = {("us-central1-a", "a2-highgpu-4g"): 2,
                 ("us-central1-a", "n1-standard-v100-4"): 2}
    solution = solver.solve(resources)
    assert solution is not None
    used: dict = {}
    for assignment in solution.assignments:
        for key, count in assignment.nodes_used.items():
            used[key] = used.get(key, 0) + count
    for key, count in used.items():
        assert count <= resources[key]


def test_budget_constraint_prunes_solutions(opt_env, opt_job):
    solver = build_solver(opt_env, opt_job, pp=2, dp=2)
    resources = {("us-central1-a", "a2-highgpu-4g"): 4}
    unconstrained = solver.solve(resources)
    assert unconstrained is not None
    generous = solver.solve(resources, budget_per_iteration=1000.0)
    assert generous is not None
    tiny = solver.solve(resources, budget_per_iteration=1e-6)
    assert tiny is None


def test_min_cost_goal_prefers_cheaper_assignment(opt_env, opt_job):
    resources = {("us-central1-a", "a2-highgpu-4g"): 4,
                 ("us-central1-a", "n1-standard-v100-4"): 4}
    throughput_solver = build_solver(opt_env, opt_job, pp=1, dp=2,
                                     goal=OptimizationGoal.MAX_THROUGHPUT)
    cost_solver = build_solver(opt_env, opt_job, pp=1, dp=2,
                               goal=OptimizationGoal.MIN_COST)
    fast = throughput_solver.solve(dict(resources))
    cheap = cost_solver.solve(dict(resources))
    assert fast is not None and cheap is not None
    assert cheap.cost_rate_usd_per_s <= fast.cost_rate_usd_per_s + 1e-12


def test_generate_combos_respects_region_boundary(opt_env_geo, opt_job):
    solver = build_solver(opt_env_geo, opt_job, pp=2, dp=2,
                          node_types=("a2-highgpu-4g",))
    resources = {("us-central1-a", "a2-highgpu-4g"): 2,
                 ("us-west1-a", "a2-highgpu-4g"): 2}
    combos = truncated_combos(solver, 0, resources)
    assert combos
    for placements in combos:
        regions = {solver.env.region_of(opt.zone) for opt, _ in placements}
        assert len(regions) == 1  # H5: one region per stage


def test_memoization_reuses_subproblems(opt_env, opt_job):
    solver = build_solver(opt_env, opt_job, pp=4, dp=1)
    resources = {("us-central1-a", "a2-highgpu-4g"): 8}
    solver.solve(resources)
    explored_first = solver.stats.nodes_explored
    solver.solve(resources)
    # The memo is cleared per call, so the second call explores a similar
    # number of nodes; within a call the memo keeps the count well below the
    # worst case of combos^stages.
    assert solver.stats.nodes_explored <= 2 * explored_first


# ---------------------------------------------------------------------------
# Pruning / caching equivalence
# ---------------------------------------------------------------------------

def brute_force_value(solver, resources, stage_index=0):
    """Plain recursive reference: no memo, no bounds, no incumbent.

    Returns the minimum projected objective value over every assignment the
    combo generator admits, or ``None`` when nothing fits.
    """
    from repro.core.dp_solver import DPSolution

    is_last = stage_index == len(solver.partitions) - 1
    best = None
    for placements in truncated_combos(solver, stage_index, resources):
        assignment = solver.context.build_stage_assignment(
            solver.partitions[stage_index], solver.microbatch_size,
            solver.data_parallel, tuple(placements))
        if is_last:
            candidate = DPSolution(
                assignments=[assignment],
                max_stage_time_s=assignment.compute_time_s,
                sum_stage_time_s=assignment.compute_time_s,
                max_sync_time_s=assignment.sync_time_s,
                cost_rate_usd_per_s=assignment.cost_rate_usd_per_s)
        else:
            remaining = dict(resources)
            feasible = True
            for key, used in assignment.nodes_used.items():
                if remaining.get(key, 0) < used:
                    feasible = False
                    break
                remaining[key] -= used
            if not feasible:
                continue
            suffix = brute_force_value(solver, remaining, stage_index + 1)
            if suffix is None:
                continue
            candidate = solver._combine(assignment, suffix)
        if best is None or solver._value(candidate) < solver._value(best):
            best = candidate
    return best


SMALL_TOPOLOGIES = [
    # (label, resources)
    ("homogeneous", {("us-central1-a", "a2-highgpu-4g"): 4}),
    ("heterogeneous", {("us-central1-a", "a2-highgpu-4g"): 2,
                       ("us-central1-a", "n1-standard-v100-4"): 2}),
]


@pytest.mark.parametrize("label,resources", SMALL_TOPOLOGIES)
@pytest.mark.parametrize("pp,dp", [(1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("goal", [OptimizationGoal.MAX_THROUGHPUT,
                                  OptimizationGoal.MIN_COST])
def test_pruned_solver_matches_brute_force(opt_env, opt_job, label, resources,
                                           pp, dp, goal):
    """Property: pruning + caching + clamping never change the optimum."""
    solver = build_solver(opt_env, opt_job, pp=pp, dp=dp, goal=goal)
    solution = solver.solve(dict(resources))
    reference = brute_force_value(solver, resources)
    if reference is None:
        assert solution is None
        return
    assert solution is not None
    nb = solver.num_microbatches
    assert solution.projected_iteration_time(nb) == pytest.approx(
        reference.projected_iteration_time(nb), rel=1e-12)
    assert solution.projected_cost(nb) == pytest.approx(
        reference.projected_cost(nb), rel=1e-12)


@pytest.mark.parametrize("pp,dp", [(2, 2), (3, 1), (2, 4)])
@pytest.mark.parametrize("budget", [None, 1000.0, 0.5])
def test_pruning_on_off_equivalence(opt_env, opt_job, pp, dp, budget):
    """The branch-and-bound solver returns the same projected time and cost
    as the exhaustive solver, with and without a budget constraint."""
    resources = {("us-central1-a", "a2-highgpu-4g"): 4,
                 ("us-central1-a", "n1-standard-v100-4"): 4}
    pruned = build_solver(opt_env, opt_job, pp=pp, dp=dp)
    exhaustive = ExhaustiveSolver(build_solver(opt_env, opt_job, pp=pp,
                                               dp=dp))

    a = pruned.solve(dict(resources), budget_per_iteration=budget)
    b = exhaustive.solve(dict(resources), budget_per_iteration=budget)
    if a is None or b is None:
        assert a is None and b is None
        return
    nb = pruned.num_microbatches
    assert a.projected_iteration_time(nb) == pytest.approx(
        b.projected_iteration_time(nb), rel=1e-12)
    assert a.projected_cost(nb) == pytest.approx(
        b.projected_cost(nb), rel=1e-12)
    assert pruned.stats.pruned_branches >= 0
    assert exhaustive.solver.stats.pruned_branches == 0


def test_budget_dominance_properties(opt_env, opt_job):
    """Independent checks on the budget-dominance shortcut (which is part of
    the algorithm, not a prune: the exhaustive oracle keeps it too):

    * a budget at or above the unconstrained optimum's cost returns exactly
      the unconstrained optimum,
    * every budgeted solution respects its budget,
    * tightening the budget never improves the objective.
    """
    resources = {("us-central1-a", "a2-highgpu-4g"): 4,
                 ("us-central1-a", "n1-standard-v100-4"): 4}
    solver = build_solver(opt_env, opt_job, pp=2, dp=2)
    nb = solver.num_microbatches

    unconstrained = solver.solve(dict(resources))
    assert unconstrained is not None
    base_cost = unconstrained.projected_cost(nb)
    base_time = unconstrained.projected_iteration_time(nb)

    generous = solver.solve(dict(resources),
                            budget_per_iteration=base_cost * 1.0001)
    assert generous is not None
    assert generous.projected_iteration_time(nb) == pytest.approx(
        base_time, rel=1e-12)
    assert generous.projected_cost(nb) == pytest.approx(base_cost, rel=1e-12)

    previous_time = None
    for fraction in (1.5, 1.0001, 0.8, 0.6, 0.4):
        budget = base_cost * fraction
        solution = solver.solve(dict(resources),
                                budget_per_iteration=budget)
        if solution is None:
            continue
        assert solution.projected_cost(nb) <= budget * (1 + 1e-9)
        if previous_time is not None:
            # Larger budgets were solved first: tightening must not improve.
            assert solution.projected_iteration_time(nb) >= \
                previous_time - 1e-12
        previous_time = solution.projected_iteration_time(nb)


# ---------------------------------------------------------------------------
# Interval-keyed budget memoisation
# ---------------------------------------------------------------------------

def brute_force_budget_value(solver, resources, budget):
    """True budget-constrained optimum over every full assignment.

    Enumerates the product of per-stage combos, filters on the projected
    cost and minimises the objective -- the reference the budgeted DP (a
    straggler *approximation*, section 4.2.3) can match but never beat.
    """
    from repro.core.dp_solver import DPSolution

    nb = solver.num_microbatches
    best = None

    def rec(stage, res, chain):
        nonlocal best
        is_last = stage == len(solver.partitions) - 1
        for placements in truncated_combos(solver, stage, res):
            assignment = solver.context.build_stage_assignment(
                solver.partitions[stage], solver.microbatch_size,
                solver.data_parallel, tuple(placements))
            remaining = dict(res)
            feasible = True
            for key, used in assignment.nodes_used.items():
                if remaining.get(key, 0) < used:
                    feasible = False
                    break
                remaining[key] -= used
            if not feasible:
                continue
            if not is_last:
                rec(stage + 1, remaining, chain + [assignment])
                continue
            solution = DPSolution(
                assignments=[assignment],
                max_stage_time_s=assignment.compute_time_s,
                sum_stage_time_s=assignment.compute_time_s,
                max_sync_time_s=assignment.sync_time_s,
                cost_rate_usd_per_s=assignment.cost_rate_usd_per_s)
            for prev in reversed(chain):
                solution = solver._combine(prev, solution)
            if solution.projected_cost(nb) > budget:
                continue
            if best is None or solver._value(solution) < solver._value(best):
                best = solution

    rec(0, resources, [])
    return best


BUDGET_FRACTIONS = (1.5, 1.0001, 0.85, 0.7, 0.55, 0.4, 0.25)


@pytest.mark.parametrize("pp,dp", [(1, 2), (2, 2), (2, 4), (3, 1)])
def test_interval_memo_budget_sweep_against_brute_force(opt_env, opt_job,
                                                        pp, dp):
    """Sweep binding and non-binding budgets against brute force.

    * A non-binding budget (>= the unconstrained optimum's cost) must
      return exactly the unconstrained optimum, which is also the brute
      optimum -- identical plans, bitwise-equal values.
    * A binding budget's solution must respect the budget and can never
      beat the true (brute-force) budgeted optimum; when brute force finds
      nothing feasible, neither may the DP (every DP solution is a member
      of the brute-force space).
    """
    resources = {("us-central1-a", "a2-highgpu-4g"): 4,
                 ("us-central1-a", "n1-standard-v100-4"): 4}
    solver = build_solver(opt_env, opt_job, pp=pp, dp=dp)
    nb = solver.num_microbatches
    unconstrained = solver.solve(dict(resources))
    assert unconstrained is not None
    base_cost = unconstrained.projected_cost(nb)

    for fraction in BUDGET_FRACTIONS:
        budget = base_cost * fraction
        solution = solver.solve(dict(resources), budget_per_iteration=budget)
        reference = brute_force_budget_value(solver, dict(resources), budget)
        if reference is None:
            assert solution is None
            continue
        if budget >= base_cost:
            # Non-binding: dominance answers with the unconstrained optimum.
            assert solution is not None
            assert [a.placements for a in solution.assignments] == \
                [a.placements for a in unconstrained.assignments]
            assert solver._value(solution) == solver._value(reference)
            continue
        if solution is None:
            continue  # the approximation may miss a feasible corner
        assert solution.projected_cost(nb) <= budget * (1 + 1e-9)
        assert solver._value(solution) >= solver._value(reference) - 1e-12


def test_interval_memo_entry_count_drops_vs_per_budget_forking(opt_env,
                                                               opt_job):
    """A binding budget's straggler loop proposes many distinct budgets per
    suffix state; interval entries must collapse them."""
    resources = {("us-central1-a", "a2-highgpu-4g"): 4,
                 ("us-central1-a", "n1-standard-v100-4"): 4}
    oracle = ExhaustiveSolver(build_solver(opt_env, opt_job, pp=2, dp=4))
    nb = oracle.solver.num_microbatches
    base_cost = oracle.solve(dict(resources)).projected_cost(nb)

    solution = oracle.solve(dict(resources),
                            budget_per_iteration=base_cost * 0.7)
    assert solution is not None
    entries = oracle.budget_memo_entries()
    assert entries > 0
    # Without certificates every straggler iteration is one budgeted suffix
    # query, so per-budget keying would have stored (at least) one entry
    # per iteration; intervals store fewer.
    assert entries < oracle.solver.stats.suffix_iterations


def test_straggler_convergence_tolerance_is_relative_plus_absolute():
    """Regression: a purely absolute 1e-12 tolerance is below float noise
    at iteration times of hundreds of seconds, so the straggler loop would
    re-iterate on rounding dust until MAX_BUDGET_ITERATIONS ran out."""
    # Large magnitudes: a few-ulp excursion converges via the relative term
    # (the old `actual <= assumed + 1e-12` test rejected it).
    assert straggler_converged(500.0 + 2e-10, 500.0)
    assert not (500.0 + 2e-10 <= 500.0 + 1e-12)  # the old test, for contrast
    # A genuine straggler change at the same magnitude still iterates.
    assert not straggler_converged(500.0 + 1e-6, 500.0)
    # Small magnitudes keep the absolute floor.
    assert straggler_converged(1e-6 + 5e-13, 1e-6)
    assert not straggler_converged(1e-6 + 1e-11, 1e-6)
    # Exact fixpoints always converge.
    assert straggler_converged(0.25, 0.25)
    assert straggler_converged(0.0, 0.0)


@pytest.mark.parametrize("pp,dp", [(1, 2), (2, 2), (2, 4), (3, 1)])
def test_batched_budget_threading_matches_scalar_recursion(opt_env, opt_job,
                                                           pp, dp):
    """The per-layer batched straggler kernel must return
    bitwise-identical solutions to the exhaustive oracle's scalar
    per-combo straggler loop across binding and non-binding budgets."""
    resources = {("us-central1-a", "a2-highgpu-4g"): 4,
                 ("us-central1-a", "n1-standard-v100-4"): 4}
    probe = build_solver(opt_env, opt_job, pp=pp, dp=dp)
    nb = probe.num_microbatches
    unconstrained = probe.solve(dict(resources))
    if unconstrained is None:
        pytest.skip("nothing fits this (pp, dp) on the small pool")
    base_cost = unconstrained.projected_cost(nb)

    for fraction in BUDGET_FRACTIONS:
        budget = base_cost * fraction
        batched = build_solver(opt_env, opt_job, pp=pp, dp=dp)
        scalar = ExhaustiveSolver(build_solver(opt_env, opt_job, pp=pp,
                                               dp=dp))
        a = batched.solve(dict(resources), budget_per_iteration=budget)
        b = scalar.solve(dict(resources), budget_per_iteration=budget)
        assert_same_solution(a, b)


# ---------------------------------------------------------------------------
# Straggler convergence certificates (budget lower bounds)
# ---------------------------------------------------------------------------

def enumerate_solutions(solver, resources, stage_index=0):
    """Every complete assignment chain in the solver's search space, as
    ``DPSolution``s (no budget, no pruning -- the raw space the bound
    tables must lower-bound)."""
    from repro.core.dp_solver import DPSolution

    is_last = stage_index == len(solver.partitions) - 1
    solutions = []
    for placements in truncated_combos(solver, stage_index, resources):
        assignment = solver.context.build_stage_assignment(
            solver.partitions[stage_index], solver.microbatch_size,
            solver.data_parallel, tuple(placements))
        if is_last:
            solutions.append(DPSolution(
                assignments=[assignment],
                max_stage_time_s=assignment.compute_time_s,
                sum_stage_time_s=assignment.compute_time_s,
                max_sync_time_s=assignment.sync_time_s,
                cost_rate_usd_per_s=assignment.cost_rate_usd_per_s))
            continue
        remaining = dict(resources)
        feasible = True
        for key, used in assignment.nodes_used.items():
            if remaining.get(key, 0) < used:
                feasible = False
                break
            remaining[key] -= used
        if not feasible:
            continue
        for suffix in enumerate_solutions(solver, remaining, stage_index + 1):
            solutions.append(solver._combine(assignment, suffix))
    return solutions


def test_budget_bounds_are_true_lower_bounds_over_random_pools(
        opt_env, opt_job, engine_thresholds):
    """Property (hypothesis-style randomized sweep): the engine-layer
    straggler and cost lower bounds never exceed *any* solution in the
    search space -- in particular not the minimum -- and neither does the
    batched budget scan's whole-solution bound of a root combo
    (``combo_cost_lb``, read from ``_budget_row``) exceed any solution that
    starts with that combo.  Admissibility is what makes
    certificate-answered budget solves outcome-identical to real ones."""
    import math
    import random

    rng = random.Random(20260729)
    checked = 0
    combos_checked = 0
    for _ in range(10):
        resources = {("us-central1-a", "a2-highgpu-4g"): rng.randint(0, 4),
                     ("us-central1-a", "n1-standard-v100-4"): rng.randint(0, 4)}
        resources = {key: count for key, count in resources.items() if count}
        if not resources:
            continue
        pp = rng.choice([1, 2, 3])
        dp = rng.choice([1, 2, 4])

        engine_solver = build_solver(opt_env, opt_job, pp=pp, dp=dp)
        with engine_thresholds():
            unconstrained = engine_solver.solve(dict(resources))
        solutions = enumerate_solutions(engine_solver, resources)
        nb = engine_solver.num_microbatches

        if engine_solver._engine is not None:
            bounds = engine_solver._engine_bounds()
            slb = bounds.straggler_lb[0][0]  # the root is row 0
            clb = bounds.cost_lb[0][0]
            mlb = bounds.sync_lb[0][0]
            if not solutions:
                assert unconstrained is None
                assert math.isinf(slb) and math.isinf(clb)
                assert math.isinf(mlb)
            for solution in solutions:
                assert slb <= solution.max_stage_time_s
                assert mlb <= solution.max_sync_time_s
                assert clb <= solution.projected_cost(nb)
                checked += 1
            if pp > 1 and solutions:
                cols, *_, feasible_list, combo_lbs = \
                    engine_solver._budget_row(0, 0, False)
                entries = engine_solver._tables[0].entries
                for col, feasible, combo_lb in zip(cols, feasible_list,
                                                   combo_lbs):
                    if not feasible:
                        continue
                    through = [solution for solution in solutions
                               if solution.assignments[0].placements
                               == entries[col][0]]
                    assert through  # a feasible child completes the combo
                    for solution in through:
                        assert combo_lb <= solution.projected_cost(nb)
                        combos_checked += 1

    assert checked > 0  # the sweep must have exercised real pools
    assert combos_checked > 0


def test_combo_cost_lb_prices_an_infeasible_child_at_inf():
    """A child row with ``+inf`` bounds (infeasible, or the sentinel) makes
    every combo over it ``+inf``, with no ``0 * inf`` NaN on the way:
    not at Nb = 1, and not for a combo priced at 0."""
    import numpy as np

    infinite = np.full(2, np.inf)
    with np.errstate(invalid="raise"):
        for nb1 in (0, 3):
            bound = combo_cost_lb(np.array([1.0, 2.0]), np.array([0.1, 0.2]),
                                  np.array([0.0, 1.0]), *([infinite] * 5),
                                  nb1)
            assert np.isposinf(bound).all()


def test_combined_cost_covers_the_stage_straggler_plus_the_suffix(
        opt_env, opt_job):
    """Property (seeded sweep over random pools) behind the straggler
    loop's lack of iteration-2+ certificates (``DPSolver._solve_suffix``):
    prepending assignment ``a`` to an engine suffix ``S`` costs at least
    ``rate_a * Nb * max(t_a, S.max)`` plus ``S``'s own cost, in floats.
    So a combination within the budget leaves its suffix inside the next
    iteration's budget ``budget - rate_a * Nb * max_t``."""
    import math
    import random

    rng = random.Random(20261019)
    checked = 0
    for _ in range(16):
        resources = {("us-central1-a", "a2-highgpu-4g"): rng.randint(1, 4),
                     ("us-central1-a", "n1-standard-v100-4"): rng.randint(0, 4)}
        resources = {key: count for key, count in resources.items() if count}
        pp = rng.choice([2, 3])
        solver = build_solver(opt_env, opt_job, pp=pp,
                              dp=rng.choice([1, 2, 4]), mbs=rng.choice([1, 2]))
        if solver.solve(dict(resources), budget_per_iteration=math.inf) \
                is None:
            continue
        engine = solver._engine
        nb = solver.num_microbatches
        for stage in range(1, pp):
            above = [solver.context.build_stage_assignment(
                         solver.partitions[stage - 1], solver.microbatch_size,
                         solver.data_parallel, entry[0], nodes_used=entry[1],
                         compute_time_s=entry[4])
                     for entry in solver._tables[stage - 1].entries]
            for row in range(engine.forward.states[stage].shape[0]):
                if not engine.feasible(stage, row):
                    continue
                suffix = solver._materialize(stage, row)
                for assignment in above:
                    combined = solver._combine(assignment, suffix)
                    max_t = max(assignment.compute_time_s,
                                suffix.max_stage_time_s)
                    assert combined.projected_cost(nb) >= (
                        assignment.cost_rate_usd_per_s * nb * max_t
                        + suffix.projected_cost(nb))
                    checked += 1

    assert checked > 0  # the sweep must have exercised real suffixes


@pytest.mark.parametrize("pp,dp", [(1, 2), (2, 2), (2, 4), (3, 1)])
@pytest.mark.parametrize("engine_forced", [True, False])
def test_certificates_match_uncertified_recursion(opt_env, opt_job, pp, dp,
                                                  engine_forced,
                                                  engine_thresholds):
    """Certificates (straggler/cost bounds, engine seeding, batched-layer
    resolve) must return bitwise-identical solutions to the oracle's
    uncertified straggler loop across binding and non-binding budgets,
    with the unconstrained dispatch threshold at 0 (engine forced) and far
    above the pool: a budgeted solve runs on the engine either way."""
    resources = {("us-central1-a", "a2-highgpu-4g"): 4,
                 ("us-central1-a", "n1-standard-v100-4"): 4}
    threshold = 0 if engine_forced else 10**9
    probe = build_solver(opt_env, opt_job, pp=pp, dp=dp)
    nb = probe.num_microbatches
    unconstrained = probe.solve(dict(resources))
    if unconstrained is None:
        pytest.skip("nothing fits this (pp, dp) on the small pool")
    base_cost = unconstrained.projected_cost(nb)

    for fraction in BUDGET_FRACTIONS:
        budget = base_cost * fraction
        certified = build_solver(opt_env, opt_job, pp=pp, dp=dp)
        plain = ExhaustiveSolver(build_solver(opt_env, opt_job, pp=pp,
                                              dp=dp))
        with engine_thresholds(threshold):
            a = certified.solve(dict(resources), budget_per_iteration=budget)
        assert certified._engine is not None
        b = plain.solve(dict(resources), budget_per_iteration=budget)
        assert plain.solver.stats.suffix_certified == 0
        assert_same_solution(a, b)


def test_certificates_fire_and_are_counted(opt_env, opt_job):
    """A binding budget must exercise the certificates (nonzero
    ``suffix_certified``) and cut ``suffix_iterations`` vs the uncertified
    recursion -- the observable behind the straggler-tail claim."""
    resources = {("us-central1-a", "a2-highgpu-4g"): 4,
                 ("us-central1-a", "n1-standard-v100-4"): 4}
    certified = build_solver(opt_env, opt_job, pp=2, dp=4)
    nb = certified.num_microbatches
    budget = certified.solve(dict(resources)).projected_cost(nb) * 0.55
    assert certified.solve(dict(resources), budget_per_iteration=budget) \
        is not None
    assert certified.stats.suffix_certified > 0
    assert certified.stats.suffix_iterations > 0

    plain = ExhaustiveSolver(build_solver(opt_env, opt_job, pp=2, dp=4))
    assert plain.solve(dict(resources), budget_per_iteration=budget) \
        is not None
    assert plain.solver.stats.suffix_certified == 0
    assert plain.solver.stats.suffix_iterations > \
        certified.stats.suffix_iterations


def test_engine_backed_budget_solve_never_enters_the_recursion(
        opt_env, opt_job):
    """A binding-budget solve answers every node from the engine layers
    (batched scan, certificates, dominance): the tuple recursion's
    per-state combo caches and memo stay empty."""
    resources = {("us-central1-a", "a2-highgpu-4g"): 4,
                 ("us-central1-a", "n1-standard-v100-4"): 4}
    solver = build_solver(opt_env, opt_job, pp=2, dp=4)
    nb = solver.num_microbatches
    budget = solver.solve(dict(resources)).projected_cost(nb) * 0.55
    assert solver.solve(dict(resources), budget_per_iteration=budget) \
        is not None
    assert solver._engine is not None
    assert all(not cache for cache in solver._combo_cache)
    assert all(not memo for memo in solver._memo)
    assert solver.stats.suffix_certified > 0


#: The 4+4 pool: ``(4 + 1) * (4 + 1) = 25`` states, below the engine's
#: unconstrained dispatch threshold.
TINY_POOL = {("us-central1-a", "a2-highgpu-4g"): 4,
             ("us-central1-a", "n1-standard-v100-4"): 4}


def test_budgeted_solve_on_a_tiny_pool_builds_the_engine(opt_env, opt_job):
    """Every budgeted solve runs on the engine, even on a pool the
    unconstrained dispatch gives to the recursion, and matches the
    oracle bitwise."""
    assert 5 * 5 < dp_solver.ENGINE_MIN_STATES
    solver = build_solver(opt_env, opt_job, pp=2, dp=4)
    nb = solver.num_microbatches
    budget = solver.solve(dict(TINY_POOL)).projected_cost(nb) * 0.7
    solution = solver.solve(dict(TINY_POOL), budget_per_iteration=budget)
    assert solver._engine is not None
    assert solver.stats.suffix_iterations > 0  # the budget really binds
    oracle = ExhaustiveSolver(build_solver(opt_env, opt_job, pp=2, dp=4))
    assert_same_solution(solution, oracle.solve(dict(TINY_POOL), budget))


def test_unconstrained_solve_on_a_tiny_pool_takes_the_recursion(opt_env,
                                                                opt_job):
    """Below ``ENGINE_MIN_STATES`` an unconstrained solve builds no engine:
    the pruned tuple recursion answers it, equal to the oracle."""
    solver = build_solver(opt_env, opt_job, pp=2, dp=4)
    solution = solver.solve(dict(TINY_POOL))
    assert solver._engine is None
    assert solver._memo[0]  # the recursion memoised its root
    oracle = ExhaustiveSolver(build_solver(opt_env, opt_job, pp=2, dp=4))
    assert_same_solution(solution, oracle.solve(dict(TINY_POOL)))


def test_interval_memo_repeat_solves_are_deterministic(opt_env, opt_job):
    resources = {("us-central1-a", "a2-highgpu-4g"): 4,
                 ("us-central1-a", "n1-standard-v100-4"): 4}
    solver = build_solver(opt_env, opt_job, pp=2, dp=4)
    nb = solver.num_microbatches
    budget = solver.solve(dict(resources)).projected_cost(nb) * 0.7
    first = solver.solve(dict(resources), budget_per_iteration=budget)
    second = solver.solve(dict(resources), budget_per_iteration=budget)
    assert first is not None and second is not None
    assert [a.placements for a in first.assignments] == \
        [a.placements for a in second.assignments]


def test_pruning_on_off_equivalence_two_zone(opt_env_geo, opt_job):
    """Same equivalence on a 2-zone heterogeneous-geography topology."""
    resources = {("us-central1-a", "a2-highgpu-4g"): 2,
                 ("us-west1-a", "a2-highgpu-4g"): 2}
    pruned = build_solver(opt_env_geo, opt_job, pp=2, dp=2,
                          node_types=("a2-highgpu-4g",))
    exhaustive = ExhaustiveSolver(build_solver(
        opt_env_geo, opt_job, pp=2, dp=2, node_types=("a2-highgpu-4g",)))
    a = pruned.solve(dict(resources))
    b = exhaustive.solve(dict(resources))
    assert (a is None) == (b is None)
    if a is not None:
        nb = pruned.num_microbatches
        assert a.projected_iteration_time(nb) == pytest.approx(
            b.projected_iteration_time(nb), rel=1e-12)
        reference = brute_force_value(pruned, resources)
        assert a.projected_iteration_time(nb) == pytest.approx(
            reference.projected_iteration_time(nb), rel=1e-12)
