"""Integration tests for the Sailor planner."""

import contextlib

import pytest

from exhaustive_oracle import exhaustive_planning
from repro.core.heuristics import HeuristicConfig, consolidate_zones
from repro.core.objectives import Objective
from repro.core.planner import PlannerConfig, SailorPlanner
from repro.core.search_cache import PlannerSearchContext
from repro.core.serialization import plan_to_json
from repro.core.simulator import (
    MemoryEstimator,
    SailorSimulator,
    build_environment,
)
from repro.hardware.topology import ClusterTopology
from repro.models.catalog import get_model
from repro.models.spec import TrainingJobSpec


@pytest.fixture(scope="module")
def planner(opt_env):
    return SailorPlanner(opt_env)


def test_homogeneous_plan_found_and_valid(planner, opt_job, a100_topology):
    result = planner.plan(opt_job, a100_topology, Objective.max_throughput())
    assert result.found
    assert result.oom_plans_generated == 0
    assert result.search_time_s < 30.0
    plan = result.plan
    assert plan.total_gpus <= a100_topology.total_gpus()
    assert plan.resource_allocation().fits_within(a100_topology)
    assert MemoryEstimator(planner.env).plan_fits(plan)
    # The evaluation attached to the result matches a fresh evaluation.
    fresh = SailorSimulator(planner.env).evaluate(plan)
    assert fresh.throughput_iters_per_s == pytest.approx(
        result.evaluation.throughput_iters_per_s, rel=1e-6)


def test_heterogeneous_plan_uses_both_gpu_types_when_scarce(planner, opt_job,
                                                            mixed_topology):
    result = planner.plan(opt_job, mixed_topology, Objective.max_throughput())
    assert result.found
    gpus = result.plan.gpus_by_type()
    assert "A100-40" in gpus
    # With only 16 A100s available, adding V100s improves throughput, so the
    # planner should use them (paper takeaway 1).
    assert gpus.get("V100-16", 0) > 0

    a100_only = mixed_topology.restricted_to_gpu("A100-40")
    homo = planner.plan(opt_job, a100_only, Objective.max_throughput())
    assert result.evaluation.throughput_iters_per_s >= \
        homo.evaluation.throughput_iters_per_s


def test_planner_respects_budget_constraint(planner, opt_job, mixed_topology):
    unconstrained = planner.plan(opt_job, mixed_topology,
                                 Objective.max_throughput())
    budget = unconstrained.evaluation.cost_per_iteration_usd * 0.6
    constrained = planner.plan(
        opt_job, mixed_topology,
        Objective.max_throughput(max_cost_per_iteration_usd=budget))
    assert constrained.found
    assert constrained.evaluation.cost_per_iteration_usd <= budget * 1.001
    assert constrained.evaluation.throughput_iters_per_s <= \
        unconstrained.evaluation.throughput_iters_per_s + 1e-9


def test_planner_min_cost_objective_cheaper_than_max_throughput(
        planner, opt_job, mixed_topology):
    fast = planner.plan(opt_job, mixed_topology, Objective.max_throughput())
    cheap = planner.plan(opt_job, mixed_topology, Objective.min_cost())
    assert cheap.found
    assert cheap.evaluation.cost_per_iteration_usd <= \
        fast.evaluation.cost_per_iteration_usd + 1e-9


def test_planner_min_cost_with_throughput_floor(planner, opt_job, mixed_topology):
    floor = 0.05
    result = planner.plan(opt_job, mixed_topology,
                          Objective.min_cost(min_throughput_iters_per_s=floor))
    assert result.found
    assert result.evaluation.throughput_iters_per_s >= floor


def test_planner_handles_empty_topology(planner, opt_job):
    empty = ClusterTopology()
    result = planner.plan(opt_job, empty, Objective.max_throughput())
    assert not result.found
    assert result.plan is None


def test_planner_infeasible_constraint_returns_nothing(planner, opt_job,
                                                       mixed_topology):
    impossible = Objective.max_throughput(max_cost_per_iteration_usd=1e-6)
    result = planner.plan(opt_job, mixed_topology, impossible)
    assert not result.found


def test_geo_distributed_plan_stays_in_one_region_when_enough_capacity(
        opt_env_geo, opt_job, geo_topology_2regions):
    planner = SailorPlanner(opt_env_geo)
    result = planner.plan(opt_job, geo_topology_2regions,
                          Objective.max_throughput())
    assert result.found
    zones = result.plan.zones()
    regions = {z.rsplit("-", 1)[0] for z in zones}
    # H5/H6: data parallel groups stay within a region; with ample capacity in
    # us-central1 the whole plan should stay there.
    assert len(regions) <= 2
    allocation = result.plan.resource_allocation()
    assert allocation.fits_within(geo_topology_2regions)


def test_time_limit_is_honoured(opt_env, opt_job, mixed_topology):
    config = PlannerConfig(time_limit_s=0.05)
    planner = SailorPlanner(opt_env, config=config)
    result = planner.plan(opt_job, mixed_topology, Objective.max_throughput())
    assert result.search_time_s < 5.0


def test_search_stats_are_populated(planner, opt_job, mixed_topology):
    result = planner.plan(opt_job, mixed_topology, Objective.max_throughput())
    stats = result.search_stats
    assert stats.nodes_explored > 0  # engine layer states count as nodes
    assert stats.memo_hits > 0       # engine child dedup counts as memo reuse
    assert stats.cache_hits > 0


def test_budget_search_stats_report_pruning(planner, opt_job, mixed_topology):
    """Binding budgets run the engine's batched budget scan, which applies
    the branch-and-bound checks before every straggler loop.  The budget is
    0.8x the unconstrained cost: at 0.6x the cost certificates settle all
    but one straggler iteration, so the scan has nothing left to prune."""
    unconstrained = planner.plan(opt_job, mixed_topology,
                                 Objective.max_throughput())
    budget = unconstrained.evaluation.cost_per_iteration_usd * 0.8
    result = planner.plan(
        opt_job, mixed_topology,
        Objective.max_throughput(max_cost_per_iteration_usd=budget))
    stats = result.search_stats
    assert stats.nodes_explored > 0
    assert stats.memo_hits > 0
    assert stats.suffix_iterations > 0  # the straggler loop really runs
    assert stats.pruned_branches > 0  # B&B must actually cut budget branches


def test_budget_search_stats_report_suffix_certificates(planner, opt_job,
                                                        mixed_topology):
    """The straggler-certificate win must be observable, not inferred from
    wall time: a binding budget search reports both the suffix resolutions
    it performed and the ones its certificates avoided, and the counters
    survive the stats round trip.  The budget is 0.7x the unconstrained
    cost: at 0.6x the whole-solution certificate settles every combo, so
    the straggler loop never runs."""
    from repro.core.plan import SearchStats

    unconstrained = planner.plan(opt_job, mixed_topology,
                                 Objective.max_throughput())
    budget = unconstrained.evaluation.cost_per_iteration_usd * 0.7
    result = planner.plan(
        opt_job, mixed_topology,
        Objective.max_throughput(max_cost_per_iteration_usd=budget))
    stats = result.search_stats
    assert stats.suffix_iterations > 0
    assert stats.suffix_certified > 0
    encoded = stats.as_dict()
    assert encoded["suffix_iterations"] == stats.suffix_iterations
    assert encoded["suffix_certified"] == stats.suffix_certified
    decoded = SearchStats.from_dict(encoded)
    assert decoded.suffix_iterations == stats.suffix_iterations
    assert decoded.suffix_certified == stats.suffix_certified
    assert "suffix_certified=" in stats.describe()

    # Unconstrained searches never enter the straggler loop.
    assert unconstrained.search_stats.suffix_iterations == 0
    assert unconstrained.search_stats.suffix_certified == 0


#: ``suffix_iterations`` of the 1.1x plan below when the batched budget
#: scan certified only each child's straggler-loop iteration 1, before the
#: whole-solution combo certificate (``dp_solver.combo_cost_lb``).
BUDGET_POOL_ITERATIONS_CHILD_CERTIFICATE = 112_847


def test_budget_pool_straggler_work_is_pinned():
    """The straggler loop's work is a deterministic counter, so it is
    pinned exactly, on any machine.  The pool is the benchmark's seed-0
    ``budget`` pool (OPT-350M, batch 512, 11 A100 + 9 V100 nodes, 80
    GPUs); at 1.1x of the unconstrained optimum's cost the ceiling does
    not bind the optimum, so the budgeted plan is the unconstrained one,
    and the whole-solution certificate must keep at least half of the
    loop's former iterations from running."""
    job = TrainingJobSpec(model=get_model("OPT-350M"), global_batch_size=512)
    topology = ClusterTopology.single_zone(
        "us-central1-a", {"a2-highgpu-4g": 11, "n1-standard-v100-4": 9})
    unconstrained = SailorPlanner(build_environment(job, topology, seed=0)) \
        .plan(job, topology, Objective.max_throughput())
    ceiling = 1.1 * unconstrained.evaluation.cost_per_iteration_usd
    result = SailorPlanner(build_environment(job, topology, seed=0)).plan(
        job, topology,
        Objective.max_throughput(max_cost_per_iteration_usd=ceiling))
    assert plan_to_json(result.plan) == plan_to_json(unconstrained.plan)
    iterations = result.search_stats.suffix_iterations
    assert iterations == 48_730
    assert 2 * iterations <= BUDGET_POOL_ITERATIONS_CHILD_CERTIFICATE


def test_h3_early_stop_ignores_infeasible_candidates(opt_env, opt_job,
                                                     mixed_topology):
    """Regression: an infeasible (constraint-violating) candidate's score
    must not raise the H3 early-stop bar.  With the bug, high-dp candidates
    rejected by a max_gpus cap could stop a branch before its best *feasible*
    plan was reached; the fixed search matches the exhaustive one."""
    for max_gpus in (8, 12):
        objective = Objective.max_throughput(max_gpus=max_gpus)
        fixed = SailorPlanner(opt_env).plan(opt_job, mixed_topology, objective)
        exhaustive = SailorPlanner(opt_env, config=PlannerConfig(
            heuristics=HeuristicConfig(ordered_data_parallel=False)),
        ).plan(opt_job, mixed_topology, objective)
        assert fixed.found and exhaustive.found
        assert fixed.plan.total_gpus <= max_gpus
        assert fixed.evaluation.throughput_iters_per_s == pytest.approx(
            exhaustive.evaluation.throughput_iters_per_s, rel=1e-9)


def test_engine_and_batched_budget_threading_match_the_exhaustive_plan(
        opt_env, opt_job, mixed_topology, engine_thresholds):
    """End-to-end guarantee behind the engine's speedups: the layered
    engine and the batched budget threading return byte-identical plans
    to the exhaustive oracle, with the engine forced on every solve and
    under the adaptive dispatch."""
    unconstrained = SailorPlanner(opt_env).plan(opt_job, mixed_topology,
                                                Objective.max_throughput())
    budget = unconstrained.evaluation.cost_per_iteration_usd * 0.6
    for objective in (Objective.max_throughput(),
                      Objective.max_throughput(
                          max_cost_per_iteration_usd=budget),
                      Objective.min_cost()):
        reference = None
        for regime in (engine_thresholds(),  # engine forced
                       contextlib.nullcontext(),  # adaptive dispatch
                       exhaustive_planning()):
            with regime:
                result = SailorPlanner(opt_env).plan(opt_job, mixed_topology,
                                                     objective)
            assert result.found
            encoded = plan_to_json(result.plan)
            if reference is None:
                reference = encoded
            else:
                assert encoded == reference


def test_solver_rejects_mismatched_context_goal(opt_env, opt_job):
    from repro.core.dp_solver import DPSolver
    from repro.core.objectives import OptimizationGoal
    from repro.core.search_cache import PlannerSearchContext
    from repro.models.partition import uniform_partition

    context = PlannerSearchContext(opt_env, opt_job)  # MAX_THROUGHPUT
    with pytest.raises(ValueError):
        DPSolver(env=opt_env, job=opt_job,
                 partitions=uniform_partition(opt_job.model, 2),
                 tp_options_per_stage=[{}, {}], microbatch_size=2,
                 data_parallel=2, num_microbatches=4,
                 goal=OptimizationGoal.MIN_COST, context=context)


def test_pruning_does_not_change_the_chosen_plan(opt_env, opt_job,
                                                 mixed_topology):
    """End-to-end guarantee behind the benchmark claim: branch-and-bound
    returns a byte-identical plan."""
    objective = Objective.max_throughput()
    pruned = SailorPlanner(opt_env).plan(opt_job, mixed_topology, objective)
    with exhaustive_planning():
        exhaustive = SailorPlanner(opt_env).plan(opt_job, mixed_topology,
                                                 objective)
    assert pruned.found and exhaustive.found
    assert plan_to_json(pruned.plan) == plan_to_json(exhaustive.plan)
    assert exhaustive.search_stats.pruned_branches == 0
    assert pruned.search_stats.nodes_explored <= \
        exhaustive.search_stats.nodes_explored


@contextlib.contextmanager
def _recording_branch_kills():
    """Record ``(tail candidates killed, branch ended with no best)`` for
    every ``_plan_branch`` call inside the block.  A kill in a branch that
    never had a best of its own can only have fired against the
    cross-branch incumbent."""
    branch = SailorPlanner._plan_branch
    records: list[tuple[int, bool]] = []

    def recording(self, job, objective, consolidated, resources, pp, mbs,
                  context, *args, **kwargs):
        before = context.stats.candidates_killed_unevaluated
        outcome = branch(self, job, objective, consolidated, resources, pp,
                         mbs, context, *args, **kwargs)
        records.append((context.stats.candidates_killed_unevaluated - before,
                        outcome.evaluation is None))
        return outcome

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SailorPlanner, "_plan_branch", recording)
        yield records


def test_tail_kill_preserves_plans_and_bookkeeping(opt_env, opt_job,
                                                   mixed_topology,
                                                   disarm_prunes):
    """Floor-driven tail kills must be observability-only: the chosen
    plan *and* its evaluation are byte-identical with the tail kill on/off
    across objectives, and kills actually fire when armed -- including
    against the cross-branch incumbent, in branches with no best of their
    own, which this pool reaches."""
    unconstrained = SailorPlanner(opt_env).plan(opt_job, mixed_topology,
                                                Objective.max_throughput())
    budget = unconstrained.evaluation.cost_per_iteration_usd * 0.6
    killed_total = 0
    cross_branch_kills = 0
    for objective in (Objective.max_throughput(),
                      Objective.min_cost(),
                      Objective.max_throughput(
                          max_cost_per_iteration_usd=budget)):
        reference = None
        for tail in (True, False):
            with disarm_prunes(tail=not tail), \
                    _recording_branch_kills() as branches:
                result = SailorPlanner(opt_env).plan(
                    opt_job, mixed_topology, objective)
            assert result.found
            snapshot = (plan_to_json(result.plan),
                        result.evaluation.iteration_time_s,
                        result.evaluation.cost_per_iteration_usd)
            if reference is None:
                reference = snapshot
            else:
                assert snapshot == reference
            killed = result.search_stats.candidates_killed_unevaluated
            if tail:
                killed_total += killed
                cross_branch_kills += sum(k for k, no_best in branches
                                          if no_best)
            else:
                assert killed == 0
    assert killed_total > 0
    assert cross_branch_kills > 0


def test_tail_kill_fires_against_the_cross_branch_incumbent(
        opt_env, opt_job, mixed_topology):
    """On a branch whose own best never reaches its tail floors, the
    cross-branch incumbent kills the tail: more candidates die unsolved
    and fewer DP nodes are explored than without it, and the branch still
    cannot beat that incumbent."""
    objective = Objective.max_throughput()
    planner = SailorPlanner(opt_env)
    final = planner.plan(opt_job, mixed_topology, objective)
    assert final.found
    consolidated = consolidate_zones(mixed_topology, planner.config.heuristics)
    resources = SailorPlanner._resource_map(consolidated.topology)
    runs = []
    for incumbent in (None, final.evaluation):
        context = PlannerSearchContext(opt_env, opt_job, objective.goal)
        outcome = planner._plan_branch(opt_job, objective, consolidated,
                                       resources, 2, 1, context,
                                       incumbent=incumbent)
        assert outcome.complete
        runs.append((context.stats, outcome))
    (alone, _), (against, outcome) = runs
    assert alone.families_skipped == against.families_skipped == 0
    assert alone.candidates_killed_unevaluated == 0
    assert (against.candidates_killed_unevaluated
            > alone.candidates_killed_unevaluated)
    assert against.nodes_explored < alone.nodes_explored
    assert outcome.evaluation is None or not objective.better(
        outcome.evaluation, final.evaluation)


def test_family_skip_and_tail_kill_preserve_plans(opt_env, opt_job,
                                                 mixed_topology,
                                                 disarm_prunes):
    """The dominated-family skip must be latency-only: the chosen plan
    *and* its evaluation are byte-identical with the skip on/off (composed
    with the availability-aware tail kill on/off), across objectives; and
    family skips actually fire when armed."""
    unconstrained = SailorPlanner(opt_env).plan(opt_job, mixed_topology,
                                                Objective.max_throughput())
    budget = unconstrained.evaluation.cost_per_iteration_usd * 0.6
    skipped_total = 0
    for objective in (Objective.max_throughput(),
                      Objective.min_cost(),
                      Objective.max_throughput(
                          max_cost_per_iteration_usd=budget)):
        reference = None
        for family in (True, False):
            for tail in (True, False):
                with disarm_prunes(family=not family, tail=not tail):
                    result = SailorPlanner(opt_env).plan(
                        opt_job, mixed_topology, objective)
                assert result.found
                snapshot = (plan_to_json(result.plan),
                            result.evaluation.iteration_time_s,
                            result.evaluation.cost_per_iteration_usd)
                if reference is None:
                    reference = snapshot
                else:
                    assert snapshot == reference
                skipped = result.search_stats.families_skipped
                if family:
                    skipped_total += skipped
                else:
                    assert skipped == 0
    assert skipped_total > 0


@pytest.mark.parametrize("objective", [Objective.max_throughput(),
                                       Objective.min_cost()],
                         ids=["throughput", "cost"])
def test_exhaustive_planning_turns_every_prune_off(opt_env, opt_job,
                                                   mixed_topology, objective):
    """``exhaustive_planning`` turns every prune off: no tail kill,
    family skip or DP branch prune fires, and the exhaustive search
    returns the pruned search's plan."""
    with exhaustive_planning():
        exhaustive = SailorPlanner(opt_env).plan(opt_job, mixed_topology,
                                                 objective)
    pruned = SailorPlanner(opt_env).plan(opt_job, mixed_topology, objective)
    assert exhaustive.found
    assert plan_to_json(pruned.plan) == plan_to_json(exhaustive.plan)
    stats = exhaustive.search_stats
    assert stats.candidates_killed_unevaluated == 0
    assert stats.families_skipped == 0
    assert stats.pruned_branches == 0


def test_fused_combine_preserves_plans_when_forced(opt_env, opt_job,
                                                   mixed_topology,
                                                   monkeypatch):
    """Force each combine route onto every layer by moving the dispatch
    band (engine always on): with ``FUSED_COMBINE_MIN_ELEMS = 1`` every
    non-last layer combines in the workspace buffers, with the minimum
    above the maximum none does.  Plans, evaluations, and node counts are
    bit-identical between the two, and the workspace route demonstrably
    runs."""
    import repro.core.dp_solver as dp_solver
    import repro.core.resource_state as rs

    monkeypatch.setattr(dp_solver, "ENGINE_MIN_STATES", 0)
    fused_hits = 0
    for objective in (Objective.max_throughput(), Objective.min_cost()):
        snapshots = []
        for fused in (False, True):
            monkeypatch.setattr(rs, "FUSED_COMBINE_MIN_ELEMS",
                                1 if fused else rs.FUSED_COMBINE_MAX_ELEMS + 1)
            result = SailorPlanner(opt_env).plan(opt_job, mixed_topology,
                                                 objective)
            assert result.found
            snapshots.append((plan_to_json(result.plan),
                              result.evaluation.iteration_time_s,
                              result.evaluation.cost_per_iteration_usd,
                              result.search_stats.nodes_explored))
            if fused:
                fused_hits += result.search_stats.combine_fused_hits
            else:
                assert result.search_stats.combine_fused_hits == 0
        assert snapshots[0] == snapshots[1]
    assert fused_hits > 0


def test_disabling_h2_can_generate_oom_candidates(neo_env, neo_job,
                                                  mixed_topology):
    heuristics = HeuristicConfig(prune_oom_early=False)
    planner = SailorPlanner(neo_env, config=PlannerConfig(heuristics=heuristics,
                                                          time_limit_s=20.0))
    result = planner.plan(neo_job, mixed_topology, Objective.max_throughput())
    default_planner = SailorPlanner(neo_env,
                                    config=PlannerConfig(time_limit_s=20.0))
    default_result = default_planner.plan(neo_job, mixed_topology,
                                          Objective.max_throughput())
    assert default_result.oom_plans_generated == 0
    # Without H2 the planner may propose plans that the simulator then rejects.
    assert result.oom_plans_generated >= default_result.oom_plans_generated


@pytest.mark.parametrize("field, value", [
    ("time_limit_s", float("nan")),
    ("time_limit_s", -1.0),
    ("time_limit_s", 0.0),
    ("time_limit_s", float("inf")),
    ("max_search_nodes", 0),
], ids=["nan", "negative", "zero", "inf", "zero-nodes"])
def test_planner_config_rejects_bad_search_limits(field, value):
    """A NaN deadline never trips and a past one cuts every branch before
    its first solve, so a bad limit must fail at construction rather than
    mis-plan."""
    with pytest.raises(ValueError, match=field):
        PlannerConfig(**{field: value})
