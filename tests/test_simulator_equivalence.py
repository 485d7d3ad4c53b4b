"""Equivalence suite for the vectorized evaluation layer.

Asserts that ``SailorSimulator`` (``EvaluationContext`` + fused kernels +
evaluation cache) reproduces a scalar reference built from the per-replica
estimators (:func:`scalar_evaluate`, :func:`scalar_cost_floor`)
*bit-for-bit* over homogeneous, heterogeneous and multi-zone plans; that
cached evaluations equal fresh ones; that the planner's chosen plans and
candidate counts stay pinned; and that the context's per-plan cache
hit/miss accounting behaves as documented.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.objectives import Objective
from repro.core.plan import (
    ParallelizationPlan,
    PlanEvaluation,
    StageConfig,
    StageReplica,
)
from repro.core.planner import SailorPlanner
from repro.core.simulator import (
    CostEstimator,
    EvaluationContext,
    MemoryEstimator,
    SailorSimulator,
    TimingEstimator,
    plan_signature,
)
from repro.models.partition import uniform_partition


def evaluations_equal(a, b) -> bool:
    """Bitwise equality of two PlanEvaluations (no tolerance)."""
    return dataclasses.asdict(a) == dataclasses.asdict(b)


# ---------------------------------------------------------------------------
# Scalar reference: per-replica walks over the estimators
# ---------------------------------------------------------------------------

def scalar_evaluate(env, plan: ParallelizationPlan) -> PlanEvaluation:
    """The reference ``SailorSimulator.evaluate`` must reproduce bitwise."""
    # One memory pass serves both the OOM check and the per-stage peaks.
    breakdowns = MemoryEstimator(env).plan_breakdowns(plan)
    oom_stages = [stage.stage_index
                  for stage, per_stage in zip(plan.stages, breakdowns)
                  if any(not b.fits for b in per_stage)]
    stage_peaks = [max(b.peak_bytes for b in per_stage)
                   for per_stage in breakdowns]
    timing = TimingEstimator(env).breakdown(plan)
    iteration_time = timing.iteration_time_s
    cost = CostEstimator(env).breakdown(plan, iteration_time)
    return PlanEvaluation(
        iteration_time_s=iteration_time,
        throughput_iters_per_s=(1.0 / iteration_time
                                if iteration_time > 0 else 0.0),
        cost_per_iteration_usd=cost.total_usd,
        peak_memory_bytes_per_stage=stage_peaks,
        is_valid=not oom_stages,
        oom_stages=oom_stages,
        compute_cost_usd=cost.compute_usd,
        communication_cost_usd=cost.communication_usd,
        pipeline_time_s=timing.pipeline_time_s,
        sync_time_s=timing.sync_time_s,
        update_time_s=timing.update_time_s,
        straggler_stage=timing.straggler_stage,
    )


def scalar_cost_floor(env, plan: ParallelizationPlan) -> float:
    """The reference ``SailorSimulator.cost_floor`` must reproduce bitwise:
    compute cost at the pipeline + update time floor, plus exact egress."""
    timing = TimingEstimator(env)
    pipeline = max(timing.pipeline_time(plan, d)
                   for d in range(plan.data_parallel))
    update = max(timing.replica_update_time(plan, stage, replica)
                 for stage in plan.stages for replica in stage.replicas)
    comm_usd = CostEstimator(env).communication_cost(plan)[0]
    gpu_counts = plan.resource_allocation().gpus_by_type()
    return env.prices.compute_cost(gpu_counts, pipeline + update) + comm_usd


def heterogeneous_plan(job, microbatch_size: int = 2) -> ParallelizationPlan:
    """Two stages mixing GPU types and TP degrees within one zone."""
    parts = uniform_partition(job.model, 2)
    zone = "us-central1-a"
    stages = [
        StageConfig(partition=parts[0], replicas=[
            StageReplica("a2-highgpu-4g", 2, zone),
            StageReplica("n1-standard-v100-4", 4, zone),
        ]),
        StageConfig(partition=parts[1], replicas=[
            StageReplica("n1-standard-v100-4", 2, zone),
            StageReplica("n1-standard-v100-4", 2, zone),
        ]),
    ]
    return ParallelizationPlan(job=job, stages=stages,
                               microbatch_size=microbatch_size)


def multizone_plan(job, microbatch_size: int = 2) -> ParallelizationPlan:
    """Two stages whose data-parallel groups span zones and regions."""
    parts = uniform_partition(job.model, 2)
    stages = [
        StageConfig(partition=parts[0], replicas=[
            StageReplica("a2-highgpu-4g", 4, "us-central1-a"),
            StageReplica("a2-highgpu-4g", 4, "us-central1-b"),
        ]),
        StageConfig(partition=parts[1], replicas=[
            StageReplica("a2-highgpu-4g", 4, "us-central1-b"),
            StageReplica("a2-highgpu-4g", 4, "us-west1-a"),
        ]),
    ]
    return ParallelizationPlan(job=job, stages=stages,
                               microbatch_size=microbatch_size)


# ---------------------------------------------------------------------------
# Vectorized vs scalar equivalence
# ---------------------------------------------------------------------------

VALID_CONFIGS = st.tuples(
    st.sampled_from([1, 2, 4]),          # pipeline parallel
    st.sampled_from([1, 2, 4]),          # data parallel
    st.sampled_from([1, 2, 4]),          # tensor parallel
    st.sampled_from([1, 2, 4]),          # microbatch size
)


@settings(max_examples=25, deadline=None)
@given(config=VALID_CONFIGS)
def test_vectorized_matches_scalar_homogeneous(opt_env, opt_job, config):
    pp, dp, tp, mbs = config
    plan = ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g",
                                           pp, dp, tp, mbs)
    vectorized = SailorSimulator(opt_env).evaluate(plan)
    scalar = scalar_evaluate(opt_env, plan)
    assert evaluations_equal(vectorized, scalar)


@pytest.mark.parametrize("mbs", [1, 2, 4])
def test_vectorized_matches_scalar_heterogeneous(opt_env, opt_job, mbs):
    plan = heterogeneous_plan(opt_job, microbatch_size=mbs)
    vectorized = SailorSimulator(opt_env).evaluate(plan)
    scalar = scalar_evaluate(opt_env, plan)
    assert evaluations_equal(vectorized, scalar)


def test_vectorized_matches_scalar_multizone(opt_env_geo, opt_job):
    plan = multizone_plan(opt_job)
    vectorized = SailorSimulator(opt_env_geo).evaluate(plan)
    scalar = scalar_evaluate(opt_env_geo, plan)
    assert evaluations_equal(vectorized, scalar)
    # Cross-zone plans must exercise the egress-cost path.
    assert vectorized.communication_cost_usd > 0


def test_vectorized_matches_scalar_with_checkpointing(opt_env, opt_job):
    job = dataclasses.replace(opt_job, activation_checkpointing=True)
    plan = ParallelizationPlan.homogeneous(job, "a2-highgpu-4g", 4, 2, 4, 2)
    vectorized = SailorSimulator(opt_env).evaluate(plan)
    scalar = scalar_evaluate(opt_env, plan)
    assert evaluations_equal(vectorized, scalar)


def test_oom_detection_identical_on_too_small_gpus(neo_env, neo_job):
    """A plan that OOMs scalar-side must OOM identically vectorized."""
    plan = ParallelizationPlan.homogeneous(neo_job, "n1-standard-v100-4",
                                           1, 2, 1, 1)
    vectorized = SailorSimulator(neo_env).evaluate(plan)
    scalar = scalar_evaluate(neo_env, plan)
    assert evaluations_equal(vectorized, scalar)
    assert not vectorized.is_valid
    assert vectorized.oom_stages == [0]
    assert SailorSimulator(neo_env).oom_stages(plan) == [0]


def test_floor_never_exceeds_full_estimate(opt_env, opt_job):
    simulator = SailorSimulator(opt_env)
    plans = [
        ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 4, 2, 4, 2),
        ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 1, 4, 2, 1),
        heterogeneous_plan(opt_job),
    ]
    for plan in plans:
        floor = simulator.iteration_time_floor(plan)
        assert floor <= simulator.evaluate(plan).iteration_time_s
        assert floor > 0


# ---------------------------------------------------------------------------
# Evaluation cache
# ---------------------------------------------------------------------------

def test_evaluate_in_sequence_matches_scalar(opt_env, opt_job):
    """One simulator evaluating several plans in turn: every result
    matches the scalar reference, and a duplicate served from the
    evaluation cache equals the first evaluation."""
    simulator = SailorSimulator(opt_env)
    plans = [
        ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 4, 2, 4, 2),
        heterogeneous_plan(opt_job),
        ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 2, 2, 2, 4),
        # Duplicate of the first plan.
        ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 4, 2, 4, 2),
    ]
    results = [simulator.evaluate(plan) for plan in plans]
    for plan, result in zip(plans, results):
        assert evaluations_equal(result, scalar_evaluate(opt_env, plan))
    assert evaluations_equal(results[0], results[3])
    assert simulator.eval_cache_hits == 1


def test_cached_evaluations_do_not_alias(opt_env, opt_job):
    """Mutating one returned evaluation must not corrupt the cache."""
    simulator = SailorSimulator(opt_env)
    plan = ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 4, 2, 4, 2)
    first = simulator.evaluate(plan)
    first.peak_memory_bytes_per_stage.append(-1.0)
    first.oom_stages.append(99)
    second = simulator.evaluate(plan)
    assert second.oom_stages == []
    assert -1.0 not in second.peak_memory_bytes_per_stage


# ---------------------------------------------------------------------------
# EvaluationContext cache semantics
# ---------------------------------------------------------------------------

def test_plan_cache_hit_miss_accounting(opt_env, opt_job):
    context = EvaluationContext(opt_env)
    plan = ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 4, 2, 4, 2)
    assert (context.plan_cache_hits, context.plan_cache_misses) == (0, 0)
    first = context.plan_arrays(plan)
    assert (context.plan_cache_hits, context.plan_cache_misses) == (0, 1)
    again = context.plan_arrays(plan)
    assert again is first
    assert (context.plan_cache_hits, context.plan_cache_misses) == (1, 1)
    # A *structurally equal* but distinct plan object hits the same entry.
    twin = ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 4, 2, 4, 2)
    assert context.plan_arrays(twin) is first
    assert (context.plan_cache_hits, context.plan_cache_misses) == (2, 1)
    # Any structural difference is a distinct entry.
    other = ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 4, 2, 4, 1)
    assert context.plan_arrays(other) is not first
    assert (context.plan_cache_hits, context.plan_cache_misses) == (2, 2)


def test_plan_signature_distinguishes_evaluation_inputs(opt_job):
    base = ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 4, 2, 4, 2)
    twin = ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 4, 2, 4, 2)
    assert plan_signature(base) == plan_signature(twin)
    for different in (
            ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 4, 2, 4, 1),
            ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 2, 2, 4, 2),
            ParallelizationPlan.homogeneous(opt_job, "n1-standard-v100-4", 4, 2, 4, 2),
            ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 4, 2, 4, 2,
                                            zone="us-central1-b"),
            ParallelizationPlan.homogeneous(
                dataclasses.replace(opt_job, activation_checkpointing=True),
                "a2-highgpu-4g", 4, 2, 4, 2),
    ):
        assert plan_signature(different) != plan_signature(base)


def test_simulator_eval_cache_accounting(opt_env, opt_job):
    simulator = SailorSimulator(opt_env)
    plan = ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 4, 2, 4, 2)
    simulator.evaluate(plan)
    simulator.evaluate(plan)
    assert simulator.eval_cache_misses == 1
    assert simulator.eval_cache_hits == 1


# ---------------------------------------------------------------------------
# Planner pins: chosen plan and candidate counts
# ---------------------------------------------------------------------------

def test_budget_plan_pinned_on_geo_topology(opt_env_geo, opt_job,
                                            geo_topology_2regions):
    """The DP's budget filter knows nothing about egress, so on a
    multi-zone topology it emits candidates whose exact egress cost busts
    the budget; each is evaluated and rejected.  Pins the chosen plan and
    the candidate counts."""
    unconstrained = SailorPlanner(opt_env_geo).plan(
        opt_job, geo_topology_2regions, Objective.max_throughput())
    budget = unconstrained.evaluation.cost_per_iteration_usd * 0.75
    objective = Objective.max_throughput(max_cost_per_iteration_usd=budget)
    result = SailorPlanner(opt_env_geo).plan(
        opt_job, geo_topology_2regions, objective)
    assert result.plan.describe() == (
        "P=1 D=8 mbs=2 gpus=8\n"
        "  stage 0: 24 layers, 8x(tp=1 A100-40 @us-central1-a)")
    assert result.evaluation.cost_per_iteration_usd <= budget
    assert result.candidates_evaluated == 11
    assert result.oom_plans_generated == 0


def test_throughput_plan_pinned_on_mixed_topology(opt_env, opt_job,
                                                  mixed_topology):
    result = SailorPlanner(opt_env).plan(opt_job, mixed_topology,
                                         Objective.max_throughput())
    assert result.plan.describe() == (
        "P=3 D=8 mbs=2 gpus=32\n"
        "  stage 0: 8 layers, 8x(tp=1 A100-40 @us-central1-a)\n"
        "  stage 1: 8 layers, 8x(tp=2 V100-16 @us-central1-a)\n"
        "  stage 2: 8 layers, 8x(tp=1 A100-40 @us-central1-a)")
    assert result.candidates_evaluated == 26
    assert result.oom_plans_generated == 0


# ---------------------------------------------------------------------------
# Cost floor: conservative and egress-covering
# ---------------------------------------------------------------------------

def test_cost_floor_never_exceeds_full_cost(opt_env, opt_job):
    """Floor property over the Table 3-style plan matrix (homogeneous,
    heterogeneous, checkpointing)."""
    simulator = SailorSimulator(opt_env)
    plans = [
        ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 4, 2, 4, 2),
        ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 1, 4, 2, 1),
        ParallelizationPlan.homogeneous(opt_job, "n1-standard-v100-4",
                                        2, 2, 2, 4),
        heterogeneous_plan(opt_job),
        ParallelizationPlan.homogeneous(
            dataclasses.replace(opt_job, activation_checkpointing=True),
            "a2-highgpu-4g", 4, 2, 4, 2),
    ]
    for plan in plans:
        floor = simulator.cost_floor(plan)
        assert 0 < floor <= simulator.evaluate(plan).cost_per_iteration_usd


def test_cost_floor_covers_egress_on_multizone_plans(opt_env_geo, opt_job):
    """Cross-zone plans must carry the (time-independent, exact) egress
    term in the floor -- that is what arms the gate under cost objectives."""
    simulator = SailorSimulator(opt_env_geo)
    plan = multizone_plan(opt_job)
    evaluation = simulator.evaluate(plan)
    floor = simulator.cost_floor(plan)
    assert evaluation.communication_cost_usd > 0
    # The floor includes the full egress cost on top of the compute floor.
    assert floor >= evaluation.communication_cost_usd
    assert floor <= evaluation.cost_per_iteration_usd


def test_cost_floor_scalar_path_agrees(opt_env, opt_job):
    plan = heterogeneous_plan(opt_job)
    vectorized = SailorSimulator(opt_env).cost_floor(plan)
    scalar = scalar_cost_floor(opt_env, plan)
    assert vectorized == scalar  # bitwise: same scalars, same op order
