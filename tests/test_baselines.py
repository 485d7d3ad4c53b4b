"""Integration tests for the baseline planners."""

import hashlib

import pytest

from repro.baselines import get_baseline, list_baselines
from repro.baselines.base import BaselineSearchLimits
from repro.core.objectives import Objective
from repro.core.serialization import plan_to_json
from repro.core.simulator import MemoryEstimator


ALL_BASELINES = ("piper", "varuna", "amp", "metis", "flashflex", "galvatron",
                 "aceso", "oobleck", "dtfm")

FAST_LIMITS = BaselineSearchLimits(max_ranked=16, max_candidates=512)


def make(name, env):
    return get_baseline(name, env, limits=FAST_LIMITS)


def test_registry_contains_all_baselines():
    assert set(ALL_BASELINES) <= set(list_baselines())
    with pytest.raises(KeyError):
        get_baseline("alpa", env=None)


@pytest.mark.parametrize("name", ALL_BASELINES)
def test_baseline_finds_valid_plan_on_homogeneous_cluster(name, opt_env, opt_job,
                                                          a100_topology):
    baseline = make(name, opt_env)
    result = baseline.plan(opt_job, a100_topology, Objective.max_throughput())
    assert result.planner_name == name
    assert result.candidates_evaluated > 0
    assert result.found, f"{name} found no valid plan"
    plan = result.plan
    assert plan.resource_allocation().fits_within(a100_topology)
    assert MemoryEstimator(opt_env).plan_fits(plan)
    assert result.evaluation.throughput_iters_per_s > 0


def test_varuna_only_searches_2d_plans(opt_env, opt_job, a100_topology):
    baseline = make("varuna", opt_env)
    ranked = baseline.ranked_plans(opt_job, a100_topology,
                                   Objective.max_throughput())
    assert ranked
    for candidate in ranked:
        degrees = {r.tensor_parallel for s in candidate.plan.stages
                   for r in s.replicas}
        assert degrees == {1}


def test_amp_counts_oom_plans_on_memory_pressure(neo_env, neo_job,
                                                 mixed_topology):
    baseline = make("amp", neo_env)
    result = baseline.plan(neo_job, mixed_topology, Objective.max_throughput())
    # AMP does not model memory, so it ranks plans that do not actually fit.
    assert result.oom_plans_generated > 0


def test_heterogeneous_baselines_use_both_gpu_types(opt_env, opt_job,
                                                    mixed_topology):
    for name in ("amp", "flashflex"):
        baseline = make(name, opt_env)
        ranked = baseline.ranked_plans(opt_job, mixed_topology,
                                       Objective.max_throughput())
        assert ranked, name
        mixed = any(len(c.plan.gpus_by_type()) > 1 for c in ranked)
        assert mixed, f"{name} never mixes GPU types"


def test_homogeneous_baselines_stick_to_fastest_type(opt_env, opt_job,
                                                     mixed_topology):
    baseline = make("piper", opt_env)
    ranked = baseline.ranked_plans(opt_job, mixed_topology,
                                   Objective.max_throughput())
    assert ranked
    for candidate in ranked:
        assert set(candidate.plan.gpus_by_type()) == {"A100-40"}


def test_dtfm_spreads_over_zones(opt_env_geo, opt_job, geo_topology_2regions):
    baseline = make("dtfm", opt_env_geo)
    ranked = baseline.ranked_plans(opt_job, geo_topology_2regions,
                                   Objective.max_throughput())
    assert ranked
    zones_used = max(len(c.plan.zones()) for c in ranked)
    assert zones_used >= 2


def test_metis_requires_divisible_global_batch(opt_env, opt_job, mixed_topology):
    baseline = make("metis", opt_env)
    ranked = baseline.ranked_plans(opt_job, mixed_topology,
                                   Objective.max_throughput())
    # 256-sequence batch divides the 64-GPU cluster, so plans exist.
    assert ranked
    total_gpus = mixed_topology.total_gpus()
    assert opt_job.global_batch_size % total_gpus == 0


def test_baseline_respects_throughput_constraint(opt_env, opt_job,
                                                 a100_topology):
    baseline = make("galvatron", opt_env)
    unconstrained = baseline.plan(opt_job, a100_topology,
                                  Objective.max_throughput())
    floor = unconstrained.evaluation.throughput_iters_per_s * 0.5
    result = baseline.plan(opt_job, a100_topology,
                           Objective.min_cost(min_throughput_iters_per_s=floor))
    if result.found:
        assert result.evaluation.throughput_iters_per_s >= floor


def test_baseline_search_times_reported(opt_env, opt_job, a100_topology):
    fast = make("piper", opt_env)
    result = fast.plan(opt_job, a100_topology, Objective.max_throughput())
    assert 0 <= result.search_time_s < 10.0


def test_metis_stops_after_max_candidates_feasible_plans(opt_env, opt_job,
                                                        mixed_topology):
    """Metis's search is bounded by a count, not a clock: it keeps the
    first ``max_candidates`` feasible plans of its enumeration."""
    objective = Objective.max_throughput()
    capped = get_baseline("metis", opt_env, limits=BaselineSearchLimits(
        max_candidates=5, max_ranked=64))
    ranked = capped.ranked_plans(opt_job, mixed_topology, objective)
    assert len(ranked) == 5
    assert capped.plan(opt_job, mixed_topology,
                       objective).candidates_evaluated == 5
    wider = get_baseline("metis", opt_env, limits=BaselineSearchLimits(
        max_candidates=50, max_ranked=64))
    wider_plans = {plan_to_json(c.plan) for c in
                   wider.ranked_plans(opt_job, mixed_topology, objective)}
    assert len(wider_plans) > 5
    assert {plan_to_json(c.plan) for c in ranked} <= wider_plans


#: Oobleck's full ranked list (count, sha256 prefix over each plan's JSON
#: and estimates) per (topology fixture, goal).
OOBLECK_RANKED = {
    ("a100_topology", "max_throughput"): (270, "a083b265123f"),
    ("a100_topology", "min_cost"): (270, "7ef661ebda53"),
    ("mixed_topology", "max_throughput"): (127, "62c6510adc97"),
    ("mixed_topology", "min_cost"): (127, "f4de9c07a2fa"),
}


@pytest.mark.parametrize("topology,goal", sorted(OOBLECK_RANKED))
def test_oobleck_ranked_plans_are_pinned(opt_env, opt_job, topology, goal,
                                         request):
    """Oobleck's template enumeration, ranking and estimates are pinned:
    enumerating each TP degree once must not reorder or change a plan."""
    baseline = get_baseline("oobleck", opt_env, limits=BaselineSearchLimits(
        max_ranked=4096, max_candidates=512))
    objective = getattr(Objective, goal)()
    ranked = baseline.ranked_plans(
        opt_job, request.getfixturevalue(topology), objective)
    text = "\n".join(plan_to_json(c.plan) + repr(c.estimated_iteration_time_s)
                     + repr(c.estimated_cost_usd) for c in ranked)
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    assert (len(ranked), digest) == OOBLECK_RANKED[(topology, goal)]
