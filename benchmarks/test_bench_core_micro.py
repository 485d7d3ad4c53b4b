"""Planner scale points and one-call smokes of the core library primitives.

Each planner point (paper Tables 1-3 all hinge on planner latency and
search work) plans once and pins its plan digest and its search work
exactly -- nodes explored, memo hits, tail kills, family skips, straggler
iterations, certificates and candidates evaluated (``conftest.plan_work``).
The counters are deterministic, so a disarmed tail kill, family skip,
certificate or memo fails here on any machine, like ``tests/golden/``.
A change that alters the search on purpose updates the pins and says so.
Wall time is not judged here: ``make ab`` compares the perfbench workloads
against a parent revision in alternating pairs.

Every point plans OPT-350M at batch 512 on A100 and V100 4-GPU nodes in
us-central1-a (environment seed 0) unless it says otherwise.  The
1024-8192-GPU points run only under ``BENCH_SCALE=full``.
"""

from __future__ import annotations

import pytest

from conftest import full_scale_only, pinned, plan_work

from repro.core.objectives import Objective
from repro.core.plan import ParallelizationPlan
from repro.core.planner import SailorPlanner
from repro.core.simulator import (
    MemoryEstimator,
    ReferenceSimulator,
    SailorSimulator,
    build_environment,
)
from repro.hardware.topology import ClusterTopology
from repro.models.catalog import get_model
from repro.models.spec import TrainingJobSpec
from repro.profiler.compute import ComputeProfiler
from repro.hardware.gpus import get_gpu
from repro.runtime.comm_groups import build_rank_topology


@pytest.fixture(scope="module")
def job():
    return TrainingJobSpec(model=get_model("OPT-350M"), global_batch_size=512)


@pytest.fixture(scope="module")
def topology():
    return mixed_pool(8)


@pytest.fixture(scope="module")
def env(job, topology):
    return build_environment(job, topology)


@pytest.fixture(scope="module")
def plan(job):
    return ParallelizationPlan.homogeneous(job, "a2-highgpu-4g",
                                           pipeline_parallel=4, data_parallel=4,
                                           tensor_parallel=2, microbatch_size=2)


def mixed_pool(nodes_per_type: int) -> ClusterTopology:
    """``nodes_per_type`` A100 and V100 4-GPU nodes in us-central1-a."""
    return ClusterTopology.single_zone("us-central1-a", {
        "a2-highgpu-4g": nodes_per_type,
        "n1-standard-v100-4": nodes_per_type})


def plan_once(job, topology, objective):
    """One cold plan on a fresh environment."""
    env = build_environment(job, topology)
    return SailorPlanner(env).plan(job, topology, objective)


# -- core primitives, one call each -------------------------------------------


def test_bench_profile_one_gpu_type(job):
    """Simulated single-node profiling of one GPU type (section 4.1)."""
    profile = ComputeProfiler().profile(job, get_gpu("A100-40"),
                                        microbatch_sizes=[1, 2, 4, 8],
                                        tensor_parallel_degrees=[1, 2, 4])
    assert profile.layer_times


def test_bench_environment_build(job, topology):
    """Full profiling pass: every GPU type + every network pair."""
    assert build_environment(job, topology).profiles.gpu_types()


def test_bench_simulator_evaluate(env, plan):
    """One plan evaluation (memory + timing + cost) -- the planner inner
    loop -- answered again from the per-plan-signature cache."""
    simulator = SailorSimulator(env)
    first = simulator.evaluate(plan)
    assert first.is_valid
    assert simulator.evaluate(plan) == first


def test_bench_simulator_evaluate_uncached(env, plan):
    """The cold fused pass on a fresh simulator scores the plan exactly as
    a simulator that has evaluated it before."""
    warm = SailorSimulator(env)
    warm.evaluate(plan)
    assert SailorSimulator(env).evaluate(plan) == warm.evaluate(plan)


def test_bench_memory_estimator(env, plan):
    """Per-worker peak-memory estimation for a 32-GPU plan."""
    peaks = MemoryEstimator(env).stage_peaks(plan)
    assert len(peaks) == plan.pipeline_parallel


def test_bench_reference_simulator(env, plan):
    """Event-driven 1F1B reference simulation of one iteration."""
    assert ReferenceSimulator(env).measure(plan).iteration_time_s > 0


def test_bench_comm_group_construction(plan):
    """Building the heterogeneous rank topology of a 32-GPU plan."""
    assert build_rank_topology(plan).world_size == plan.total_gpus


# -- planner points: exact work pins -------------------------------------------


def test_bench_planner_homogeneous_32_a100(job):
    """32 homogeneous A100s (Table 1 row)."""
    topology = ClusterTopology.homogeneous("a2-highgpu-4g", 8)
    result = plan_once(job, topology, Objective.max_throughput())
    assert result.found
    assert plan_work(result) == pinned("f59f3fc302ad", 3, 0, 14, 29, 0, 0, 3)


def test_bench_planner_heterogeneous_64_gpus(job):
    """32 A100 + 32 V100 (Figure 8 small point)."""
    result = plan_once(job, mixed_pool(8), Objective.max_throughput())
    assert result.found
    assert plan_work(result) == pinned(
        "47a6d4690877", 4_657, 27_582, 89, 33, 0, 0, 35)


def test_bench_planner_heterogeneous_128_gpus(job):
    """64 A100 + 64 V100 (Figure 8 mid point)."""
    result = plan_once(job, mixed_pool(16), Objective.max_throughput())
    assert result.found
    assert plan_work(result) == pinned(
        "5d01727e10d7", 15_711, 135_177, 130, 29, 0, 0, 42)


def test_bench_planner_heterogeneous_256_gpus(job):
    """128 A100 + 128 V100 (Figure 8 scale-out).

    Cost-bound-driven candidate scheduling must kill unexplored branch
    tails at this scale."""
    result = plan_once(job, mixed_pool(32), Objective.max_throughput())
    assert result.found
    assert result.search_stats.candidates_killed_unevaluated > 0
    assert plan_work(result) == pinned(
        "0f4a22b15896", 48_611, 436_779, 161, 30, 0, 0, 42)


def test_bench_planner_heterogeneous_256_gpus_min_cost(job):
    """Min-cost search on the 256-GPU mixed pool.

    The cost objective is where the dominated-family skip bites: family
    cost floors (D x rate x time) discriminate much harder than time
    floors, so whole (P, mbs) families are skipped before any forward
    build."""
    result = plan_once(job, mixed_pool(32), Objective.min_cost())
    assert result.found
    assert result.search_stats.families_skipped > 0
    assert plan_work(result) == pinned(
        "5b593958bf70", 39_580, 541_478, 97, 9, 0, 0, 195)


def test_bench_planner_heterogeneous_512_gpus(job):
    """256 A100 + 256 V100 (Figure 8 max point, the paper's largest)."""
    result = plan_once(job, mixed_pool(64), Objective.max_throughput())
    assert result.found
    assert plan_work(result) == pinned(
        "f9acc4ddfeb0", 51_209, 492_095, 103, 47, 0, 0, 25)


@full_scale_only
@pytest.mark.parametrize("nodes_per_type, work", [
    (128, ("51ac91e976b6", 88_558, 831_377, 98, 49, 0, 0, 27)),
    (256, ("6a665f1224fc", 1_531_730, 19_209_785, 152, 39, 0, 0, 61)),
    (512, ("b92437f75f71", 4_489_017, 57_633_764, 169, 39, 0, 0, 64)),
    (1024, ("8f1668971e7e", 2_130_117, 27_613_851, 114, 48, 0, 0, 46)),
], ids=["1024_gpus", "2048_gpus", "4096_gpus", "8192_gpus"])
def test_bench_planner_heterogeneous_full_scale(job, nodes_per_type, work):
    """1024 to 8192 GPUs, up to 8x beyond the paper's Figure 8."""
    result = plan_once(job, mixed_pool(nodes_per_type),
                       Objective.max_throughput())
    assert result.found
    assert result.search_stats.candidates_killed_unevaluated > 0
    assert plan_work(result) == pinned(*work)


def test_bench_planner_budget_constrained_64_gpus(job):
    """Budget-constrained search on the mixed cluster (Table 3's slow case).

    The budget is ~70% of the unconstrained optimum's cost, so it binds
    and runs the straggler-approximation loop of section 4.2.3; its
    convergence certificates must fire."""
    objective = Objective.max_throughput(max_cost_per_iteration_usd=0.031)
    result = plan_once(job, mixed_pool(8), objective)
    assert result.found
    assert result.evaluation.cost_per_iteration_usd <= 0.031
    assert result.search_stats.suffix_certified > 0
    assert plan_work(result) == pinned(
        "f59f3fc302ad", 9_709, 55_182, 109, 13, 148, 675, 5)


def test_bench_planner_budget_constrained_128_gpus(job):
    """Budget-constrained search at engine scale (128 GPUs, ~70% budget).

    The certificates prove most suffix budgets infeasible in-layer, and
    the tail kill arms on the binding-budget search too (it compares
    iteration-time floors against the budget incumbent's)."""
    objective = Objective.max_throughput(max_cost_per_iteration_usd=0.0364)
    result = plan_once(job, mixed_pool(16), objective)
    assert result.found
    assert result.evaluation.cost_per_iteration_usd <= 0.0364
    assert result.search_stats.suffix_certified > 0
    assert result.search_stats.candidates_killed_unevaluated > 0
    assert plan_work(result) == pinned(
        "c965f3320fc7", 22_643, 178_093, 149, 21, 14_580, 21_214, 7)


def test_bench_planner_budget_constrained_geo_64_gpus(job):
    """Budget-constrained search over two zones (Table 3, geo flavour).

    The budget (~70% of the unconstrained optimum) binds, and cross-zone
    plans carry egress the DP's compute-only cost model cannot see, so
    most candidates the DP emits are evaluated and then rejected over
    budget."""
    topology = ClusterTopology(nodes={
        "us-central1-a": {"a2-highgpu-4g": 4, "n1-standard-v100-4": 4},
        "us-central1-b": {"a2-highgpu-4g": 4, "n1-standard-v100-4": 4},
    })
    objective = Objective.max_throughput(max_cost_per_iteration_usd=0.0614)
    result = plan_once(job, topology, objective)
    assert result.found
    assert result.evaluation.cost_per_iteration_usd <= 0.0614
    assert result.search_stats.suffix_certified > 0
    assert plan_work(result) == pinned(
        "725eec8017d2", 14_679, 84_119, 123, 7, 14_272, 11_227, 35)
