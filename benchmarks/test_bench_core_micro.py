"""Micro-benchmarks of the core library primitives.

Unlike the per-figure benchmarks (which regenerate the paper's tables once),
these run the hot paths of the library -- profiling, plan evaluation, the
reference simulator, the DP solver and the full planner -- for several
rounds, so `pytest-benchmark` reports meaningful statistics.  They are the
numbers to watch when optimising the planner (paper Tables 1-3 all hinge on
planner latency).
"""

from __future__ import annotations

import os

import pytest

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
    return ClusterTopology.single_zone("us-central1-a", {
        "a2-highgpu-4g": 8, "n1-standard-v100-4": 8})


@pytest.fixture(scope="module")
def env(job, topology):
    return build_environment(job, topology)


@pytest.fixture(scope="module")
def plan(job):
    return ParallelizationPlan.homogeneous(job, "a2-highgpu-4g",
                                           pipeline_parallel=4, data_parallel=4,
                                           tensor_parallel=2, microbatch_size=2)


def test_bench_profile_one_gpu_type(benchmark, job):
    """Simulated single-node profiling of one GPU type (section 4.1)."""
    profiler = ComputeProfiler()
    gpu = get_gpu("A100-40")
    profile = benchmark(lambda: profiler.profile(job, gpu,
                                                 microbatch_sizes=[1, 2, 4, 8],
                                                 tensor_parallel_degrees=[1, 2, 4]))
    assert profile.layer_times


def test_bench_environment_build(benchmark, job, topology):
    """Full profiling pass: every GPU type + every network pair."""
    env = benchmark(lambda: build_environment(job, topology))
    assert env.profiles.gpu_types()


def test_bench_simulator_evaluate(benchmark, env, plan):
    """One plan evaluation (memory + timing + cost) -- the planner inner loop.

    Measures the production path: the vectorized kernels plus the
    per-plan-signature evaluation cache (repeat evaluations are hits).
    """
    simulator = SailorSimulator(env)
    evaluation = benchmark(lambda: simulator.evaluate(plan))
    assert evaluation.is_valid


def test_bench_simulator_evaluate_uncached(benchmark, env, plan):
    """The cold fused pass: one evaluation on a fresh simulator per round.

    The simulator is built in ``setup``, outside the timed body, so only
    ``evaluate`` is measured, with every per-plan and per-class cache cold.
    """
    def fresh_simulator():
        return (SailorSimulator(env),), {}

    evaluation = benchmark.pedantic(
        lambda simulator: simulator.evaluate(plan), setup=fresh_simulator,
        rounds=500, iterations=1)
    assert evaluation.is_valid


def test_bench_memory_estimator(benchmark, env, plan):
    """Per-worker peak-memory estimation for a 32-GPU plan."""
    estimator = MemoryEstimator(env)
    peaks = benchmark(lambda: estimator.stage_peaks(plan))
    assert len(peaks) == plan.pipeline_parallel


def test_bench_reference_simulator(benchmark, env, plan):
    """Event-driven 1F1B reference simulation of one iteration."""
    reference = ReferenceSimulator(env)
    measured = benchmark(lambda: reference.measure(plan))
    assert measured.iteration_time_s > 0


def test_bench_comm_group_construction(benchmark, plan):
    """Building the heterogeneous rank topology of a 32-GPU plan."""
    groups = benchmark(lambda: build_rank_topology(plan))
    assert groups.world_size == plan.total_gpus


def test_bench_planner_homogeneous_32_a100(benchmark, job):
    """Sailor planner end-to-end on 32 homogeneous A100s (Table 1 row).

    This point is only ~30ms, so a cold round and scheduler noise swamp a
    3-round mean; ten rounds after one warmup keep the 20% regression gate
    meaningful.
    """
    topology = ClusterTopology.homogeneous("a2-highgpu-4g", 8)
    env = build_environment(job, topology)
    planner = SailorPlanner(env)
    result = benchmark.pedantic(
        lambda: planner.plan(job, topology, Objective.max_throughput()),
        rounds=10, iterations=1, warmup_rounds=1)
    assert result.found


def test_bench_planner_heterogeneous_64_gpus(benchmark, job, topology, env):
    """Sailor planner end-to-end on 32 A100 + 32 V100 (Figure 8 small point).

    Three rounds (first one cold) so the recorded mean is stable enough for
    the 20% regression gate on noisy machines.
    """
    planner = SailorPlanner(env)
    result = benchmark.pedantic(
        lambda: planner.plan(job, topology, Objective.max_throughput()),
        rounds=3, iterations=1)
    assert result.found
    assert result.search_stats.nodes_explored > 0


def test_bench_planner_heterogeneous_128_gpus(benchmark, job):
    """Sailor planner on 64 A100 + 64 V100 (Figure 8 mid point, 128 GPUs).

    Three rounds (like every sub-1024 scale point): single-round
    recordings of these seconds-long calls swing 10-25% run to run on
    this box, and the compare gate reads the median-of-rounds.
    """
    topology = ClusterTopology.single_zone("us-central1-a", {
        "a2-highgpu-4g": 16, "n1-standard-v100-4": 16})
    env = build_environment(job, topology)
    planner = SailorPlanner(env)
    result = benchmark.pedantic(
        lambda: planner.plan(job, topology, Objective.max_throughput()),
        rounds=3, iterations=1)
    assert result.found


def test_bench_planner_heterogeneous_256_gpus(benchmark, job):
    """Sailor planner on 128 A100 + 128 V100 (Figure 8 scale-out, 256 GPUs).

    Three rounds for a stable median (see the 128-GPU point).
    """
    topology = ClusterTopology.single_zone("us-central1-a", {
        "a2-highgpu-4g": 32, "n1-standard-v100-4": 32})
    env = build_environment(job, topology)
    planner = SailorPlanner(env)
    result = benchmark.pedantic(
        lambda: planner.plan(job, topology, Objective.max_throughput()),
        rounds=3, iterations=1)
    assert result.found
    # `make ci` acceptance bar: cost-bound-driven candidate scheduling must
    # actually kill unexplored tails at this scale -- a disarmed ordering
    # path (bounds silently inf, toggle wired wrong) fails here rather
    # than showing up only as a latency drift.
    assert result.search_stats.candidates_killed_unevaluated > 0


def test_bench_planner_heterogeneous_256_gpus_min_cost(benchmark, job):
    """Min-cost search on the 256-GPU mixed pool.

    The cost objective is where the dominated-family skip bites: family
    cost floors (D x rate x time) discriminate much harder than time
    floors, so whole (P, mbs) families are skipped before any forward
    build.  Three rounds for a stable median.
    """
    topology = ClusterTopology.single_zone("us-central1-a", {
        "a2-highgpu-4g": 32, "n1-standard-v100-4": 32})
    env = build_environment(job, topology)
    planner = SailorPlanner(env)
    result = benchmark.pedantic(
        lambda: planner.plan(job, topology, Objective.min_cost()),
        rounds=3, iterations=1)
    assert result.found
    # `make ci` acceptance bar (checked in the tier-1 phase, like the
    # 256-GPU tail-kill gate above): the dominated-family skip must
    # actually skip whole (P, mbs) families at this scale -- a
    # silently-disarmed family gate (floors zero or unarmed) fails here
    # rather than showing up only as a latency drift.
    assert result.search_stats.families_skipped > 0


def test_bench_planner_heterogeneous_512_gpus(benchmark, job):
    """Sailor planner on 256 A100 + 256 V100 (Figure 8 max point, 512 GPUs).

    The paper's largest scale: the DP node count grows with zones x node
    types x data-parallel degree, so this is the point the resource-state
    engine (array-encoded states + precomputed combo tables) targets.
    Three rounds for a stable median (see the 128-GPU point); only the
    1024-GPU point stays single-round for bench wall time.
    """
    topology = ClusterTopology.single_zone("us-central1-a", {
        "a2-highgpu-4g": 64, "n1-standard-v100-4": 64})
    env = build_environment(job, topology)
    planner = SailorPlanner(env)
    result = benchmark.pedantic(
        lambda: planner.plan(job, topology, Objective.max_throughput()),
        rounds=3, iterations=1)
    assert result.found


@pytest.mark.skipif(os.environ.get("BENCH_SCALE", "smoke") != "full",
                    reason="1024-GPU point runs only under BENCH_SCALE=full "
                           "(make bench sets it; make ci's smoke subset "
                           "stays fast)")
def test_bench_planner_heterogeneous_1024_gpus(benchmark, job):
    """Sailor planner on 512 A100 + 512 V100 -- beyond the paper's Figure 8.

    This is the scale point the chunked, hash-deduped forward broadcasts
    target: state layers reach ~1.7e4 states, past np.unique-on-bytes
    comfort, and the (N x M x S) fit test would peak well over the chunked
    path's bound without the state-axis chunking.
    """
    topology = ClusterTopology.single_zone("us-central1-a", {
        "a2-highgpu-4g": 128, "n1-standard-v100-4": 128})
    env = build_environment(job, topology)
    planner = SailorPlanner(env)
    result = benchmark.pedantic(
        lambda: planner.plan(job, topology, Objective.max_throughput()),
        rounds=1, iterations=1)
    assert result.found


@pytest.mark.skipif(os.environ.get("BENCH_SCALE", "smoke") != "full",
                    reason="2048-GPU point runs only under BENCH_SCALE=full")
def test_bench_planner_heterogeneous_2048_gpus(benchmark, job):
    """Sailor planner on 1024 A100 + 1024 V100 -- 2x beyond the paper.

    First beyond-1024 scale point, enabled by the shared backward argmin
    skeletons (the per-candidate argmin reductions dominated the 1024-GPU
    profile) and the candidate-ordering tail kills.  The mixed-radix state
    packing stays exact well past this scale (~2^63 budget)."""
    topology = ClusterTopology.single_zone("us-central1-a", {
        "a2-highgpu-4g": 256, "n1-standard-v100-4": 256})
    env = build_environment(job, topology)
    planner = SailorPlanner(env)
    result = benchmark.pedantic(
        lambda: planner.plan(job, topology, Objective.max_throughput()),
        rounds=1, iterations=1)
    assert result.found
    assert result.search_stats.candidates_killed_unevaluated > 0


@pytest.mark.skipif(os.environ.get("BENCH_SCALE", "smoke") != "full",
                    reason="4096-GPU point runs only under BENCH_SCALE=full")
def test_bench_planner_heterogeneous_4096_gpus(benchmark, job):
    """Sailor planner on 2048 A100 + 2048 V100 -- 4x beyond the paper.

    The current ceiling of the recorded scaling trajectory; single round,
    like every full-scale-only point."""
    topology = ClusterTopology.single_zone("us-central1-a", {
        "a2-highgpu-4g": 512, "n1-standard-v100-4": 512})
    env = build_environment(job, topology)
    planner = SailorPlanner(env)
    result = benchmark.pedantic(
        lambda: planner.plan(job, topology, Objective.max_throughput()),
        rounds=1, iterations=1)
    assert result.found
    assert result.search_stats.candidates_killed_unevaluated > 0


@pytest.mark.skipif(os.environ.get("BENCH_SCALE", "smoke") != "full",
                    reason="8192-GPU point runs only under BENCH_SCALE=full")
def test_bench_planner_heterogeneous_8192_gpus(benchmark, job):
    """Sailor planner on 4096 A100 + 4096 V100 -- 8x beyond the paper.

    The first point past the enumeration wall: it is reachable because
    the fused combine kernel takes the inner elementwise pass off the
    backward profile and the candidate tail kills run on
    availability-aware floors.  Single round, like every full-scale-only
    point."""
    topology = ClusterTopology.single_zone("us-central1-a", {
        "a2-highgpu-4g": 1024, "n1-standard-v100-4": 1024})
    env = build_environment(job, topology)
    planner = SailorPlanner(env)
    result = benchmark.pedantic(
        lambda: planner.plan(job, topology, Objective.max_throughput()),
        rounds=1, iterations=1)
    assert result.found
    assert result.search_stats.candidates_killed_unevaluated > 0


def test_bench_planner_budget_constrained_64_gpus(benchmark, job, topology, env):
    """Budget-constrained search on the mixed cluster (Table 3's slow case).

    The budget is ~70% of the unconstrained optimum's cost, so it binds and
    exercises the straggler-approximation loop of section 4.2.3.  Three
    rounds: single-round recordings of the budget benches swing by whole
    seconds on this box, and the compare gate reads the median-of-rounds.
    """
    planner = SailorPlanner(env)
    objective = Objective.max_throughput(max_cost_per_iteration_usd=0.031)
    result = benchmark.pedantic(
        lambda: planner.plan(job, topology, objective),
        rounds=3, iterations=1)
    assert result.found
    assert result.evaluation.cost_per_iteration_usd <= 0.031
    # `make ci` acceptance bar (this point is in the smoke subset): the
    # straggler convergence certificates must actually fire on a binding
    # budget.  Every budgeted solve runs on the engine path (see the
    # dp_solver dispatch table), so this pool's budget nodes use the
    # engine's batched scan and certificates.
    assert result.search_stats.suffix_certified > 0
    assert result.search_stats.suffix_iterations > 0


def test_bench_planner_budget_constrained_128_gpus(benchmark, job):
    """Budget-constrained search at engine scale (128 GPUs, ~70% budget).

    The scenario the engine's cost-bound certificates target: at this
    scale the batched budget scan engages, and the certificates prove most
    suffix budgets infeasible in-layer instead of one solve at a time (one
    call makes about 148K straggler-loop iterations and 187K
    certifications).  Three rounds; the gate reads the median.
    """
    topology = ClusterTopology.single_zone("us-central1-a", {
        "a2-highgpu-4g": 16, "n1-standard-v100-4": 16})
    env = build_environment(job, topology)
    planner = SailorPlanner(env)
    objective = Objective.max_throughput(max_cost_per_iteration_usd=0.0364)
    result = benchmark.pedantic(
        lambda: planner.plan(job, topology, objective),
        rounds=3, iterations=1)
    assert result.found
    assert result.evaluation.cost_per_iteration_usd <= 0.0364
    # Engine-scale certificates: resolved in-layer, not via scalar fallback.
    assert result.search_stats.suffix_certified > 0
    # `make ci` acceptance bar: the ordering tail kill must arm on the
    # binding-budget search too (the kill compares iteration-time floors
    # against the budget incumbent's iteration time).
    assert result.search_stats.candidates_killed_unevaluated > 0


def test_bench_planner_budget_constrained_geo_64_gpus(benchmark, job):
    """Budget-constrained search over two zones (Table 3, geo flavour).

    The budget (~70% of the unconstrained optimum) binds, and cross-zone
    plans carry egress the DP's compute-only cost model cannot see, so
    most candidates the DP emits are evaluated and then rejected over
    budget.  Three rounds for a stable median (see the single-zone bench).
    """
    topology = ClusterTopology(nodes={
        "us-central1-a": {"a2-highgpu-4g": 4, "n1-standard-v100-4": 4},
        "us-central1-b": {"a2-highgpu-4g": 4, "n1-standard-v100-4": 4},
    })
    env = build_environment(job, topology)
    planner = SailorPlanner(env)
    objective = Objective.max_throughput(max_cost_per_iteration_usd=0.0614)
    result = benchmark.pedantic(
        lambda: planner.plan(job, topology, objective),
        rounds=3, iterations=1)
    assert result.found
    assert result.evaluation.cost_per_iteration_usd <= 0.0614
