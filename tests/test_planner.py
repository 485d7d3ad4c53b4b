"""Integration tests for the Sailor planner."""

import pytest

from repro.core.heuristics import HeuristicConfig
from repro.core.objectives import Objective
from repro.core.planner import ParallelPlanner, PlannerConfig, SailorPlanner
from repro.core.serialization import plan_to_json
from repro.core.simulator import MemoryEstimator, SailorSimulator
from repro.hardware.topology import ClusterTopology


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
    """Binding budgets run the straggler-approximation recursion, which is
    where branch-and-bound still operates (unconstrained solves are answered
    by the layered resource-state engine, which has nothing to prune)."""
    unconstrained = planner.plan(opt_job, mixed_topology,
                                 Objective.max_throughput())
    budget = unconstrained.evaluation.cost_per_iteration_usd * 0.6
    result = planner.plan(
        opt_job, mixed_topology,
        Objective.max_throughput(max_cost_per_iteration_usd=budget))
    stats = result.search_stats
    assert stats.nodes_explored > 0
    assert stats.memo_hits > 0
    assert stats.pruned_branches > 0  # B&B must actually cut budget branches


def test_budget_search_stats_report_suffix_certificates(planner, opt_job,
                                                        mixed_topology):
    """The straggler-certificate win must be observable, not inferred from
    wall time: a binding budget search reports both the suffix resolutions
    it performed and the ones its certificates avoided, and the counters
    survive the stats round trip (parallel-driver merge path)."""
    from repro.core.plan import SearchStats

    unconstrained = planner.plan(opt_job, mixed_topology,
                                 Objective.max_throughput())
    budget = unconstrained.evaluation.cost_per_iteration_usd * 0.6
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


def test_parallel_planner_matches_serial(opt_env, opt_job, mixed_topology):
    objective = Objective.max_throughput()
    serial = SailorPlanner(opt_env).plan(opt_job, mixed_topology, objective)
    parallel = ParallelPlanner(opt_env, max_workers=2).plan(
        opt_job, mixed_topology, objective)
    assert parallel.found
    assert plan_to_json(parallel.plan) == plan_to_json(serial.plan)
    assert parallel.candidates_evaluated == serial.candidates_evaluated
    assert parallel.search_stats.nodes_explored == \
        serial.search_stats.nodes_explored
    assert "parallel" in parallel.notes


def test_parallel_workers_config_delegates(opt_env, opt_job, mixed_topology):
    objective = Objective.max_throughput()
    serial = SailorPlanner(opt_env).plan(opt_job, mixed_topology, objective)
    via_config = SailorPlanner(opt_env, config=PlannerConfig(
        parallel_workers=2)).plan(opt_job, mixed_topology, objective)
    assert via_config.found
    assert plan_to_json(via_config.plan) == plan_to_json(serial.plan)


def test_shared_memory_worker_init_roundtrip(opt_env, opt_job, mixed_topology):
    """_init_worker_shm must rebuild the exact worker state _init_worker
    builds from the same blob (the driver's shared-memory fast path)."""
    import pickle
    from multiprocessing import shared_memory

    from repro.core.heuristics import consolidate_zones
    from repro.core.planner import _WORKER_STATE, _init_worker_shm

    config = PlannerConfig()
    consolidated = consolidate_zones(mixed_topology, config.heuristics)
    resources = SailorPlanner._resource_map(consolidated.topology)
    blob = pickle.dumps((opt_env, opt_job, Objective.max_throughput(), config,
                         consolidated, resources),
                        protocol=pickle.HIGHEST_PROTOCOL)
    segment = shared_memory.SharedMemory(create=True, size=len(blob))
    try:
        segment.buf[:len(blob)] = blob
        _init_worker_shm(segment.name, len(blob))
        assert set(_WORKER_STATE) == {"planner", "job", "objective",
                                      "consolidated", "resources", "context"}
        assert _WORKER_STATE["resources"] == resources
        _WORKER_STATE.clear()
    finally:
        segment.close()
        segment.unlink()


class _RecordingSharedMemory:
    """Wraps SharedMemory construction to record create-path segments."""

    def __init__(self, real_cls, created: list):
        self._real_cls = real_cls
        self._created = created

    def __call__(self, *args, **kwargs):
        segment = self._real_cls(*args, **kwargs)
        if kwargs.get("create"):
            self._created.append(segment)
            segment.test_unlinked = False
            real_unlink = segment.unlink

            def unlink():
                segment.test_unlinked = True
                real_unlink()

            segment.unlink = unlink
        return segment


@pytest.mark.parametrize("failure", [RuntimeError, KeyboardInterrupt])
def test_failing_branch_does_not_leak_shm_segment(opt_env, opt_job,
                                                  mixed_topology, monkeypatch,
                                                  failure):
    """Regression (lifecycle audit): a worker raising mid-branch -- or the
    pool dying on KeyboardInterrupt -- must still close+unlink the driver's
    shared-memory segment.  The pool is replaced by a stub whose futures
    raise, standing in for the re-raised worker exception.  Genuine worker
    exceptions are exactly the failures the fault-tolerant gather must NOT
    absorb: they propagate, unlike a crashed or wedged worker."""
    import repro.core.planner as planner_mod

    created: list = []
    monkeypatch.setattr(
        planner_mod.shared_memory, "SharedMemory",
        _RecordingSharedMemory(planner_mod.shared_memory.SharedMemory,
                               created))

    class ExplodingFuture:
        def result(self, timeout=None):
            raise failure("branch failed")

    class ExplodingPool:
        def __init__(self, *args, **kwargs):
            pass

        def submit(self, *args, **kwargs):
            return ExplodingFuture()

        def shutdown(self, *args, **kwargs):
            pass

    monkeypatch.setattr(planner_mod, "ProcessPoolExecutor", ExplodingPool)
    planner = ParallelPlanner(opt_env, max_workers=2)
    with pytest.raises(failure):
        planner.plan(opt_job, mixed_topology, Objective.max_throughput())
    assert created, "the shm fast path was not exercised"
    for segment in created:
        assert segment.test_unlinked  # closed *and* unlinked on the way out
    # The segment is really gone from /dev/shm: re-attach must fail.
    from multiprocessing import shared_memory as real_shared_memory
    for segment in created:
        with pytest.raises(FileNotFoundError):
            real_shared_memory.SharedMemory(name=segment.name)


def test_initargs_fallback_matches_shm_path(opt_env, opt_job, mixed_topology,
                                            monkeypatch):
    """The initargs-bytes fallback (no shared memory available) must produce
    byte-identical plans and identical search work to the shm fast path."""
    import repro.core.planner as planner_mod

    objective = Objective.max_throughput()
    via_shm = ParallelPlanner(opt_env, max_workers=2).plan(
        opt_job, mixed_topology, objective)

    def no_shm(*args, **kwargs):
        raise OSError("shared memory unavailable")

    monkeypatch.setattr(planner_mod.shared_memory, "SharedMemory", no_shm)
    via_initargs = ParallelPlanner(opt_env, max_workers=2).plan(
        opt_job, mixed_topology, objective)
    assert via_initargs.found
    assert plan_to_json(via_initargs.plan) == plan_to_json(via_shm.plan)
    assert via_initargs.candidates_evaluated == via_shm.candidates_evaluated
    assert via_initargs.search_stats.nodes_explored == \
        via_shm.search_stats.nodes_explored


def test_layer_cache_and_batched_threading_do_not_change_the_chosen_plan(
        opt_env, opt_job, mixed_topology):
    """End-to-end guarantee behind the engine's speedups: the layered
    engine and the batched budget threading return byte-identical plans
    to the exhaustive recursion (engine forced on so both paths actually
    run)."""
    from repro.core.dp_solver import DPSolverConfig

    unconstrained = SailorPlanner(opt_env).plan(opt_job, mixed_topology,
                                                Objective.max_throughput())
    budget = unconstrained.evaluation.cost_per_iteration_usd * 0.6
    for objective in (Objective.max_throughput(),
                      Objective.max_throughput(
                          max_cost_per_iteration_usd=budget),
                      Objective.min_cost()):
        reference = None
        for dp_config in (
                DPSolverConfig(engine_min_states=0),
                DPSolverConfig(engine_min_states_budget=0),  # budget -> engine
                DPSolverConfig(),  # adaptive dispatch (scalar certificates)
                DPSolverConfig(enable_pruning=False),
        ):
            result = SailorPlanner(opt_env, config=PlannerConfig(
                dp_config=dp_config)).plan(opt_job, mixed_topology, objective)
            assert result.found
            encoded = plan_to_json(result.plan)
            if reference is None:
                reference = encoded
            else:
                assert encoded == reference


def test_parallel_time_limit_is_global(opt_env, opt_job, mixed_topology):
    """time_limit_s bounds the whole parallel call, not each branch."""
    config = PlannerConfig(time_limit_s=0.05, parallel_workers=2)
    result = SailorPlanner(opt_env, config=config).plan(
        opt_job, mixed_topology, Objective.max_throughput())
    # Generous ceiling: far below branches x limit, which a per-branch
    # deadline reset would allow.
    assert result.search_time_s < 5.0


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
    from repro.core.dp_solver import DPSolverConfig

    objective = Objective.max_throughput()
    pruned = SailorPlanner(opt_env).plan(opt_job, mixed_topology, objective)
    exhaustive = SailorPlanner(opt_env, config=PlannerConfig(
        dp_config=DPSolverConfig(enable_pruning=False)),
    ).plan(opt_job, mixed_topology, objective)
    assert pruned.found and exhaustive.found
    assert plan_to_json(pruned.plan) == plan_to_json(exhaustive.plan)
    assert exhaustive.search_stats.pruned_branches == 0
    assert pruned.search_stats.nodes_explored <= \
        exhaustive.search_stats.nodes_explored


def test_candidate_ordering_preserves_plans_and_bookkeeping(opt_env, opt_job,
                                                            mixed_topology):
    """Cost-bound-driven candidate scheduling must be observability-only:
    the chosen plan *and* its evaluation are byte-identical with
    ``candidate_ordering`` on/off, composed with the incumbent gate on/off,
    across objectives; the kill decision is gate-independent (surviving
    candidates' bookkeeping replays exactly), kills actually fire when
    armed, and the toggle disarms under ``enable_pruning=False``."""
    from repro.core.dp_solver import DPSolverConfig

    unconstrained = SailorPlanner(opt_env).plan(opt_job, mixed_topology,
                                                Objective.max_throughput())
    budget = unconstrained.evaluation.cost_per_iteration_usd * 0.6
    killed_total = 0
    for objective in (Objective.max_throughput(),
                      Objective.min_cost(),
                      Objective.max_throughput(
                          max_cost_per_iteration_usd=budget)):
        reference = None
        evaluated = {}
        for ordering in (True, False):
            for gate in (True, False):
                result = SailorPlanner(opt_env, config=PlannerConfig(
                    candidate_ordering=ordering,
                    enable_candidate_gate=gate)).plan(
                    opt_job, mixed_topology, objective)
                assert result.found
                snapshot = (plan_to_json(result.plan),
                            result.evaluation.iteration_time_s,
                            result.evaluation.cost_per_iteration_usd)
                if reference is None:
                    reference = snapshot
                else:
                    assert snapshot == reference
                evaluated[(ordering, gate)] = result.candidates_evaluated
                killed = result.search_stats.candidates_killed_unevaluated
                if ordering:
                    killed_total += killed
                else:
                    assert killed == 0
        # Tail kills depend only on the branch incumbent's evolution, which
        # the gate never perturbs -- so the surviving candidate count is
        # identical gate on/off (within one ordering setting).
        assert evaluated[(True, True)] == evaluated[(True, False)]
        assert evaluated[(False, True)] == evaluated[(False, False)]
    assert killed_total > 0
    # Without the pruned DP there is no bound machinery to trust: the
    # exhaustive reference must stay exhaustive even with the toggle on.
    exhaustive = SailorPlanner(opt_env, config=PlannerConfig(
        candidate_ordering=True,
        dp_config=DPSolverConfig(enable_pruning=False))).plan(
        opt_job, mixed_topology, Objective.max_throughput())
    assert exhaustive.search_stats.candidates_killed_unevaluated == 0
    assert plan_to_json(exhaustive.plan) == plan_to_json(unconstrained.plan)


def test_family_memo_and_availability_floors_preserve_plans(opt_env, opt_job,
                                                            mixed_topology):
    """The dominated-family interval memo and the availability-aware tail
    floors must be latency-only: the chosen plan *and* its evaluation are
    byte-identical with each toggle on/off (composed with each other),
    across objectives; family skips actually fire when armed, the gate
    disarms under ``enable_pruning=False``, and the parallel driver's
    replay takes the exact skip decisions the serial loop takes."""
    from repro.core.dp_solver import DPSolverConfig

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
            for avail in (True, False):
                result = SailorPlanner(opt_env, config=PlannerConfig(
                    family_interval_memo=family,
                    availability_aware_floors=avail)).plan(
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
    # Without the pruned DP there is no bound machinery to trust: the
    # family gate must stay disarmed even with the toggle on.
    exhaustive = SailorPlanner(opt_env, config=PlannerConfig(
        family_interval_memo=True,
        dp_config=DPSolverConfig(enable_pruning=False))).plan(
        opt_job, mixed_topology, Objective.max_throughput())
    assert exhaustive.search_stats.families_skipped == 0
    assert plan_to_json(exhaustive.plan) == plan_to_json(unconstrained.plan)
    # The parallel driver replays the serial skip decisions from worker
    # outcomes (workers price families but never skip): same plan, same
    # skip count.
    serial = SailorPlanner(opt_env).plan(opt_job, mixed_topology,
                                         Objective.min_cost())
    parallel = ParallelPlanner(opt_env, max_workers=2).plan(
        opt_job, mixed_topology, Objective.min_cost())
    assert plan_to_json(parallel.plan) == plan_to_json(serial.plan)
    assert parallel.search_stats.families_skipped == \
        serial.search_stats.families_skipped


def test_fused_combine_preserves_plans_when_forced(opt_env, opt_job,
                                                   mixed_topology,
                                                   monkeypatch):
    """Force each combine route onto every layer by moving the dispatch
    band (engine always on): with ``FUSED_COMBINE_MIN_ELEMS = 1`` every
    non-last layer runs the fused kernel, with the minimum above the
    maximum none does.  Plans, evaluations, and node counts are
    bit-identical between the two, and the fused kernel demonstrably
    runs."""
    import repro.core.resource_state as rs
    from repro.core.dp_solver import DPSolverConfig

    dp_config = DPSolverConfig(engine_min_states=0)
    fused_hits = 0
    for objective in (Objective.max_throughput(), Objective.min_cost()):
        snapshots = []
        for fused in (False, True):
            monkeypatch.setattr(rs, "FUSED_COMBINE_MIN_ELEMS",
                                1 if fused else rs.FUSED_COMBINE_MAX_ELEMS + 1)
            result = SailorPlanner(opt_env, config=PlannerConfig(
                dp_config=dp_config)).plan(opt_job, mixed_topology, objective)
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
