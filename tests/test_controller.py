"""Integration tests for the training controller."""

import pytest

from repro.core.objectives import Objective
from repro.core.planner import PlannerConfig, SailorPlanner
from repro.hardware.topology import ClusterTopology
from repro.runtime.controller import (
    MAX_RETRY_BACKOFF_S,
    RETRY_BACKOFF_S,
    DegradationTier,
    ReplanPolicy,
    TrainingController,
)
from repro.runtime.reconfiguration import ReconfigurationModel


@pytest.fixture()
def controller(opt_env, opt_job):
    return TrainingController(env=opt_env, job=opt_job,
                              objective=Objective.max_throughput())


def make_controller(opt_env, opt_job, policy, **kwargs):
    return TrainingController(env=opt_env, job=opt_job,
                              objective=Objective.max_throughput(),
                              policy=policy, **kwargs)


def small_topology(nodes=2):
    return ClusterTopology.homogeneous("a2-highgpu-4g", nodes)


@pytest.mark.parametrize("field,value", [
    ("debounce_s", float("nan")),
    ("debounce_s", -5.0),
    ("debounce_s", float("inf")),
])
def test_replan_policy_rejects_bad_values(field, value):
    """A NaN, negative or infinite debounce raises instead of silently
    acting as "off"."""
    with pytest.raises(ValueError, match=field):
        ReplanPolicy(**{field: value})


def test_replan_policy_accepts_boundary_values():
    ReplanPolicy(debounce_s=0.0)


def test_start_deploys_plan_and_workers(controller):
    event = controller.start(small_topology(4), time_s=0.0)
    assert event is not None
    assert event.reason == "initial deployment"
    assert controller.current_plan is not None
    assert event.breakdown.planning_s == ReconfigurationModel().planning_s


def test_start_with_empty_topology_keeps_job_idle(controller):
    event = controller.start(ClusterTopology(), time_s=0.0)
    assert event is None
    assert controller.current_plan is None


def test_scale_up_triggers_reconfiguration(controller):
    controller.start(small_topology(2), time_s=0.0)
    before_gpus = controller.current_plan.total_gpus
    event = controller.handle_availability_change(small_topology(6), time_s=60.0)
    assert event is not None
    assert event.old_gpus == before_gpus
    assert event.new_gpus >= before_gpus
    assert controller.current_plan.total_gpus == event.new_gpus
    assert len(controller.events) == 2


def test_scale_down_replans_to_fit(controller):
    controller.start(small_topology(6), time_s=0.0)
    event = controller.handle_availability_change(small_topology(1), time_s=60.0)
    assert event is not None
    assert controller.current_plan.total_gpus <= 4
    assert controller.current_plan.resource_allocation().fits_within(
        small_topology(1))


def test_losing_all_resources_stops_workers(controller):
    controller.start(small_topology(2), time_s=0.0)
    event = controller.handle_availability_change(ClusterTopology(), time_s=30.0)
    assert event is None
    assert controller.current_plan is None


def test_no_action_when_change_does_not_matter(controller):
    controller.start(small_topology(4), time_s=0.0)
    plan_before = controller.current_plan
    # Same topology again: the current plan still fits and no better plan
    # exists, so nothing should change.
    event = controller.handle_availability_change(small_topology(4), time_s=30.0)
    assert event is None
    assert controller.current_plan is plan_before
    assert controller.decisions[-1].action == "kept"
    assert controller.decisions[-1].tier is DegradationTier.CONTINUE


# -- observability: trigger causes -------------------------------------------


def test_events_carry_trigger_cause(controller):
    start_event = controller.start(small_topology(2), time_s=0.0)
    assert start_event.trigger == "initial deployment"
    event = controller.handle_availability_change(
        small_topology(6), time_s=60.0, cause="quota_cut")
    assert event is not None
    assert event.trigger == "quota_cut"
    assert controller.decisions[-1].trigger == "quota_cut"


# -- edge cases surfaced by fault injection ----------------------------------


def test_simultaneous_multi_pool_swap_with_equal_totals(opt_env, opt_job):
    """Zone pool A loses what pool B gains: the GPU total is unchanged but
    the incumbent plan no longer fits and the controller must react."""
    controller = TrainingController(env=opt_env, job=opt_job,
                                    objective=Objective.max_throughput())
    before = ClusterTopology.single_zone("us-central1-a",
                                         {"a2-highgpu-4g": 4})
    after = ClusterTopology.single_zone(
        "us-central1-a", {"a2-highgpu-4g": 2, "n1-standard-v100-4": 2})
    controller.start(before, time_s=0.0)
    assert before.total_gpus() == after.total_gpus()
    assert not controller._plan_still_fits(after)
    event = controller.handle_availability_change(after, time_s=60.0,
                                                  cause="preemption_burst")
    assert controller.current_plan is not None
    assert controller.current_plan.resource_allocation().fits_within(after)
    if event is not None:
        assert event.tier in (DegradationTier.SHRINK_DP,
                              DegradationTier.FULL_REPLAN)


def test_availability_zero_in_plans_only_zone_replans_elsewhere(opt_env,
                                                                opt_job):
    """The plan's only pool drops to zero but another pool has capacity."""
    controller = TrainingController(env=opt_env, job=opt_job,
                                    objective=Objective.max_throughput())
    controller.start(small_topology(4), time_s=0.0)
    assert controller.current_plan.gpus_by_type() == {"A100-40": 16}
    survivor = ClusterTopology.single_zone("us-central1-a",
                                           {"n1-standard-v100-4": 4})
    event = controller.handle_availability_change(survivor, time_s=60.0,
                                                  cause="zone_outage")
    assert event is not None
    assert event.tier is DegradationTier.FULL_REPLAN
    assert controller.current_plan.gpus_by_type() == {"V100-16": 16}


# -- degradation tiers --------------------------------------------------------


def test_shrink_in_place_drops_data_parallel_columns(opt_env, opt_job):
    controller = make_controller(opt_env, opt_job, ReplanPolicy())
    controller.start(small_topology(4), time_s=0.0)
    incumbent = controller.current_plan
    event = controller.handle_availability_change(
        small_topology(2), time_s=60.0, cause="preemption_burst")
    assert event is not None
    assert event.tier is DegradationTier.SHRINK_DP
    assert event.planner_result.planner_name == "shrink-in-place"
    shrunk = controller.current_plan
    assert shrunk.pipeline_parallel == incumbent.pipeline_parallel
    assert shrunk.microbatch_size == incumbent.microbatch_size
    assert shrunk.data_parallel < incumbent.data_parallel
    assert shrunk.resource_allocation().fits_within(small_topology(2))


def test_unshrinkable_plan_falls_through_to_full_replan(controller):
    """When no data-parallel prefix of the incumbent fits the new pool
    (its node type is gone), the broken plan takes a full replan."""
    controller.start(small_topology(4), time_s=0.0)
    event = controller.handle_availability_change(
        ClusterTopology.homogeneous("n1-standard-v100-4", 4), time_s=60.0,
        cause="preemption_burst")
    assert event is not None
    assert event.tier is DegradationTier.FULL_REPLAN
    assert event.planner_result.planner_name == "sailor"


def test_park_then_resume_on_capacity(controller):
    controller.start(small_topology(2), time_s=0.0)
    assert controller.handle_availability_change(
        ClusterTopology(), time_s=30.0, cause="zone_outage") is None
    assert controller.parked
    assert controller.decisions[-1].tier is DegradationTier.PARK
    event = controller.handle_availability_change(
        small_topology(2), time_s=900.0, cause="capacity restored")
    assert event is not None
    assert not controller.parked
    assert controller.current_plan is not None


# -- replan policy: debounce, tick-bounded replans, retry ---------------------


def test_debounce_suppresses_rapid_voluntary_replans(opt_env, opt_job):
    controller = make_controller(opt_env, opt_job,
                                 ReplanPolicy(debounce_s=300.0))
    controller.start(small_topology(2), time_s=0.0)
    plan_before = controller.current_plan
    # A flap 10 s later: the incumbent still fits, so the replan is debounced.
    event = controller.handle_availability_change(
        small_topology(6), time_s=10.0, cause="node_flap")
    assert event is None
    assert controller.current_plan is plan_before
    assert controller.decisions[-1].action == "debounced"
    # Once the debounce window passes, the controller replans and upgrades.
    event = controller.handle_availability_change(
        small_topology(6), time_s=400.0, cause="node_flap")
    assert event is not None


def test_deadline_miss_keeps_incumbent(opt_env, opt_job):
    """A replan cut by its tick budget is degraded on every path: the
    deploy and broken-plan paths apply the anytime answer, the voluntary
    path keeps the incumbent, and each decision says ``complete=False``."""
    controller = make_controller(
        opt_env, opt_job, ReplanPolicy(),
        planner=SailorPlanner(opt_env, PlannerConfig(max_search_nodes=2)))
    start_event = controller.start(small_topology(2), time_s=0.0)
    assert start_event is not None            # deploy the anytime answer
    assert not start_event.planner_result.complete
    assert controller.decisions[-1].action == "deployed"
    assert controller.decisions[-1].complete is False
    plan_before = controller.current_plan
    event = controller.handle_availability_change(
        small_topology(6), time_s=60.0, cause="quota restored")
    assert event is None
    assert controller.current_plan is plan_before
    assert controller.decisions[-1].action == "deadline_fallback"
    assert controller.decisions[-1].complete is False
    assert controller.decisions[-1].optimality_gap_bound > 0.0
    # The incumbent's node type is gone and nothing shrinks onto V100s.
    event = controller.handle_availability_change(
        ClusterTopology.homogeneous("n1-standard-v100-4", 2), time_s=120.0,
        cause="zone_outage")
    assert event is not None and event.tier is DegradationTier.FULL_REPLAN
    assert controller.decisions[-1].action == "replanned"
    assert controller.decisions[-1].complete is False


def test_infeasible_pool_parks_with_backoff_and_retries(opt_env, opt_job):
    objective = Objective.max_throughput(max_cost_per_iteration_usd=1e-9)
    controller = TrainingController(env=opt_env, job=opt_job,
                                    objective=objective)
    assert RETRY_BACKOFF_S == 60.0 and MAX_RETRY_BACKOFF_S == 900.0
    assert controller.start(small_topology(2), time_s=0.0) is None
    assert controller.parked
    assert controller.next_retry_at_s == pytest.approx(60.0)
    # Not due yet: nothing happens.
    assert controller.maybe_retry(small_topology(2), time_s=30.0) is None
    # Due: retries, fails again, backoff doubles (60 -> 120 s) ...
    assert controller.maybe_retry(small_topology(2), time_s=60.0) is None
    assert controller.next_retry_at_s == pytest.approx(60.0 + 120.0)
    # ... and keeps doubling (240, 480 s) until the 900 s cap.
    now = 180.0
    for backoff in (240.0, 480.0, 900.0, 900.0):
        assert controller.maybe_retry(small_topology(2), time_s=now) is None
        assert controller.next_retry_at_s == pytest.approx(now + backoff)
        now += backoff


def test_incremental_context_reused_across_replans(controller):
    controller.start(small_topology(2), time_s=0.0)
    context_after_start = controller._search_context
    assert context_after_start is not None
    controller.handle_availability_change(small_topology(6), time_s=60.0)
    assert controller._search_context is context_after_start
    assert controller.search_stats.cache_hits > 0


# -- anytime results & price moves --------------------------------------------


def test_incomplete_result_is_degraded_even_without_deadline_miss(
        opt_env, opt_job):
    """A voluntary replan whose search is truncated (complete=False)
    keeps the incumbent, even when the deploy before it completed."""
    truncated_planner = SailorPlanner(opt_env, config=PlannerConfig(
        max_search_nodes=5))
    controller = make_controller(opt_env, opt_job, ReplanPolicy(),
                                 planner=truncated_planner)
    controller.start(small_topology(2), time_s=0.0)
    assert controller.decisions[-1].complete
    plan_before = controller.current_plan
    event = controller.handle_availability_change(
        small_topology(6), time_s=60.0, cause="quota restored")
    assert event is None
    assert controller.current_plan is plan_before
    assert controller.decisions[-1].action == "deadline_fallback"
    # The node budget really truncated the replan, and the decision says so.
    assert controller.decisions[-1].complete is False


def test_handle_price_change_rebuilds_caches_and_replans(opt_env, opt_job):
    """A price move invalidates the cost basis: the long-lived search
    context, the simulator and the planner are rebuilt, debounce is
    bypassed, and a decision is recorded under the price cause."""
    policy = ReplanPolicy(debounce_s=3600.0)  # would swallow a replan
    controller = make_controller(opt_env, opt_job, policy)
    controller.start(small_topology(4), time_s=0.0)
    context_before = controller._search_context
    simulator_before = controller.planner.simulator
    decisions_before = len(controller.decisions)
    controller.handle_price_change(small_topology(4), time_s=1.0)
    assert controller._search_context is not context_before
    assert controller.planner.simulator is not simulator_before
    assert len(controller.decisions) > decisions_before
    assert controller.decisions[-1].trigger == "price_move"
