"""End-to-end tests for churn replay: determinism, incremental reuse,
graceful degradation, and checkpoint rollback under churn."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.objectives import Objective
from repro.core.planner import PlannerConfig, SailorPlanner
from repro.core.serialization import plan_to_json
from repro.core.simulator import build_environment
from repro.hardware.nodes import get_node_type
from repro.hardware.topology import ClusterTopology
from repro.runtime.checkpoint import CheckpointConfig
from repro.runtime.controller import (
    MAX_RETRY_BACKOFF_S,
    DegradationTier,
    ReplanPolicy,
    TrainingController,
)
from repro.runtime.faults import FaultEvent, FaultScenarioGenerator, FaultTrace
from repro.runtime.replay import ChurnReplayer, ChurnReport

POOLS = {("us-central1-a", "a2-highgpu-4g"): 4,
         ("us-central1-a", "n1-standard-v100-4"): 4}


@pytest.fixture(scope="module")
def mixed_base():
    return ClusterTopology.single_zone(
        "us-central1-a", {"a2-highgpu-4g": 4, "n1-standard-v100-4": 4})


def make_replayer(env, job, **kwargs):
    kwargs.setdefault("checkpoint_config",
                      CheckpointConfig(interval_iterations=10))
    if "controller" not in kwargs:
        kwargs.setdefault("objective", Objective.max_throughput())
    return ChurnReplayer(env, job, **kwargs)


# -- zero-drop + determinism --------------------------------------------------

def test_churn_replay_applies_every_event(opt_env, opt_job, mixed_base):
    trace = FaultScenarioGenerator(seed=0).churn_trace(
        POOLS, duration_s=4 * 3600.0, num_events=150)
    report = make_replayer(opt_env, opt_job).run(trace,
                                                 base_topology=mixed_base)
    assert report.events_total == 150
    assert report.events_dropped == 0
    assert report.events_applied == 150
    assert report.iterations_completed > 0
    assert report.replans > 0
    # The whole session is accounted for: training + idle + reconfiguring.
    accounted = (report.training_time_s + report.idle_time_s
                 + report.reconfiguration_time_s)
    assert accounted == pytest.approx(report.duration_s, abs=1.0)


def test_churn_replay_is_deterministic(opt_env, opt_job, mixed_base):
    trace = FaultScenarioGenerator(seed=7).churn_trace(
        POOLS, duration_s=3 * 3600.0, num_events=120)

    def replay():
        report = make_replayer(opt_env, opt_job).run(
            trace, base_topology=mixed_base)
        return ([(r.time_s, r.trigger, r.tier, r.action, r.plan_gpus,
                  r.iterations_lost) for r in report.records],
                report.plan_history,
                report.iterations_completed,
                report.iterations_lost_to_rollback)

    first = replay()
    second = replay()
    assert first[0] == second[0]      # decision sequence
    assert first[1] == second[1]      # plan signatures, byte for byte
    assert first[2] == second[2]      # iteration accounting
    assert first[3] == second[3]


#: Replays one churn trace and one labelled availability trace under the
#: default policy, and the churn trace again under a 50-tick planner, and
#: prints each report as JSON, less the measured solve latencies.  Every
#: applied plan's rank topology is validated on the way.
_REPLAY_SCRIPT = """
import dataclasses, json
from repro.core.objectives import Objective
from repro.core.planner import PlannerConfig, SailorPlanner
from repro.core.simulator import build_environment
from repro.hardware.availability import (
    AvailabilityTrace, AvailabilityTraceGenerator)
from repro.hardware.topology import ClusterTopology
from repro.models.catalog import get_model
from repro.models.spec import TrainingJobSpec
from repro.runtime.comm_groups import build_rank_topology
from repro.runtime.controller import TrainingController
from repro.runtime.faults import FaultScenarioGenerator, FaultTrace
from repro.runtime.replay import ChurnReplayer

pools = {("us-central1-a", "a2-highgpu-4g"): 4,
         ("us-central1-a", "n1-standard-v100-4"): 4}
base = ClusterTopology.single_zone(
    "us-central1-a", {"a2-highgpu-4g": 4, "n1-standard-v100-4": 4})
job = TrainingJobSpec(model=get_model("OPT-350M"), global_batch_size=256,
                      sequence_length=2048)
env = build_environment(job, base, seed=7)
spot = AvailabilityTraceGenerator(seed=42).spot_preemptions(
    "us-central1-a", "n1-standard-v100-4", base_nodes=4,
    duration_s=2 * 3600.0, mean_time_between_events_s=600.0)
traces = {
    "churn": FaultScenarioGenerator(seed=0).churn_trace(
        pools, duration_s=2 * 3600.0, num_events=60),
    "availability": FaultTrace.from_availability(
        AvailabilityTrace(events=spot, duration_s=2 * 3600.0)),
}
runs = [(name, trace, None) for name, trace in traces.items()]
runs.append(("churn-bounded", traces["churn"], 50))
out = {}
for name, trace, ticks in runs:
    controller = TrainingController(
        env=env, job=job, objective=Objective.max_throughput(),
        planner=SailorPlanner(env, PlannerConfig(max_search_nodes=ticks)))
    replayer = ChurnReplayer(env, job, controller=controller)
    report = replayer.run(trace, base_topology=base)
    for event in controller.events:
        build_rank_topology(event.planner_result.plan).validate()
    fields = dataclasses.asdict(report)
    del fields["replan_latencies_s"]
    fields["rank_topologies_validated"] = len(controller.events)
    fields["incomplete_decisions"] = sum(
        not decision.complete for decision in controller.decisions)
    out[name] = fields
print(json.dumps(out, sort_keys=True, default=str))
"""


def test_replays_are_reproducible_across_processes():
    """A replay is a pure function of its trace: two fresh processes
    print byte-identical reports (the measured solve latencies aside), so
    no wall-clock time reaches the accounts -- also when a tick budget
    truncates some of the replans."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    outputs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-c", _REPLAY_SCRIPT], env=env,
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    reports = json.loads(outputs[0])
    for report in reports.values():
        assert report["events_applied"] == report["events_total"] > 0
        assert report["reconfiguration_time_s"] > 0
        assert (report["rank_topologies_validated"]
                == len(report["plan_history"]) > 0)
    assert reports["churn"]["replans"] > 0
    assert reports["churn"]["incomplete_decisions"] == 0
    bounded = reports["churn-bounded"]
    assert bounded["incomplete_decisions"] > 0
    assert bounded["deadline_fallbacks"] == bounded["incomplete_decisions"]


# -- incremental reuse --------------------------------------------------------

def test_incremental_replans_are_warm(opt_env, opt_job, mixed_base):
    trace = FaultScenarioGenerator(seed=1).churn_trace(
        POOLS, duration_s=2 * 3600.0, num_events=60)
    report = make_replayer(opt_env, opt_job).run(trace,
                                                 base_topology=mixed_base)
    assert report.replans_warm > 0
    assert report.cache_hits > 0
    assert report.solve_memo_hits > 0
    assert f"{report.solve_memo_hits} solve-memo hits" in report.describe()
    assert 0.0 < report.percent_replans_warm <= 1.0


def _replan_warm_and_cold(env, job, base, trace):
    """Replan every boundary of ``trace`` on one long-lived controller and
    on a fresh planner; assert byte-identical plans, return the controller."""
    availability = trace.to_availability_trace()
    objective = Objective.max_throughput()
    controller = TrainingController(env=env, job=job, objective=objective)
    fresh = SailorPlanner(env)

    compared = 0
    for time_s, _ in trace.grouped_events():
        topology = availability.topology_at(time_s, base=base)
        warm_result = controller.replan(topology)
        cold_result = fresh.plan(job, topology, objective)
        assert cold_result.search_stats.solve_memo_hits == 0
        assert warm_result.found == cold_result.found
        if warm_result.found:
            assert (plan_to_json(warm_result.plan)
                    == plan_to_json(cold_result.plan))
            compared += 1
    assert compared > 0
    return controller


def test_incremental_replans_match_from_scratch_solves(opt_env, opt_job,
                                                       mixed_base):
    """Plans out of the long-lived context are byte-identical to cold solves."""
    trace = FaultScenarioGenerator(seed=2).churn_trace(
        POOLS, duration_s=3600.0, num_events=14)
    controller = _replan_warm_and_cold(opt_env, opt_job, mixed_base, trace)
    assert controller.search_stats.cache_hits > 0


def test_node_flap_replans_hit_the_solve_memo_and_match_cold(opt_env, opt_job,
                                                            mixed_base):
    """A flapping node revisits earlier pools, so whole DP solves are served
    from the context's solve memo -- and the plans stay byte-identical to
    cold solves of the same pools."""
    trace = FaultScenarioGenerator(seed=2).churn_trace(
        POOLS, duration_s=3600.0, num_events=14,
        kind_weights={"node_flap": 1.0})
    controller = _replan_warm_and_cold(opt_env, opt_job, mixed_base, trace)
    assert controller.search_stats.solve_memo_hits > 0


@pytest.mark.parametrize("extra", [
    {"objective": Objective.min_cost()},
    {"policy": ReplanPolicy(debounce_s=300.0)},
    {"objective": Objective.max_throughput(), "policy": ReplanPolicy()},
], ids=lambda extra: "+".join(extra))
def test_controller_with_objective_or_policy_is_rejected(opt_env, opt_job,
                                                          extra):
    """A passed controller carries its own objective and policy; a second
    copy beside it would be silently ignored, so it is an error."""
    controller = TrainingController(env=opt_env, job=opt_job)
    with pytest.raises(ValueError, match="controller"):
        ChurnReplayer(opt_env, opt_job, controller=controller, **extra)
    replayer = ChurnReplayer(opt_env, opt_job, controller=controller)
    assert replayer.controller is controller
    assert not hasattr(replayer, "policy")
    assert not hasattr(replayer, "objective")


# -- graceful degradation -----------------------------------------------------

def test_deadline_miss_keeps_incumbent_instead_of_raising(opt_env, opt_job,
                                                          mixed_base):
    # A two-tick planner: every solve is truncated, so the fallback path
    # is what acts on both voluntary replans.
    controller = TrainingController(
        env=opt_env, job=opt_job, objective=Objective.max_throughput(),
        planner=SailorPlanner(opt_env, PlannerConfig(max_search_nodes=2)))
    replayer = make_replayer(opt_env, opt_job, controller=controller)
    trace = FaultTrace(events=[
        FaultEvent(0.0, "initial", "us-central1-a", "a2-highgpu-4g", 2),
        FaultEvent(600.0, "quota_cut", "us-central1-a", "a2-highgpu-4g", 4),
        FaultEvent(1200.0, "quota_cut", "us-central1-a", "a2-highgpu-4g", 3),
    ], duration_s=1800.0)
    report = replayer.run(trace, base_topology=mixed_base)
    assert report.events_dropped == 0
    # The truncated deploy counts as degraded too.
    assert report.deadline_fallbacks == 3
    assert [d.complete for d in controller.decisions] == [False] * 3
    # The incumbent survived both voluntary replan opportunities.
    plan_gpus = {r.plan_gpus for r in report.records}
    assert plan_gpus == {8}
    assert [d.action for d in controller.decisions] == [
        "deployed", "deadline_fallback", "deadline_fallback"]


def test_all_infeasible_parks_and_retries_with_backoff(opt_env, opt_job,
                                                       mixed_base):
    # A budget no plan can satisfy: every solve is "transiently" infeasible.
    objective = Objective.max_throughput(max_cost_per_iteration_usd=1e-9)
    controller = TrainingController(env=opt_env, job=opt_job,
                                    objective=objective)
    replayer = ChurnReplayer(opt_env, opt_job, controller=controller)
    trace = FaultTrace(events=[
        FaultEvent(0.0, "initial", "us-central1-a", "a2-highgpu-4g", 4),
    ], duration_s=3600.0)
    report = replayer.run(trace, base_topology=mixed_base)
    assert report.events_dropped == 0
    assert report.parks >= 2          # initial park + at least one retry park
    assert report.retries >= 2        # backoff wakeups fired
    assert report.iterations_completed == 0
    assert controller.parked
    assert controller.current_plan is None
    # Backoff grew and was capped.
    assert controller._retry_backoff_s == MAX_RETRY_BACKOFF_S == 900.0


def test_zone_outage_parks_then_resumes_on_capacity(opt_env, opt_job,
                                                    mixed_base):
    generator = FaultScenarioGenerator(seed=0)
    events = [FaultEvent(0.0, "initial", "us-central1-a",
                         "a2-highgpu-4g", 4),
              FaultEvent(0.0, "initial", "us-central1-a",
                         "n1-standard-v100-4", 4)]
    events += generator.zone_outage(POOLS, "us-central1-a", at_s=900.0,
                                    outage_s=900.0)
    trace = FaultTrace(events=events, duration_s=3600.0)
    replayer = make_replayer(opt_env, opt_job)
    report = replayer.run(trace, base_topology=mixed_base)
    assert report.events_dropped == 0
    assert report.parks == 1
    assert report.idle_time_s >= 900.0 * 0.9
    # Training resumed once the zone came back.
    assert replayer.controller.current_plan is not None
    assert not replayer.controller.parked
    assert report.iterations_completed > 0


# -- checkpoint rollback under churn ------------------------------------------

def test_mid_drain_preemption_rolls_back_to_previous_durable(opt_env, opt_job,
                                                             mixed_base):
    """A preemption landing before any drain finishes loses *all* progress;
    with fast drains only the last interval is lost.  The preemption takes
    every A100 node the incumbent runs on, so no data-parallel prefix of
    it fits and the job replans onto the V100 nodes that stay."""
    preempt = [FaultEvent(0.0, "initial", "us-central1-a",
                          "a2-highgpu-4g", 4),
               FaultEvent(0.0, "initial", "us-central1-a",
                          "n1-standard-v100-4", 4),
               FaultEvent(1300.0, "mid_drain_preemption", "us-central1-a",
                          "a2-highgpu-4g", 0)]
    trace = FaultTrace(events=preempt, duration_s=1800.0)

    fast = make_replayer(opt_env, opt_job,
                         checkpoint_config=CheckpointConfig(
                             interval_iterations=10))
    fast_report = fast.run(trace, base_topology=mixed_base)

    # Storage so slow that no drain completes before the preemption: the
    # latest checkpoint is still in flight, so rollback reaches all the way
    # back past it (here: to iteration 0 -- nothing durable yet).
    slow = make_replayer(opt_env, opt_job,
                         checkpoint_config=CheckpointConfig(
                             interval_iterations=10,
                             storage_write_gbps=1e-6))
    slow_report = slow.run(trace, base_topology=mixed_base)

    assert fast_report.events_dropped == 0
    assert slow_report.events_dropped == 0
    assert fast_report.shrinks == slow_report.shrinks == 0
    assert slow.checkpoints.latest_durable(1300.0) is None
    assert fast.checkpoints.latest_durable(1300.0) is not None
    # Fast drains: at most one checkpoint interval (+ the in-flight tail)
    # is lost.  Slow drains: everything since iteration 0.
    assert 0 < fast_report.iterations_lost_to_rollback <= 20
    assert (slow_report.iterations_lost_to_rollback
            > fast_report.iterations_lost_to_rollback)
    preempt_record = [r for r in slow_report.records
                      if "mid_drain_preemption" in r.trigger][0]
    assert preempt_record.iterations_lost \
        == slow_report.iterations_lost_to_rollback


def test_shrinks_are_not_counted_as_replans(opt_env, opt_job, mixed_base):
    """``replans`` counts planner solves; a shrink-in-place runs none."""
    trace = FaultScenarioGenerator(seed=0).churn_trace(
        POOLS, duration_s=1200.0, num_events=20,
        kind_weights={"quota_cut": 1.0})
    replayer = make_replayer(opt_env, opt_job)
    controller = replayer.controller
    solves = []
    replan = controller.replan
    controller.replan = lambda topology: solves.append(1) or replan(topology)
    report = replayer.run(trace, base_topology=mixed_base)
    assert report.shrinks > 0
    assert report.replans == len(report.replan_latencies_s) == len(solves)


def test_shrink_in_place_does_not_roll_back(opt_env, opt_job, mixed_base):
    """Dropping data-parallel columns keeps complete state: no rollback."""
    events = [FaultEvent(0.0, "initial", "us-central1-a",
                         "a2-highgpu-4g", 4),
              FaultEvent(1200.0, "preemption_burst", "us-central1-a",
                         "a2-highgpu-4g", 2)]
    trace = FaultTrace(events=events, duration_s=2400.0)
    replayer = make_replayer(opt_env, opt_job)
    report = replayer.run(trace, base_topology=mixed_base)
    assert report.events_dropped == 0
    if report.shrinks:                 # shrink applied: state survived
        assert report.iterations_lost_to_rollback == 0
    else:                              # pool shape forced a full replan
        assert report.iterations_lost_to_rollback >= 0


# -- price moves --------------------------------------------------------------
#
# These tests build a private environment: the replayer mutates
# env.prices.gpu_hourly_usd in place while interpreting price_move events,
# and the session-scoped fixtures must not see those edits.

def _price_env(job, base):
    return build_environment(job, base, seed=7)


def test_price_move_replans_under_cost_objective_and_revert_restores(
        opt_job, mixed_base):
    env = _price_env(opt_job, mixed_base)
    base_prices = dict(env.prices.gpu_hourly_usd)
    events = [FaultEvent(0.0, "initial", "us-central1-a",
                         "a2-highgpu-4g", 4),
              FaultEvent(0.0, "initial", "us-central1-a",
                         "n1-standard-v100-4", 4)]
    events += FaultScenarioGenerator(seed=0).price_move(
        "us-central1-a", "a2-highgpu-4g", base_nodes=4, at_s=900.0,
        multiplier=4.0, revert_after_s=900.0)
    trace = FaultTrace(events=events, duration_s=2700.0)
    replayer = ChurnReplayer(env, opt_job, Objective.min_cost(),
                             checkpoint_config=CheckpointConfig(
                                 interval_iterations=10))
    report = replayer.run(trace, base_topology=mixed_base)
    assert report.events_dropped == 0
    assert report.price_moves == 2
    # Each move drove a decision through the controller's price path.
    price_records = [r for r in report.records
                     if "price_move" in r.trigger]
    assert len(price_records) == 2
    # The revert restored the exact run-start catalog: multipliers are
    # absolute with respect to base prices, not compounding.
    assert env.prices.gpu_hourly_usd == base_prices


def test_price_move_without_revert_leaves_scaled_price(opt_job, mixed_base):
    env = _price_env(opt_job, mixed_base)
    base_prices = dict(env.prices.gpu_hourly_usd)
    moved = get_node_type("a2-highgpu-4g").gpu.name
    untouched = get_node_type("n1-standard-v100-4").gpu.name
    events = [FaultEvent(0.0, "initial", "us-central1-a",
                         "a2-highgpu-4g", 4),
              FaultEvent(0.0, "initial", "us-central1-a",
                         "n1-standard-v100-4", 4)]
    events += FaultScenarioGenerator(seed=0).price_move(
        "us-central1-a", "a2-highgpu-4g", base_nodes=4, at_s=600.0,
        multiplier=2.0)
    trace = FaultTrace(events=events, duration_s=1200.0)
    report = make_replayer(env, opt_job).run(trace, base_topology=mixed_base)
    assert report.events_dropped == 0
    assert report.price_moves == 1
    assert env.prices.gpu_hourly_usd[moved] \
        == pytest.approx(base_prices[moved] * 2.0)
    assert env.prices.gpu_hourly_usd[untouched] == base_prices[untouched]


@pytest.mark.parametrize("samples,p50,p99", [
    ([2.0, 1.0], 1.0, 2.0),
    ([3.0], 3.0, 3.0),
    ([5.0, 1.0, 3.0], 3.0, 5.0),
    ([float(i) for i in range(100, 0, -1)], 50.0, 99.0),
    ([], 0.0, 0.0),
])
def test_replan_latency_percentiles_are_nearest_rank(samples, p50, p99):
    """``ordered[ceil(q * n) - 1]``: the p50 of two samples is the lower
    one, and the p99 of 100 samples is the 99th, not the maximum."""
    report = ChurnReport(replan_latencies_s=samples)
    assert report.p50_replan_latency_s == p50
    assert report.p99_replan_latency_s == p99
