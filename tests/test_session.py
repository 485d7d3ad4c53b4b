"""Integration tests for elastic training over availability traces.

Each scenario labels a plain availability trace with
``FaultTrace.from_availability`` and replays it through ``ChurnReplayer``.
"""

import pytest

from repro.core.simulator import build_environment
from repro.hardware.availability import (
    AvailabilityEvent,
    AvailabilityTrace,
    AvailabilityTraceGenerator,
)
from repro.hardware.topology import ClusterTopology
from repro.models.catalog import get_model
from repro.models.spec import TrainingJobSpec
from repro.runtime.checkpoint import CheckpointConfig
from repro.runtime.faults import FaultScenarioGenerator, FaultTrace
from repro.runtime.replay import ChurnReplayer


@pytest.fixture()
def base_topology():
    return ClusterTopology.homogeneous("a2-highgpu-4g", 4)


def steady_trace(nodes=4, duration=1800.0):
    return AvailabilityTrace(events=[
        AvailabilityEvent(0.0, "us-central1-a", "a2-highgpu-4g", nodes)],
        duration_s=duration)


def replay(replayer, trace, base, **kwargs):
    return replayer.run(FaultTrace.from_availability(trace),
                        base_topology=base, **kwargs)


def test_steady_availability_trains_continuously(opt_env, opt_job, base_topology):
    report = replay(ChurnReplayer(opt_env, opt_job), steady_trace(),
                    base_topology)
    assert report.iterations_completed > 0
    assert len(report.plan_history) == 1         # initial deployment only
    assert report.iterations_lost_to_rollback == 0
    assert report.idle_time_s == 0.0
    assert report.goodput_iters_per_s > 0
    assert 0.9 <= report.training_time_s / report.duration_s <= 1.0
    assert len(report.records) == 1
    assert report.records[0].plan_gpus == 16


def test_outage_produces_idle_time(opt_env, opt_job, base_topology):
    trace = AvailabilityTrace(events=[
        AvailabilityEvent(0.0, "us-central1-a", "a2-highgpu-4g", 0),
        AvailabilityEvent(900.0, "us-central1-a", "a2-highgpu-4g", 4),
    ], duration_s=1800.0)
    report = replay(ChurnReplayer(opt_env, opt_job), trace, base_topology)
    assert report.idle_time_s >= 900.0 * 0.9
    assert report.iterations_completed > 0
    deployed = [record for record in report.records if record.plan_gpus]
    assert deployed and deployed[0].time_s >= 900.0


def test_preemption_causes_rollback(opt_env, opt_job, base_topology):
    trace = AvailabilityTrace(events=[
        AvailabilityEvent(0.0, "us-central1-a", "a2-highgpu-4g", 4),
        AvailabilityEvent(900.0, "us-central1-a", "a2-highgpu-4g", 1),
    ], duration_s=1800.0)
    replayer = ChurnReplayer(
        opt_env, opt_job,
        checkpoint_config=CheckpointConfig(interval_iterations=5))
    report = replay(replayer, trace, base_topology)
    assert len(report.plan_history) >= 2
    assert report.reconfiguration_time_s > 0
    # Scale-down rolls back to the latest durable checkpoint; with an interval
    # of 5 iterations at most a handful of iterations are lost.
    assert 0 <= report.iterations_lost_to_rollback <= 10
    assert report.iterations_completed > 0


def test_simultaneous_pool_swap_with_equal_totals_reconfigures(opt_env,
                                                               opt_job):
    """Pool A shrinks while pool B grows at the same instant, keeping the
    total GPU count constant.  A total-GPU change detector misses this; the
    replay must still react because the incumbent plan no longer fits."""
    base = ClusterTopology.single_zone(
        "us-central1-a", {"a2-highgpu-4g": 4, "n1-standard-v100-4": 4})
    trace = AvailabilityTrace(events=[
        AvailabilityEvent(0.0, "us-central1-a", "a2-highgpu-4g", 4),
        AvailabilityEvent(0.0, "us-central1-a", "n1-standard-v100-4", 0),
        # t=900: A100 pool loses 2 nodes, V100 pool gains 2 -- same total.
        AvailabilityEvent(900.0, "us-central1-a", "a2-highgpu-4g", 2),
        AvailabilityEvent(900.0, "us-central1-a", "n1-standard-v100-4", 2),
    ], duration_s=1800.0)
    replayer = ChurnReplayer(opt_env, opt_job)
    report = replay(replayer, trace, base)
    assert len(report.plan_history) >= 2
    plan = replayer.controller.current_plan
    assert plan is not None
    assert plan.resource_allocation().fits_within(
        ClusterTopology.single_zone(
            "us-central1-a", {"a2-highgpu-4g": 2, "n1-standard-v100-4": 2}))


def test_max_iterations_caps_progress(opt_env, opt_job, base_topology):
    report = replay(ChurnReplayer(opt_env, opt_job),
                    steady_trace(duration=3600.0), base_topology,
                    max_iterations=10)
    assert report.iterations_completed == 10


def test_more_frequent_checkpoints_increase_stall_time(opt_env, opt_job,
                                                       base_topology):
    frequent = ChurnReplayer(
        opt_env, opt_job, checkpoint_config=CheckpointConfig(interval_iterations=2))
    rare = ChurnReplayer(
        opt_env, opt_job, checkpoint_config=CheckpointConfig(interval_iterations=50))
    frequent_report = replay(frequent, steady_trace(), base_topology)
    rare_report = replay(rare, steady_trace(), base_topology)
    assert frequent_report.checkpoint_stall_s > rare_report.checkpoint_stall_s
    assert frequent_report.iterations_completed <= rare_report.iterations_completed


# -- time accounts ----------------------------------------------------------

SPOT_POOL = ("us-central1-a", "n1-standard-v100-4")


@pytest.fixture(scope="module")
def spot_setup():
    """The job and 8-node V100 pool of ``examples/elastic_spot_training.py``."""
    job = TrainingJobSpec(model=get_model("OPT-350M"), global_batch_size=2048,
                          sequence_length=2048)
    base = ClusterTopology.homogeneous(SPOT_POOL[1], 8, zone=SPOT_POOL[0])
    return build_environment(job, base), job, base


def spot_trace(seed, hours, mean_gap_s):
    events = AvailabilityTraceGenerator(seed=seed).spot_preemptions(
        *SPOT_POOL, base_nodes=8, duration_s=hours * 3600.0,
        mean_time_between_events_s=mean_gap_s)
    return AvailabilityTrace(events=events, duration_s=hours * 3600.0)


def fluctuating_trace(seed):
    events = AvailabilityTraceGenerator(seed=seed).fluctuating(
        *SPOT_POOL, target_nodes=8, duration_s=2 * 3600.0)
    return AvailabilityTrace(events=events, duration_s=2 * 3600.0)


def assert_accounts_sum_to_duration(report):
    accounted = (report.training_time_s + report.reconfiguration_time_s
                 + report.idle_time_s)
    assert accounted == pytest.approx(report.duration_s, rel=1e-9)


@pytest.mark.parametrize("trace", [
    # The example's trace: its last change lands 2 s before the end, inside
    # the reconfiguration pause it triggers.
    spot_trace(42, 4, 1200.0),
    spot_trace(0, 2, 600.0),
    spot_trace(1, 2, 600.0),
    fluctuating_trace(3),
], ids=["spot-seed42-example", "spot-seed0", "spot-seed1", "fluctuating"])
def test_availability_replay_accounts_sum_to_duration(spot_setup, trace):
    """Training + reconfiguration + idle time is the whole run: a pause cut
    off by the end of the run, or by the next change, is booked only as
    far as it lasted, and never as idle time too."""
    env, job, base = spot_setup
    replayer = ChurnReplayer(
        env, job, checkpoint_config=CheckpointConfig(interval_iterations=25))
    assert_accounts_sum_to_duration(replay(replayer, trace, base))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_churn_replay_accounts_sum_to_duration(opt_env, opt_job, seed):
    pools = {("us-central1-a", "a2-highgpu-4g"): 4,
             ("us-central1-a", "n1-standard-v100-4"): 4}
    base = ClusterTopology.single_zone(
        "us-central1-a", {"a2-highgpu-4g": 4, "n1-standard-v100-4": 4})
    trace = FaultScenarioGenerator(seed=seed).churn_trace(
        pools, duration_s=2 * 3600.0, num_events=60)
    report = ChurnReplayer(opt_env, opt_job).run(trace, base_topology=base)
    assert_accounts_sum_to_duration(report)
