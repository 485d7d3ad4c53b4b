"""Tests for the SailorSimulator facade and the reference simulator."""

import pytest

from repro.core.plan import ParallelizationPlan
from repro.core.simulator import ReferenceSimulator, SailorSimulator


@pytest.fixture()
def simulator(opt_env):
    return SailorSimulator(opt_env)


@pytest.fixture()
def reference(opt_env):
    return ReferenceSimulator(opt_env, seed=1)


def plan_for(job, **kwargs):
    defaults = dict(pipeline_parallel=4, data_parallel=2, tensor_parallel=4,
                    microbatch_size=2)
    defaults.update(kwargs)
    return ParallelizationPlan.homogeneous(job, "a2-highgpu-4g", **defaults)


def test_evaluation_fields_consistent(simulator, opt_job):
    plan = plan_for(opt_job)
    evaluation = simulator.evaluate(plan)
    assert evaluation.is_valid
    assert evaluation.oom_stages == []
    assert evaluation.iteration_time_s > 0
    assert evaluation.throughput_iters_per_s == pytest.approx(
        1.0 / evaluation.iteration_time_s)
    assert evaluation.cost_per_iteration_usd == pytest.approx(
        evaluation.compute_cost_usd + evaluation.communication_cost_usd)
    assert len(evaluation.peak_memory_bytes_per_stage) == plan.pipeline_parallel
    assert evaluation.iteration_time_s == pytest.approx(
        evaluation.pipeline_time_s + evaluation.sync_time_s + evaluation.update_time_s)


def test_invalid_plan_flagged(simulator, neo_job):
    plan = ParallelizationPlan.homogeneous(neo_job, "n1-standard-v100-4",
                                           1, 2, 1, 1)
    evaluation = simulator.evaluate(plan)
    assert not evaluation.is_valid
    assert evaluation.oom_stages == [0]


def test_reference_close_to_analytic_estimate(simulator, reference, opt_job):
    """Sailor's analytic estimate should track the reference within ~15%."""
    plan = plan_for(opt_job)
    estimate = simulator.evaluate(plan)
    measured = reference.measure(plan)
    error = abs(estimate.iteration_time_s - measured.iteration_time_s) \
        / measured.iteration_time_s
    assert error < 0.15
    mem_error = abs(max(estimate.peak_memory_bytes_per_stage)
                    - max(measured.peak_memory_bytes_per_stage)) \
        / max(measured.peak_memory_bytes_per_stage)
    assert mem_error < 0.15


def test_reference_is_deterministic_per_seed(opt_env, opt_job):
    plan = plan_for(opt_job)
    a = ReferenceSimulator(opt_env, seed=5).measure(plan)
    b = ReferenceSimulator(opt_env, seed=5).measure(plan)
    c = ReferenceSimulator(opt_env, seed=6).measure(plan)
    assert a.iteration_time_s == b.iteration_time_s
    assert a.iteration_time_s != c.iteration_time_s


def test_reference_is_independent_of_call_order(opt_env, opt_job):
    """measure() re-seeds from (seed, plan): results never depend on what
    was measured before (estimation-error experiments rely on this)."""
    plan_a = plan_for(opt_job)
    plan_b = plan_for(opt_job, pipeline_parallel=2, tensor_parallel=2,
                      microbatch_size=4)
    reference = ReferenceSimulator(opt_env, seed=5)
    first = reference.measure(plan_a).iteration_time_s
    reference.measure(plan_b)
    reference.measure(plan_b)
    assert reference.measure(plan_a).iteration_time_s == first
    # A fresh instance with the same seed agrees measurement-for-measurement.
    assert ReferenceSimulator(opt_env, seed=5).measure(plan_a).iteration_time_s \
        == first


def test_reference_pipeline_slower_with_fewer_resources(reference, opt_job):
    small = plan_for(opt_job, data_parallel=1)
    large = plan_for(opt_job, data_parallel=4)
    assert reference.measure(large).iteration_time_s < \
        reference.measure(small).iteration_time_s


def test_reference_rejects_bad_overlap(opt_env):
    with pytest.raises(ValueError):
        ReferenceSimulator(opt_env, sync_overlap=1.5)
