"""Tests of the benchmark's own arithmetic and correctness checks.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(HERE, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
run = _load("run")
workloads = _load("workloads")


# -- self time ------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0],
             ["b", 3.0, 12.0, 0]]
    # Children cover [1, 10] once, clipped to the parent.
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_totals_counts_recursion_once_inclusive():
    spans = [["solve", 0.0, 10.0, -1], ["solve", 2.0, 6.0, 0],
             ["eval", 3.0, 4.0, 1], ["eval", 7.0, 9.0, 0]]
    totals = tracing.layer_totals(spans)
    assert totals["solve"] == {"calls": 2, "self_s": 7.0, "total_s": 10.0}
    assert totals["eval"] == {"calls": 2, "self_s": 3.0, "total_s": 3.0}


def test_tracer_records_parents_and_pauses():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert tracer.spans == [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]]
    tracer.enabled = False
    assert outer(1) == 4
    assert len(tracer.spans) == 2
    totals = tracing.layer_totals(tracer.spans)
    assert totals["outer"]["self_s"] == 2.0
    assert totals["inner"]["self_s"] == 1.0


def test_install_and_uninstall_restore_entry_points():
    from repro.core import dp_solver
    from repro.core.planner import SailorPlanner

    forward, plan = dp_solver.compute_forward_layers, SailorPlanner.plan
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dp_solver.compute_forward_layers is not forward
        assert SailorPlanner.plan is not plan
    finally:
        tracer.uninstall()
    assert dp_solver.compute_forward_layers is forward
    assert SailorPlanner.plan is plan


# -- percentile rule ------------------------------------------------------------


def test_tail_percentile_is_p90_with_enough_samples():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail_percentile(samples) == (90, 90.0)


@pytest.mark.parametrize("n", [20, 25, 50, 99, 100, 101, 420])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    samples = [float(i) for i in range(n)]
    p, value = run.tail_percentile(samples)
    assert 50 <= p <= 90
    assert sum(1 for s in samples if s > value) >= 10
    if p < 90:  # one percentile higher would leave fewer than ten beyond
        rank = -(-(p + 1) * n // 100)
        assert n - rank < 10


@pytest.mark.parametrize("n", [1, 3, 10, 19])
def test_tail_percentile_falls_back_to_max_for_few_samples(n):
    samples = [float(i) for i in range(n)]
    assert run.tail_percentile(samples) == (100, float(n - 1))


# -- correctness checks ---------------------------------------------------------


@pytest.fixture(scope="module")
def small_plan():
    from repro.core.objectives import Objective
    from repro.core.planner import SailorPlanner
    from repro.core.simulator import build_environment
    from repro.hardware.topology import ClusterTopology

    job = workloads._job(256)
    topology = ClusterTopology.single_zone(workloads.ZONE_A, {
        workloads.A100: 2, workloads.V100: 2})
    env = build_environment(job, topology)
    result = SailorPlanner(env).plan(job, topology, Objective.max_throughput())
    assert result.found
    return env, result


def test_checks_pass_on_an_untouched_plan(small_plan):
    env, result = small_plan
    log = workloads.RunLog()
    cost = result.evaluation.cost_per_iteration_usd
    assert workloads.check_plan(env, result, log, "plan", ceiling=cost)
    assert log.checks.failed == 0 and log.checks.attempted == 4


def test_tampered_plan_raises_fail_frac(small_plan):
    import copy
    import dataclasses

    env, result = small_plan
    tampered = copy.deepcopy(result)
    replicas = tampered.plan.stages[0].replicas
    other = (workloads.V100 if replicas[0].node_type == workloads.A100
             else workloads.A100)
    replicas[0] = dataclasses.replace(replicas[0], node_type=other)
    log = workloads.RunLog()
    workloads.check_plan(env, tampered, log, "tampered plan")
    assert log.checks.failed > 0


def test_tampered_evaluation_raises_fail_frac(small_plan):
    import copy

    env, result = small_plan
    tampered = copy.deepcopy(result)
    tampered.evaluation.iteration_time_s *= 0.5
    log = workloads.RunLog()
    workloads.check_plan(env, tampered, log, "tampered evaluation")
    assert log.checks.failed > 0


def test_broken_budget_raises_fail_frac(small_plan):
    env, result = small_plan
    log = workloads.RunLog()
    ceiling = 0.5 * result.evaluation.cost_per_iteration_usd
    workloads.check_plan(env, result, log, "over budget", ceiling=ceiling)
    assert log.checks.failed == 1
    assert log.checks.failures == ["over budget: cost above the budget "
                                   "ceiling (1 of 1)"]


def test_dropped_events_count_as_failures():
    checks = workloads.Checks()
    checks.tally(120, 3, "churn: events dropped")
    assert (checks.attempted, checks.failed) == (120, 3)


def test_workload_inputs_follow_the_seed():
    for cls in (workloads.LargePool, workloads.Budget):
        pools = {seed: cls(seed).topology.total_gpus() for seed in range(8)}
        assert len(set(pools.values())) == 1  # the total stays fixed
        assert cls(3).topology.nodes == cls(3).topology.nodes
    assert (len({str(workloads.LargePool(s).topology.nodes)
                 for s in range(8)}) > 1)
    kind = workloads.CHURN_KINDS[0]
    first = workloads.Churn(1).trace(0, kind).events
    assert first == workloads.Churn(1).trace(0, kind).events
    assert first != workloads.Churn(2).trace(0, kind).events
    assert first != workloads.Churn(1).trace(1, kind).events
    assert {event.kind for event in first} <= {"initial", kind}
