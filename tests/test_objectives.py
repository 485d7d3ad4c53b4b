"""Unit tests for objectives and constraints."""

import math

import pytest

from repro.core.objectives import Constraint, Objective, OptimizationGoal
from repro.core.plan import PlanEvaluation


def evaluation(throughput=0.2, cost=1.0, valid=True):
    return PlanEvaluation(
        iteration_time_s=1.0 / throughput if throughput else float("inf"),
        throughput_iters_per_s=throughput,
        cost_per_iteration_usd=cost,
        peak_memory_bytes_per_stage=[1.0],
        is_valid=valid,
    )


def test_constraint_validation():
    with pytest.raises(ValueError):
        Constraint(max_cost_per_iteration_usd=0)
    with pytest.raises(ValueError):
        Constraint(min_throughput_iters_per_s=-1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite number > 0"):
            Constraint(max_cost_per_iteration_usd=bad)
        with pytest.raises(ValueError, match="finite number > 0"):
            Constraint(min_throughput_iters_per_s=bad)
    with pytest.raises(ValueError):
        Constraint(max_gpus=0)
    assert Constraint().is_unconstrained
    assert not Constraint(max_gpus=8).is_unconstrained


def test_constraint_satisfaction():
    constraint = Constraint(max_cost_per_iteration_usd=2.0,
                            min_throughput_iters_per_s=0.1, max_gpus=64)
    assert constraint.satisfied_by(evaluation(throughput=0.2, cost=1.0),
                                   total_gpus=32)
    assert not constraint.satisfied_by(evaluation(throughput=0.05, cost=1.0),
                                       total_gpus=32)
    assert not constraint.satisfied_by(evaluation(throughput=0.2, cost=3.0),
                                       total_gpus=32)
    assert not constraint.satisfied_by(evaluation(throughput=0.2, cost=1.0),
                                       total_gpus=128)
    assert not constraint.satisfied_by(evaluation(valid=False), total_gpus=1)


def test_objective_scoring_throughput():
    objective = Objective.max_throughput()
    assert objective.goal is OptimizationGoal.MAX_THROUGHPUT
    fast, slow = evaluation(0.5), evaluation(0.1)
    assert objective.score(fast) > objective.score(slow)
    assert objective.better(fast, slow)
    assert objective.better(fast, None)
    assert not objective.better(slow, fast)


def test_objective_scoring_cost():
    objective = Objective.min_cost()
    cheap, expensive = evaluation(cost=0.5), evaluation(cost=2.0)
    assert objective.score(cheap) > objective.score(expensive)
    assert objective.better(cheap, expensive)


def test_factories_carry_constraints():
    objective = Objective.max_throughput(max_cost_per_iteration_usd=1.2,
                                         max_gpus=256)
    assert objective.constraint.max_cost_per_iteration_usd == 1.2
    assert objective.constraint.max_gpus == 256
    objective = Objective.min_cost(min_throughput_iters_per_s=0.2)
    assert objective.constraint.min_throughput_iters_per_s == 0.2
