"""Sailor core: plan representation, simulator, and planner.

This is the paper's primary contribution:

* :mod:`repro.core.plan` -- resource-allocation + parallelization-plan
  datatypes shared by the planner, simulator, baselines and runtime.
* :mod:`repro.core.objectives` -- user objectives and constraints.
* :mod:`repro.core.simulator` -- memory / iteration-time / cost estimation.
* :mod:`repro.core.heuristics` -- search-space pruning heuristics H1-H6.
* :mod:`repro.core.dp_solver` -- the per-stage dynamic program (Listing 1).
* :mod:`repro.core.search_cache` -- cross-candidate caches shared by one
  planner call.
* :mod:`repro.core.planner` -- the Sailor planner tying it all together.
"""

from repro.core.plan import (
    StageReplica,
    StageConfig,
    ParallelizationPlan,
    ResourceAllocation,
    PlanEvaluation,
    PlannerResult,
    SearchStats,
)
from repro.core.objectives import Objective, Constraint, OptimizationGoal
from repro.core.search_cache import PlannerSearchContext
from repro.core.simulator import SailorSimulator
from repro.core.planner import SailorPlanner

__all__ = [
    "StageReplica",
    "StageConfig",
    "ParallelizationPlan",
    "ResourceAllocation",
    "PlanEvaluation",
    "PlannerResult",
    "SearchStats",
    "Objective",
    "Constraint",
    "OptimizationGoal",
    "PlannerSearchContext",
    "SailorSimulator",
    "SailorPlanner",
]
