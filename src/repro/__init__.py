"""repro: a reproduction of Sailor (SOSP 2025).

Sailor automates distributed training over dynamic, heterogeneous and
geo-distributed clusters.  This package reimplements the full system in
Python: the profiler, the simulator, the planner, an elastic training
runtime (a replanning controller that replays availability timelines), the
baseline planners it is compared against, and the experiment harnesses for
every figure and table in the paper's evaluation.

Quickstart::

    from repro import (
        TrainingJobSpec, get_model, ClusterTopology,
        build_environment, SailorPlanner, Objective,
    )

    job = TrainingJobSpec(model=get_model("OPT-350M"))
    topology = ClusterTopology.homogeneous("a2-highgpu-4g", num_nodes=8)
    env = build_environment(job, topology)
    result = SailorPlanner(env).plan(job, topology, Objective.max_throughput())
    print(result.plan.describe())
"""

from repro.core import (
    Objective,
    OptimizationGoal,
    Constraint,
    ParallelizationPlan,
    PlannerResult,
    PlanEvaluation,
    SailorPlanner,
    SailorSimulator,
    StageConfig,
    StageReplica,
)
from repro.core.simulator import ReferenceSimulator, build_environment
from repro.hardware import (
    AvailabilityTrace,
    AvailabilityTraceGenerator,
    ClusterTopology,
    GPUSpec,
    NodeSpec,
    get_gpu,
    get_node_type,
)
from repro.models import TrainingJobSpec, TransformerModelSpec, get_model
from repro.runtime import ChurnReplayer, FaultTrace, TrainingController

__version__ = "1.0.0"

__all__ = [
    "Objective",
    "OptimizationGoal",
    "Constraint",
    "ParallelizationPlan",
    "PlannerResult",
    "PlanEvaluation",
    "SailorPlanner",
    "SailorSimulator",
    "StageConfig",
    "StageReplica",
    "ReferenceSimulator",
    "build_environment",
    "AvailabilityTrace",
    "AvailabilityTraceGenerator",
    "ClusterTopology",
    "GPUSpec",
    "NodeSpec",
    "get_gpu",
    "get_node_type",
    "TrainingJobSpec",
    "TransformerModelSpec",
    "get_model",
    "ChurnReplayer",
    "FaultTrace",
    "TrainingController",
    "__version__",
]
