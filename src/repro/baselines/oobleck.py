"""Oobleck (Jang et al., SOSP 2023).

Resilient training system built on *pipeline templates*: it precomputes a
set of pipeline configurations for different node counts so that it can
re-instantiate pipelines quickly after failures.  Characteristics reproduced
from the paper's comparison:

* very long search times (hours in Table 1) because it enumerates and
  evaluates a large space of pipeline templates up front -- we model this
  with an explicit, finite template enumeration over (nodes per pipeline,
  TP, mbs);
* homogeneous assumptions (single GPU type, single zone);
* memory estimation that omits optimizer state and communication buffers,
  one of the under-estimators called out in section 3.2.
"""

from __future__ import annotations

from repro.baselines.base import BaselinePlanner, CandidatePlan, register_baseline
from repro.baselines.estimators import BaselineEstimator, EstimatorFlags
from repro.core.objectives import Objective
from repro.core.plan import ParallelizationPlan
from repro.hardware.topology import ClusterTopology
from repro.models.spec import TrainingJobSpec


@register_baseline
class OobleckPlanner(BaselinePlanner):
    """Pipeline-template planner for homogeneous clusters."""

    name = "oobleck"
    parallelism = "3D"
    recommends_allocation = False
    supports_heterogeneous = False
    supports_multizone = False

    def build_estimator(self) -> BaselineEstimator:
        return BaselineEstimator(self.env, EstimatorFlags(
            models_memory=True,
            include_optimizer_state=False,
            include_activations=True,
            include_framework_overhead=False,
            uniform_stage_memory=True,
            per_stage_in_flight=False,
            models_stragglers=False,
            uses_theoretical_flops=False,
            models_p2p_communication=True,
            models_dp_sync=True,
            models_embedding_and_head=False,
            message_size_aware_bandwidth=False,
        ))

    def ranked_plans(self, job: TrainingJobSpec, topology: ClusterTopology,
                     objective: Objective) -> list[CandidatePlan]:
        candidates: list[CandidatePlan] = []
        # Template enumeration: Oobleck builds one template per feasible
        # number of nodes per pipeline, then instantiates as many pipelines
        # as fit.  We enumerate the same space: every (nodes-per-pipeline,
        # TP, mbs) combination is a template, and instantiating it fixes DP.
        zones = self.usable_zones(topology)
        node_types = self.usable_node_types(topology)
        pools = self._node_pools(topology, node_types, zones)
        total_nodes = sum(c for _, _, c in pools)
        if total_nodes == 0:
            return []

        # Each TP degree's uniform plans are enumerated once and bucketed by
        # template, in enumeration order.
        templates: dict[tuple[int, int, int], list[ParallelizationPlan]] = {}
        for tp in (1, 2, 4, 8):
            for plan in self.enumerate_uniform_plans(
                    job, topology, tensor_parallel_degrees=[tp],
                    allow_mixed_types=False):
                key = (plan.pipeline_parallel, tp, plan.microbatch_size)
                templates.setdefault(key, []).append(plan)

        for nodes_per_pipeline in range(1, total_nodes + 1):
            for tp in (1, 2, 4, 8):
                for mbs in self.microbatch_candidates(job):
                    for plan in templates.get((nodes_per_pipeline, tp, mbs), ()):
                        if not self.estimator.plan_fits(plan):
                            continue
                        candidates.append(self.candidate_from_plan(plan, objective))
        return self._sort_candidates(candidates, objective)
