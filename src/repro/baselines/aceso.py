"""Aceso (Liu et al., EuroSys 2024).

Plans parallelisation by *iterative bottleneck alleviation*: starting from an
initial configuration, it repeatedly identifies the bottleneck (the slowest
or most memory-pressured stage) and applies a local mutation (change TP,
microbatch size, or pipeline depth) until no improvement is found.
Characteristics reproduced from the paper's comparison:

* search time around a couple of hundred seconds (it evaluates many
  incremental mutations); here the descent is bounded by
  ``max_iterations`` mutation rounds, not by a clock;
* homogeneous assumptions, no resource-allocation decisions, no zones;
* its iterative descent can get stuck in poor local optima, which is why it
  trails the best planners in Figure 7.
"""

from __future__ import annotations

from repro.baselines.base import BaselinePlanner, CandidatePlan, register_baseline
from repro.baselines.estimators import BaselineEstimator, EstimatorFlags
from repro.core.objectives import Objective
from repro.core.plan import ParallelizationPlan
from repro.hardware.nodes import get_node_type
from repro.hardware.topology import ClusterTopology
from repro.models.spec import TrainingJobSpec


@register_baseline
class AcesoPlanner(BaselinePlanner):
    """Iterative bottleneck-alleviation planner for homogeneous clusters."""

    name = "aceso"
    parallelism = "3D"
    recommends_allocation = False
    supports_heterogeneous = False
    supports_multizone = False

    def __init__(self, env, limits=None, max_iterations: int = 200) -> None:
        super().__init__(env, limits)
        self.max_iterations = max_iterations

    def build_estimator(self) -> BaselineEstimator:
        return BaselineEstimator(self.env, EstimatorFlags(
            models_memory=True,
            include_optimizer_state=True,
            include_activations=True,
            include_framework_overhead=False,
            uniform_stage_memory=True,
            per_stage_in_flight=False,
            models_stragglers=False,
            uses_theoretical_flops=False,
            models_p2p_communication=True,
            models_dp_sync=True,
            models_embedding_and_head=False,
            message_size_aware_bandwidth=True,
        ))

    def ranked_plans(self, job: TrainingJobSpec, topology: ClusterTopology,
                     objective: Objective) -> list[CandidatePlan]:
        all_plans = self.enumerate_uniform_plans(job, topology,
                                                 allow_mixed_types=False)
        if not all_plans:
            return []
        by_key = {self._key(p): p for p in all_plans}

        current = self._initial_plan(all_plans)
        current_candidate = self.candidate_from_plan(current, objective)
        visited = {self._key(current)}
        trail = [current_candidate]

        for _ in range(self.max_iterations):
            improved = False
            for neighbour_key in self._neighbour_keys(self._key(current)):
                neighbour = by_key.get(neighbour_key)
                if neighbour is None or neighbour_key in visited:
                    continue
                visited.add(neighbour_key)
                if not self.estimator.plan_fits(neighbour):
                    continue
                candidate = self.candidate_from_plan(neighbour, objective)
                trail.append(candidate)
                if (candidate.estimated_iteration_time_s
                        < current_candidate.estimated_iteration_time_s):
                    current, current_candidate = neighbour, candidate
                    improved = True
                    break
            if not improved:
                break

        return self._sort_candidates(trail, objective)

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _key(plan: ParallelizationPlan) -> tuple[int, int, int, int]:
        tp = plan.stages[0].replicas[0].tensor_parallel
        return (plan.pipeline_parallel, tp, plan.data_parallel,
                plan.microbatch_size)

    @staticmethod
    def _neighbour_keys(key: tuple[int, int, int, int]) -> list[tuple[int, int, int, int]]:
        pp, tp, dp, mbs = key
        neighbours = []
        for npp in (pp // 2, pp * 2, pp + 1, pp - 1):
            if npp >= 1:
                neighbours.append((npp, tp, dp, mbs))
        for ntp in (tp * 2, tp // 2):
            if ntp >= 1:
                neighbours.append((pp, ntp, dp, mbs))
        for ndp in (dp * 2, dp // 2):
            if ndp >= 1:
                neighbours.append((pp, tp, ndp, mbs))
        for nmbs in (mbs * 2, mbs // 2):
            if nmbs >= 1:
                neighbours.append((pp, tp, dp, nmbs))
        return neighbours

    def _initial_plan(self, plans: list[ParallelizationPlan]) -> ParallelizationPlan:
        """Aceso starts from a balanced middle-of-the-road configuration."""
        def balance(plan: ParallelizationPlan) -> float:
            tp = plan.stages[0].replicas[0].tensor_parallel
            return abs(plan.pipeline_parallel - tp) + abs(plan.microbatch_size - 2)
        return min(plans, key=balance)
