"""Common infrastructure for baseline planners.

All baselines implement :class:`BaselinePlanner`:

* :meth:`BaselinePlanner.ranked_plans` returns the candidate plans the
  baseline would try, best first *according to its own estimator*;
* :meth:`BaselinePlanner.plan` mimics deployment: candidates are tried in
  rank order, plans that actually run out of memory (checked with the
  accurate Sailor memory model) are counted as failed deployments, and the
  first plan that fits is returned together with its accurate evaluation.

This mirrors the paper's methodology: every baseline is integrated behind a
unified API, is given the same profiling information, and the number of OOM
plans generated before a valid one is reported alongside throughput.

Every search is bounded by counts (:class:`BaselineSearchLimits` and the
per-baseline loop bounds), never by a wall clock, so a baseline's ranking
and chosen plan are a pure function of its inputs.  The measured
``search_time_s`` is only reported.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.baselines.estimators import BaselineEstimator
from repro.core.budget import SearchClock
from repro.core.objectives import Objective, OptimizationGoal
from repro.core.plan import (
    ParallelizationPlan,
    PlanEvaluation,
    PlannerResult,
    StageConfig,
    StageReplica,
)
from repro.core.simulator import SailorSimulator, SimulationEnvironment
from repro.hardware.nodes import get_node_type
from repro.hardware.topology import ClusterTopology
from repro.models.partition import uniform_partition
from repro.models.spec import TrainingJobSpec


@dataclass
class CandidatePlan:
    """One plan a baseline considered, with its own estimates attached."""

    plan: ParallelizationPlan
    estimated_iteration_time_s: float
    estimated_peak_memory_bytes: list[float] | None = None
    estimated_cost_usd: float | None = None


@dataclass
class BaselineSearchLimits:
    """Count bounds on the candidate enumeration (keep searches finite).

    ``max_candidates`` caps the plans one enumeration generates, and
    ``max_ranked`` the ranked plans a baseline hands to deployment.
    """

    max_pipeline_parallel: int = 16
    max_microbatch_size: int = 8
    max_candidates: int = 4096
    max_ranked: int = 64


class BaselinePlanner(abc.ABC):
    """Base class for all reimplemented baseline planners."""

    #: Planner name as used in the paper's figures.
    name: str = "baseline"
    #: Degrees of parallelism searched ("3D" or "2D").
    parallelism: str = "3D"
    #: Whether the planner chooses the resource allocation itself.
    recommends_allocation: bool = False
    #: Whether heterogeneous GPU types are supported.
    supports_heterogeneous: bool = False
    #: Whether multi-zone / geo-distributed placements are supported.
    supports_multizone: bool = False

    def __init__(self, env: SimulationEnvironment,
                 limits: BaselineSearchLimits | None = None) -> None:
        self.env = env
        self.limits = limits or BaselineSearchLimits()
        self.simulator = SailorSimulator(env)
        self.estimator = self.build_estimator()

    # -- subclass interface -------------------------------------------------------

    @abc.abstractmethod
    def build_estimator(self) -> BaselineEstimator:
        """Create the estimator with this baseline's characteristic flags."""

    @abc.abstractmethod
    def ranked_plans(self, job: TrainingJobSpec, topology: ClusterTopology,
                     objective: Objective) -> list[CandidatePlan]:
        """Candidate plans, best first according to the baseline itself."""

    # -- shared deployment logic -----------------------------------------------------

    def plan(self, job: TrainingJobSpec, topology: ClusterTopology,
             objective: Objective | None = None) -> PlannerResult:
        """Pick the baseline's plan and evaluate it accurately.

        ``search_time_s`` is the measured wall time of :meth:`ranked_plans`;
        it is reported, never used to stop the search.
        """
        objective = objective or Objective.max_throughput()
        clock = SearchClock()
        ranked = self.ranked_plans(job, topology, objective)
        search_time = clock.elapsed_s()

        oom_plans = 0
        chosen: ParallelizationPlan | None = None
        chosen_eval: PlanEvaluation | None = None
        for candidate in ranked:
            evaluation = self.simulator.evaluate(candidate.plan)
            if not evaluation.is_valid:
                oom_plans += 1
                continue
            if not objective.constraint.satisfied_by(
                    evaluation, total_gpus=candidate.plan.total_gpus):
                continue
            chosen, chosen_eval = candidate.plan, evaluation
            break

        return PlannerResult(
            plan=chosen,
            evaluation=chosen_eval,
            search_time_s=search_time,
            planner_name=self.name,
            candidates_evaluated=len(ranked),
            oom_plans_generated=oom_plans,
        )

    # -- shared enumeration helpers ----------------------------------------------------

    def _sort_candidates(self, candidates: list[CandidatePlan],
                         objective: Objective) -> list[CandidatePlan]:
        """Rank candidates by the baseline's own estimate of the objective."""
        if objective.goal is OptimizationGoal.MIN_COST:
            def key(c: CandidatePlan) -> float:
                if c.estimated_cost_usd is not None:
                    return c.estimated_cost_usd
                return c.estimated_iteration_time_s
        else:
            def key(c: CandidatePlan) -> float:
                return c.estimated_iteration_time_s
        ranked = sorted(candidates, key=key)
        return ranked[:self.limits.max_ranked]

    def _estimate_cost(self, plan: ParallelizationPlan,
                       estimated_time_s: float) -> float:
        """Cost estimate used only when a baseline is asked to rank by cost."""
        gpu_counts = plan.resource_allocation().gpus_by_type()
        return self.env.prices.compute_cost(gpu_counts, estimated_time_s)

    def candidate_from_plan(self, plan: ParallelizationPlan,
                            objective: Objective) -> CandidatePlan:
        """Wrap a plan with this baseline's estimates."""
        estimated_time = self.estimator.estimate_iteration_time(plan)
        memory = self.estimator.estimate_peak_memory(plan)
        cost = None
        if objective.goal is OptimizationGoal.MIN_COST or \
                objective.constraint.max_cost_per_iteration_usd is not None:
            cost = self._estimate_cost(plan, estimated_time)
        return CandidatePlan(plan=plan,
                             estimated_iteration_time_s=estimated_time,
                             estimated_peak_memory_bytes=memory,
                             estimated_cost_usd=cost)

    # .. uniform plan enumeration ..........................................................

    def usable_node_types(self, topology: ClusterTopology) -> list[str]:
        """Node types this baseline will consider on the given topology.

        Heterogeneity-aware baselines use every type; homogeneous baselines
        restrict themselves to the fastest GPU type present (the paper gives
        them the A100 pool in mixed clusters).
        """
        node_types = topology.node_types()
        if self.supports_heterogeneous or len(node_types) <= 1:
            return node_types
        def peak(node_type: str) -> float:
            return get_node_type(node_type).gpu.peak_tflops
        best = max(node_types, key=peak)
        return [best]

    def usable_zones(self, topology: ClusterTopology) -> list[str]:
        """Zones this baseline will place workers in."""
        zones = topology.zones
        if self.supports_multizone or len(zones) <= 1:
            return zones
        # Single-zone planners use the zone with the most GPUs.
        return [max(zones, key=topology.gpu_count)]

    def pipeline_candidates(self, job: TrainingJobSpec,
                            total_nodes: int) -> list[int]:
        """Pipeline depths a baseline explores."""
        limit = min(job.model.num_layers, max(1, total_nodes),
                    self.limits.max_pipeline_parallel)
        return list(range(1, limit + 1))

    def microbatch_candidates(self, job: TrainingJobSpec) -> list[int]:
        """Microbatch sizes a baseline explores."""
        return job.valid_microbatch_sizes(max_mbs=self.limits.max_microbatch_size)

    def enumerate_uniform_plans(self, job: TrainingJobSpec,
                                topology: ClusterTopology,
                                *,
                                tensor_parallel_degrees: list[int] | None = None,
                                allow_mixed_types: bool = False,
                                ) -> list[ParallelizationPlan]:
        """All uniform (P, TP, DP, mbs) plans that fit on the fixed topology,
        in (P, TP, mbs, DP) order, up to ``limits.max_candidates`` of them.

        ``allow_mixed_types`` lets replicas spill onto slower GPU pools once
        the fastest pool is exhausted (how AMP/Metis/FlashFlex use mixed
        clusters while keeping uniform parallelism degrees).
        """
        node_types = self.usable_node_types(topology)
        zones = self.usable_zones(topology)
        if not node_types or not zones:
            return []

        pools = self._node_pools(topology, node_types, zones)
        total_nodes = sum(count for _, _, count in pools)
        if total_nodes == 0:
            return []
        max_gpus_per_node = max(get_node_type(t).gpus_per_node
                                for _, t, _ in pools)

        if tensor_parallel_degrees is None:
            tensor_parallel_degrees = [d for d in (1, 2, 4, 8)
                                       if d <= max_gpus_per_node]

        plans: list[ParallelizationPlan] = []
        for pp in self.pipeline_candidates(job, total_nodes):
            if pp > job.model.num_layers:
                continue
            partitions = uniform_partition(job.model, pp)
            for tp in tensor_parallel_degrees:
                for mbs in self.microbatch_candidates(job):
                    max_dp = self._max_uniform_dp(pools, tp, pp)
                    for dp in self._dp_candidates(job, mbs, max_dp):
                        replica_sets = self._place_uniform(
                            pools, tp, pp, dp, allow_mixed_types)
                        if replica_sets is None:
                            continue
                        stages = [StageConfig(partition=partitions[i],
                                              replicas=replica_sets[i])
                                  for i in range(pp)]
                        try:
                            plans.append(ParallelizationPlan(
                                job=job, stages=stages, microbatch_size=mbs))
                        except ValueError:
                            continue
                        if len(plans) >= self.limits.max_candidates:
                            return plans
        return plans

    # -- placement internals ---------------------------------------------------------------

    @staticmethod
    def _node_pools(topology: ClusterTopology, node_types: list[str],
                    zones: list[str]) -> list[tuple[str, str, int]]:
        """(zone, node_type, count) pools ordered fastest GPU first."""
        pools = []
        for zone in zones:
            for node_type in node_types:
                count = topology.node_count(zone, node_type)
                if count > 0:
                    pools.append((zone, node_type, count))
        pools.sort(key=lambda p: -get_node_type(p[1]).gpu.peak_tflops)
        return pools

    @staticmethod
    def _max_uniform_dp(pools: list[tuple[str, str, int]], tp: int,
                        pp: int) -> int:
        slots = 0
        for _, node_type, count in pools:
            per_node = get_node_type(node_type).gpus_per_node
            if tp > per_node:
                continue
            slots += count * (per_node // tp)
        return slots // pp if pp > 0 else 0

    @staticmethod
    def _dp_candidates(job: TrainingJobSpec, mbs: int, max_dp: int) -> list[int]:
        candidates = []
        d = 1
        while d <= max_dp:
            if (job.global_batch_size % d == 0
                    and (job.global_batch_size // d) % mbs == 0):
                candidates.append(d)
            d *= 2
        return candidates

    @staticmethod
    def _place_uniform(pools: list[tuple[str, str, int]], tp: int, pp: int,
                       dp: int, allow_mixed_types: bool,
                       ) -> list[list[StageReplica]] | None:
        """Pack P*D replicas of TP GPUs each onto the pools, stage by stage."""
        remaining = {(zone, node_type): count for zone, node_type, count in pools
                     if get_node_type(node_type).gpus_per_node >= tp}
        if not remaining:
            return None
        order = [(zone, node_type) for zone, node_type, _ in pools
                 if (zone, node_type) in remaining]
        if not allow_mixed_types:
            # Keep only pools of the first (fastest) node type.
            first_type = order[0][1]
            order = [key for key in order if key[1] == first_type]

        open_slots: dict[tuple[str, str], int] = {}
        stages: list[list[StageReplica]] = []
        for _ in range(pp):
            replicas: list[StageReplica] = []
            for _ in range(dp):
                placed = False
                for key in order:
                    zone, node_type = key
                    if open_slots.get(key, 0) >= tp:
                        open_slots[key] -= tp
                        replicas.append(StageReplica(node_type=node_type,
                                                     tensor_parallel=tp,
                                                     zone=zone))
                        placed = True
                        break
                    if remaining.get(key, 0) > 0:
                        remaining[key] -= 1
                        open_slots[key] = open_slots.get(key, 0) \
                            + get_node_type(node_type).gpus_per_node - tp
                        replicas.append(StageReplica(node_type=node_type,
                                                     tensor_parallel=tp,
                                                     zone=zone))
                        placed = True
                        break
                if not placed:
                    return None
            stages.append(replicas)
        return stages


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BASELINE_REGISTRY: dict[str, type] = {}


def register_baseline(cls: type) -> type:
    """Class decorator registering a baseline under its ``name``."""
    _BASELINE_REGISTRY[cls.name] = cls
    return cls


def get_baseline(name: str, env: SimulationEnvironment,
                 **kwargs) -> BaselinePlanner:
    """Instantiate a baseline planner by its paper name."""
    try:
        cls = _BASELINE_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_BASELINE_REGISTRY))
        raise KeyError(f"unknown baseline {name!r}; known: {known}") from None
    return cls(env, **kwargs)


def list_baselines() -> list[str]:
    """Names of all registered baselines, sorted."""
    return sorted(_BASELINE_REGISTRY)
