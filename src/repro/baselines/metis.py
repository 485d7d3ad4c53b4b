"""Metis (Um et al., USENIX ATC 2024).

Automatic planner for heterogeneous GPU clusters.  Characteristics
reproduced from the paper's comparison:

* exhaustive exploration of *device groups* (how GPUs of each type are
  grouped into pipeline stages) combined with load-balanced layer
  partitioning, which makes the search extremely slow -- hours for a
  16-GPU heterogeneous cluster; the paper therefore caps it at 300 s and
  takes the best plan found so far.  Here the cap is a count, not a
  clock: the search stops after ``limits.max_candidates`` feasible
  candidates, so the plan it returns does not depend on the host's speed;
* reasonably accurate compute/memory modelling, but it mis-models
  heterogeneous network bandwidth (flat-bandwidth assumption), giving ~28%
  iteration-time error in Figure 6;
* requires the global batch size to divide evenly by the total number of
  GPUs, so it fails to produce plans for some cluster sizes (Figure 10);
* still generates OOM plans for large models (Figure 9).
"""

from __future__ import annotations

import itertools

from repro.baselines.base import BaselinePlanner, CandidatePlan, register_baseline
from repro.baselines.estimators import BaselineEstimator, EstimatorFlags
from repro.core.objectives import Objective
from repro.core.plan import ParallelizationPlan, StageConfig, StageReplica
from repro.hardware.nodes import get_node_type
from repro.hardware.topology import ClusterTopology
from repro.models.partition import balanced_partition, uniform_partition
from repro.models.spec import TrainingJobSpec


@register_baseline
class MetisPlanner(BaselinePlanner):
    """Exhaustive device-group search for heterogeneous clusters."""

    name = "metis"
    parallelism = "3D"
    recommends_allocation = False
    supports_heterogeneous = True
    supports_multizone = False

    def __init__(self, env, limits=None,
                 max_permutation_length: int = 10) -> None:
        super().__init__(env, limits)
        #: Mirrors the max_permutation_length knob of the Metis paper.
        self.max_permutation_length = max_permutation_length

    def build_estimator(self) -> BaselineEstimator:
        return BaselineEstimator(self.env, EstimatorFlags(
            models_memory=True,
            include_optimizer_state=True,
            include_activations=True,
            include_framework_overhead=False,
            uniform_stage_memory=False,
            per_stage_in_flight=False,
            models_stragglers=True,
            uses_theoretical_flops=False,
            models_p2p_communication=True,
            models_dp_sync=True,
            message_size_aware_bandwidth=False,
        ))

    # -- search ------------------------------------------------------------------

    def ranked_plans(self, job: TrainingJobSpec, topology: ClusterTopology,
                     objective: Objective) -> list[CandidatePlan]:
        zones = self.usable_zones(topology)
        node_types = self.usable_node_types(topology)
        pools = self._node_pools(topology, node_types, zones)
        total_gpus = sum(count * get_node_type(t).gpus_per_node
                         for _, t, count in pools)
        if total_gpus == 0:
            return []

        candidates: list[CandidatePlan] = []
        # Metis exhaustively explores orderings of GPU "device groups" along
        # the pipeline and, for each, load-balanced layer partitions within a
        # configured variance.  We walk the same space: permutations of
        # node-type orderings x pipeline depth x TP degree x microbatch size
        # x per-stage weight perturbations, until ``max_candidates`` plans
        # fit.  The weight perturbations are what blows up the search at
        # larger pipeline depths, matching the hours-long searches reported
        # in Table 1.
        type_orderings = list(itertools.permutations(node_types))
        for pp in self.pipeline_candidates(job, sum(c for _, _, c in pools)):
            for ordering in type_orderings:
                for tp in (1, 2, 4, 8):
                    for mbs in self.microbatch_candidates(job):
                        for weights in self._weight_variants(pp):
                            plan = self._build_plan(job, topology, pools, ordering,
                                                    pp, tp, mbs, total_gpus,
                                                    weight_scale=weights)
                            if plan is None:
                                continue
                            if not self.estimator.plan_fits(plan):
                                continue
                            candidates.append(
                                self.candidate_from_plan(plan, objective))
                            if len(candidates) >= self.limits.max_candidates:
                                return self._sort_candidates(candidates,
                                                             objective)
        return self._sort_candidates(candidates, objective)

    def _weight_variants(self, pp: int) -> list[tuple[float, ...] | None]:
        """Per-stage weight perturbations (the device-group variance search)."""
        variance = 0.5
        length = min(pp, self.max_permutation_length, 6)
        variants: list[tuple[float, ...] | None] = [None]
        for pattern in itertools.product((1.0, 1.0 + variance), repeat=length):
            scale = tuple(pattern[i % length] for i in range(pp))
            variants.append(scale)
        return variants

    # -- plan construction ---------------------------------------------------------

    def _build_plan(self, job: TrainingJobSpec, topology: ClusterTopology,
                    pools: list[tuple[str, str, int]],
                    ordering: tuple[str, ...], pp: int, tp: int, mbs: int,
                    total_gpus: int,
                    weight_scale: tuple[float, ...] | None = None,
                    ) -> ParallelizationPlan | None:
        # Metis quirk: the global batch must divide by the total GPU count.
        if job.global_batch_size % max(1, total_gpus) != 0:
            return None

        ordered_pools = sorted(
            pools, key=lambda p: ordering.index(p[1]) if p[1] in ordering else 99)
        remaining = {(z, t): c for z, t, c in ordered_pools
                     if get_node_type(t).gpus_per_node >= tp}
        if not remaining:
            return None
        order = [(z, t) for z, t, _ in ordered_pools if (z, t) in remaining]

        max_dp = sum(c * (get_node_type(t).gpus_per_node // tp)
                     for (z, t), c in remaining.items()) // pp
        dp = 0
        for d in self._dp_candidates(job, mbs, max_dp):
            dp = max(dp, d)
        if dp == 0:
            return None

        # Load-balanced layer partitioning: weight stages by the aggregate
        # profiled speed of the GPU type they will (mostly) land on.
        stage_weights = self._stage_weights(job, order, pp, tp, mbs, dp)
        if stage_weights is not None and weight_scale is not None:
            stage_weights = [w * s for w, s in zip(stage_weights, weight_scale)]
        try:
            if stage_weights is None:
                partitions = uniform_partition(job.model, pp)
            else:
                partitions = balanced_partition(job.model, pp, stage_weights)
        except ValueError:
            return None

        replica_sets = self._place_uniform(ordered_pools, tp, pp, dp,
                                           allow_mixed_types=True)
        if replica_sets is None:
            return None
        stages = [StageConfig(partition=partitions[i], replicas=replica_sets[i])
                  for i in range(pp)]
        try:
            return ParallelizationPlan(job=job, stages=stages, microbatch_size=mbs)
        except ValueError:
            return None

    def _stage_weights(self, job: TrainingJobSpec,
                       order: list[tuple[str, str]], pp: int, tp: int,
                       mbs: int, dp: int) -> list[float] | None:
        """Relative speed of the GPU type each stage is expected to use."""
        if not order:
            return None
        speeds = []
        for i in range(pp):
            zone, node_type = order[min(i * len(order) // pp, len(order) - 1)]
            gpu = get_node_type(node_type).gpu
            try:
                profile = self.env.profiles.job_profile(gpu.name)
                layer = profile.layer(mbs, tp)
                speeds.append(1.0 / max(layer.fwd_bwd_s, 1e-9))
            except KeyError:
                speeds.append(gpu.peak_tflops)
        return speeds
