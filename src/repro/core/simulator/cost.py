"""Monetary cost per iteration.

Follows the paper's cost model (section 4.3):

``C_iter = C_comp + C_comm``

* ``C_comp = sum_i N_i * price_per_gpu_i * T_iter`` over GPU types ``i``,
  charging for every GPU of every *allocated node* (you pay for the node
  even if a plan leaves some of its GPUs idle), and
* ``C_comm = sum_{i,j} bytes_ij * price_per_byte_ij`` over zone pairs,
  covering pipeline-parallel activations/gradients and data-parallel
  all-reduce traffic that crosses zone or region boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.plan import ParallelizationPlan, StageConfig
from repro.core.simulator.environment import SimulationEnvironment
from repro.hardware.network import LinkClass


@dataclass
class CostBreakdown:
    """USD per iteration, split into compute and communication."""

    compute_usd: float
    communication_usd: float
    egress_bytes_by_link: dict[LinkClass, float] = field(default_factory=dict)

    @property
    def total_usd(self) -> float:
        """Total cost per iteration."""
        return self.compute_usd + self.communication_usd


class CostEstimator:
    """Estimates USD per iteration for a plan."""

    def __init__(self, env: SimulationEnvironment) -> None:
        self.env = env

    # -- compute ----------------------------------------------------------------

    def compute_cost(self, plan: ParallelizationPlan,
                     iteration_time_s: float) -> float:
        """Cost of the allocated nodes for the duration of one iteration."""
        if iteration_time_s < 0:
            raise ValueError("iteration_time_s must be non-negative")
        allocation = plan.resource_allocation()
        gpu_counts = allocation.gpus_by_type()
        return self.env.prices.compute_cost(gpu_counts, iteration_time_s)

    # -- communication -----------------------------------------------------------

    def cross_zone_bytes(self, plan: ParallelizationPlan) -> dict[LinkClass, float]:
        """Bytes per iteration that leave an availability zone, by link class."""
        out: dict[LinkClass, float] = {
            LinkClass.INTER_ZONE: 0.0, LinkClass.INTER_REGION: 0.0}

        # A plan confined to one zone generates no cross-zone traffic at
        # all; skip the per-pipeline boundary walk (the common case on the
        # planner's evaluation hot path).
        if len(plan.zones()) == 1:
            return out

        # Pipeline-parallel traffic: activations forward and gradients
        # backward cross every stage boundary once per microbatch.
        num_microbatches = plan.num_microbatches
        for d in range(plan.data_parallel):
            chain = plan.pipeline(d)
            for i in range(len(chain) - 1):
                sender, receiver = chain[i], chain[i + 1]
                link_class = self.env.link_class(sender.zone, receiver.zone)
                if not link_class.is_cross_zone:
                    continue
                profile = self.env.job_profile(sender)
                boundary = profile.boundary_bytes[plan.microbatch_size]
                out[link_class] += 2.0 * boundary * num_microbatches

        # Data-parallel traffic: the leader ring of the hierarchical
        # all-reduce carries ~2 * (k-1)/k * message bytes across each
        # adjacent zone pair.
        for stage in plan.stages:
            out_stage = self._stage_dp_cross_zone_bytes(plan, stage)
            for link_class, nbytes in out_stage.items():
                out[link_class] = out.get(link_class, 0.0) + nbytes
        return out

    def _stage_dp_cross_zone_bytes(self, plan: ParallelizationPlan,
                                   stage: StageConfig) -> dict[LinkClass, float]:
        zones = stage.zones
        if stage.data_parallel == 1 or len(zones) == 1:
            return {}
        model = plan.job.model
        stage_params = stage.partition.stage_params(model)
        message = max(stage_params / r.tensor_parallel * 2.0
                      for r in stage.replicas)
        k = len(zones)
        per_link = 2.0 * (k - 1) / k * message
        out: dict[LinkClass, float] = {}
        ring = zones + [zones[0]]
        for a, b in zip(ring[:-1], ring[1:]):
            if a == b:
                continue
            link_class = self.env.link_class(a, b)
            if link_class.is_cross_zone:
                out[link_class] = out.get(link_class, 0.0) + per_link
        return out

    def communication_cost(self, plan: ParallelizationPlan) -> tuple[float, dict[LinkClass, float]]:
        """Egress USD per iteration and the underlying byte counts."""
        bytes_by_link = self.cross_zone_bytes(plan)
        return self.env.prices.egress_cost(bytes_by_link), bytes_by_link

    # -- combined ------------------------------------------------------------------

    def breakdown(self, plan: ParallelizationPlan,
                  iteration_time_s: float) -> CostBreakdown:
        """Full cost breakdown of one iteration."""
        comm_usd, bytes_by_link = self.communication_cost(plan)
        return CostBreakdown(
            compute_usd=self.compute_cost(plan, iteration_time_s),
            communication_usd=comm_usd,
            egress_bytes_by_link=bytes_by_link,
        )
