"""The Sailor simulator facade.

Combines memory, timing and cost estimation into a single
:meth:`SailorSimulator.evaluate` call that the planner (and the baselines,
when asked to use Sailor's estimator) invokes for every candidate plan.

Plans are canonicalized into flat NumPy arrays by a shared
:class:`~repro.core.simulator.eval_context.EvaluationContext` and evaluated
in one fused pass, with full ``PlanEvaluation`` results cached per plan
signature.  The equivalence test suite checks every result bit-for-bit
against a scalar reference built from the per-replica estimators
(:class:`MemoryEstimator`, :class:`TimingEstimator`,
:class:`CostEstimator`).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.plan import ParallelizationPlan, PlanEvaluation
from repro.core.simulator.cost import CostEstimator
from repro.core.simulator.environment import SimulationEnvironment
from repro.core.simulator.eval_context import EvaluationContext, plan_signature


class SailorSimulator:
    """Estimates memory footprint, iteration time and cost of a plan."""

    def __init__(self, env: SimulationEnvironment) -> None:
        self.env = env
        self.cost = CostEstimator(env)
        self.context = EvaluationContext(env)
        self._eval_cache: dict[tuple, PlanEvaluation] = {}
        self.eval_cache_hits = 0
        self.eval_cache_misses = 0

    def evaluate(self, plan: ParallelizationPlan) -> PlanEvaluation:
        """Evaluate a plan: validity (OOM), iteration time, and cost."""
        key = plan_signature(plan)
        cached = self._eval_cache.get(key)
        if cached is not None:
            self.eval_cache_hits += 1
            return self._copy(cached)
        self.eval_cache_misses += 1

        arrays = self.context.plan_arrays(plan)
        oom_stages = list(arrays.oom_stages)
        timing = self.context.timing_breakdown(plan)
        iteration_time = timing.iteration_time_s
        cost = self.cost.breakdown(plan, iteration_time)
        evaluation = PlanEvaluation(
            iteration_time_s=iteration_time,
            throughput_iters_per_s=(1.0 / iteration_time if iteration_time > 0 else 0.0),
            cost_per_iteration_usd=cost.total_usd,
            peak_memory_bytes_per_stage=arrays.stage_peaks.tolist(),
            is_valid=not oom_stages,
            oom_stages=oom_stages,
            compute_cost_usd=cost.compute_usd,
            communication_cost_usd=cost.communication_usd,
            pipeline_time_s=timing.pipeline_time_s,
            sync_time_s=timing.sync_time_s,
            update_time_s=timing.update_time_s,
            straggler_stage=timing.straggler_stage,
        )
        self._eval_cache[key] = evaluation
        return self._copy(evaluation)

    def iteration_time_floor(self, plan: ParallelizationPlan) -> float:
        """Conservative lower bound on :attr:`PlanEvaluation.iteration_time_s`.

        Exactly the pipeline + optimizer-update terms of the full estimate
        with the gradient-sync term dropped; since sync time is non-negative
        and IEEE-754 addition is monotone, the floor never exceeds the full
        estimate (bitwise).
        """
        return self.context.plan_arrays(plan).iteration_time_floor_s

    def cost_floor(self, plan: ParallelizationPlan) -> float:
        """Conservative lower bound on :attr:`PlanEvaluation.cost_per_iteration_usd`.

        ``C_iter = C_comp(T_iter) + C_egress`` where ``C_comp`` is linear in
        the iteration time with non-negative prices and ``C_egress`` does
        not depend on the time at all.  Evaluating the compute term at
        :meth:`iteration_time_floor` therefore never exceeds the full
        estimate (IEEE-754 multiply/add are monotone), and the egress term
        is carried *exactly*, so a ``cost_floor`` above a budget proves the
        budget violated just as the full evaluation would find it.
        """
        arrays = self.context.plan_arrays(plan)
        if arrays.comm_usd is None:
            arrays.comm_usd = self.cost.communication_cost(plan)[0]
        gpu_counts = plan.resource_allocation().gpus_by_type()
        return (self.env.prices.compute_cost(gpu_counts,
                                             arrays.iteration_time_floor_s)
                + arrays.comm_usd)

    def oom_stages(self, plan: ParallelizationPlan) -> list[int]:
        """Stage indices with at least one worker that does not fit.

        Identical to the OOM list :meth:`evaluate` reports.
        """
        return list(self.context.plan_arrays(plan).oom_stages)

    @staticmethod
    def _copy(evaluation: PlanEvaluation) -> PlanEvaluation:
        """Fresh evaluation so cached list fields never alias across callers."""
        return replace(
            evaluation,
            peak_memory_bytes_per_stage=list(evaluation.peak_memory_bytes_per_stage),
            oom_stages=list(evaluation.oom_stages))
