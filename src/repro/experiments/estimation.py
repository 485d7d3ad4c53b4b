"""Shared helpers for the estimator-accuracy experiments (Figures 3, 5, 6).

These experiments compare, for a set of deployed configurations, each
planner's *estimate* of peak memory / iteration time against the "real"
value.  Real hardware is replaced by the fine-grained reference simulator,
so the reported errors measure how much each estimator's
simplifications (ignored memory sources, uniform stages, no stragglers,
theoretical FLOPS, flat bandwidth) cost it relative to a detailed execution
model -- which is exactly the comparison the paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import get_baseline
from repro.baselines.base import BaselineSearchLimits
from repro.core.plan import ParallelizationPlan
from repro.core.simulator import (
    MemoryEstimator,
    ReferenceSimulator,
    SimulationEnvironment,
    TimingEstimator,
)
from repro.hardware.topology import ClusterTopology
from repro.models.spec import TrainingJobSpec


#: Planners whose estimators are compared in Figures 3, 5 and 6.
ESTIMATION_PLANNERS = ("piper", "varuna", "aceso", "metis", "flashflex", "sailor")


@dataclass
class EstimationSample:
    """One configuration plus its reference ("real") measurements."""

    label: str
    plan: ParallelizationPlan
    real_iteration_time_s: float
    real_peak_memory_bytes: float


def build_samples(env: SimulationEnvironment, job: TrainingJobSpec,
                  topology: ClusterTopology, *, mixed_types: bool,
                  max_samples: int = 12, seed: int = 0) -> list[EstimationSample]:
    """Valid deployed configurations on a topology, with reference numbers.

    With ``mixed_types`` the sampled configurations are required to actually
    span more than one GPU type (when the topology offers more than one), so
    the heterogeneity-related estimation errors are exercised.
    """
    limits = BaselineSearchLimits(max_candidates=512)
    enumerator = get_baseline("amp", env, limits=limits)
    plans = enumerator.enumerate_uniform_plans(job, topology,
                                               allow_mixed_types=mixed_types)
    memory = MemoryEstimator(env)
    reference = ReferenceSimulator(env, seed=seed)
    multiple_types = len(topology.gpu_types()) > 1

    samples: list[EstimationSample] = []
    seen: set[tuple[int, int, int, int]] = set()
    for plan in plans:
        key = (plan.pipeline_parallel, plan.data_parallel,
               plan.stages[0].replicas[0].tensor_parallel, plan.microbatch_size)
        if key in seen:
            continue
        if mixed_types and multiple_types and len(plan.gpus_by_type()) < 2:
            continue
        if not memory.plan_fits(plan):
            continue
        seen.add(key)
        measured = reference.measure(plan)
        samples.append(EstimationSample(
            label=f"pp{key[0]}-dp{key[1]}-tp{key[2]}-mbs{key[3]}",
            plan=plan,
            real_iteration_time_s=measured.iteration_time_s,
            real_peak_memory_bytes=max(measured.peak_memory_bytes_per_stage)))
        if len(samples) >= max_samples:
            break
    return samples


def estimate_time(planner: str, env: SimulationEnvironment,
                  plan: ParallelizationPlan) -> float:
    """A planner's iteration-time estimate for a deployed plan."""
    if planner == "sailor":
        return TimingEstimator(env).iteration_time(plan)
    baseline = get_baseline(planner, env)
    return baseline.estimator.estimate_iteration_time(plan)


def estimate_memory(planner: str, env: SimulationEnvironment,
                    plan: ParallelizationPlan) -> float | None:
    """A planner's peak-memory estimate (``None`` when it has no memory model)."""
    if planner == "sailor":
        return max(MemoryEstimator(env).stage_peaks(plan))
    baseline = get_baseline(planner, env)
    peaks = baseline.estimator.estimate_peak_memory(plan)
    if peaks is None:
        return None
    return max(peaks)


def relative_error(estimate: float, real: float) -> float:
    """Absolute relative error in percent."""
    if real <= 0:
        raise ValueError("real value must be positive")
    return abs(estimate - real) / real * 100.0


def error_summary(errors: list[float]) -> dict[str, float]:
    """Mean / median / p25 / p75 / max of a list of errors (percent)."""
    if not errors:
        return {"mean": float("nan"), "median": float("nan"),
                "p25": float("nan"), "p75": float("nan"), "max": float("nan")}
    ordered = sorted(errors)

    def percentile(fraction: float) -> float:
        index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
        return ordered[index]

    return {
        "mean": sum(ordered) / len(ordered),
        "median": percentile(0.5),
        "p25": percentile(0.25),
        "p75": percentile(0.75),
        "max": ordered[-1],
    }
