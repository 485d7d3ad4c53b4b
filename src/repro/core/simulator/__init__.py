"""Sailor simulator: memory footprint, iteration time and cost estimation.

The planner calls the simulator to evaluate candidate plans without
deploying them (paper section 4.3).  The package splits the estimation into:

* :mod:`repro.core.simulator.environment` -- the bundle of profiles, cloud
  layout and prices every estimator needs.
* :mod:`repro.core.simulator.memory` -- per-worker peak memory footprint and
  OOM detection.
* :mod:`repro.core.simulator.timing` -- 1F1B iteration-time estimation with
  straggler effects.
* :mod:`repro.core.simulator.cost` -- USD per iteration (compute + egress).
* :mod:`repro.core.simulator.eval_context` -- the vectorized evaluation
  layer: canonical per-stage/per-replica NumPy arrays plus fused kernels.
* :mod:`repro.core.simulator.evaluator` -- the :class:`SailorSimulator`
  facade combining the estimators.
* :mod:`repro.core.simulator.reference` -- a fine-grained event-driven
  reference simulator standing in for "real hardware" measurements.

One evaluation path, one test-side reference
--------------------------------------------
An :class:`~repro.core.simulator.eval_context.EvaluationContext` -- the
evaluation-side sibling of the planner's
:class:`~repro.core.search_cache.PlannerSearchContext` -- canonicalizes
each plan into flat per-stage/per-replica arrays (layer counts, profiled
timings, TP degrees, activation/boundary bytes, device capacities) and
computes compute, update, p2p, memory peaks, OOM and the 1F1B closed form
in one fused NumPy pass.  Profile lookups are cached per replica class,
link transfers per class pair, gradient sync per stage shape, and whole
plan arrays / ``PlanEvaluation`` results per plan signature, so repeated
and structurally-similar candidates cost almost nothing.

The per-replica walks over :class:`MemoryEstimator` /
:class:`TimingEstimator` / :class:`CostEstimator` (which the baselines
use directly) are the reference: the equivalence test suite rebuilds a
scalar evaluation from them and asserts the fused kernels reproduce it
bit-for-bit (the kernels replicate the scalar floating-point operation
order, including explicit left-to-right reductions where ``np.sum`` would
reassociate).

:class:`SailorSimulator` additionally exposes conservative floors on a
plan's iteration time and cost (:meth:`SailorSimulator.iteration_time_floor`,
:meth:`SailorSimulator.cost_floor`) and its OOM stage list
(:meth:`SailorSimulator.oom_stages`), each read from the same plan arrays
as :meth:`SailorSimulator.evaluate`.
"""

from repro.core.simulator.environment import SimulationEnvironment, build_environment
from repro.core.simulator.eval_context import (
    EvaluationContext,
    PlanArrays,
    plan_signature,
)
from repro.core.simulator.memory import MemoryEstimator, MemoryBreakdown
from repro.core.simulator.timing import TimingEstimator, TimingBreakdown
from repro.core.simulator.cost import CostEstimator, CostBreakdown
from repro.core.simulator.evaluator import SailorSimulator
from repro.core.simulator.reference import ReferenceSimulator

__all__ = [
    "SimulationEnvironment",
    "build_environment",
    "EvaluationContext",
    "PlanArrays",
    "plan_signature",
    "MemoryEstimator",
    "MemoryBreakdown",
    "TimingEstimator",
    "TimingBreakdown",
    "CostEstimator",
    "CostBreakdown",
    "SailorSimulator",
    "ReferenceSimulator",
]
