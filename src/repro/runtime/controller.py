"""The training controller.

The controller is the brains of the Sailor framework (section 4.4): when
resource availability changes it re-invokes the planner and, if it switches
plans, reconfigures the job kill-free.  The job is simulated, so there are
no per-worker objects to clean up: each reconfiguration is booked as the
section 5.5 pause of
:class:`~repro.runtime.reconfiguration.ReconfigurationModel`, with the
model's constant planning time, so a replay is a pure function of its
trace.  The measured planner wall time is only reported
(``ReplanDecision.replan_latency_s``).

Under churn (see :mod:`repro.runtime.faults`) the controller applies a
:class:`ReplanPolicy` with four graceful-degradation tiers, tried in order
of increasing disruption:

1. ``CONTINUE`` -- the incumbent plan still fits and no switch is
   warranted: the change came within the debounce window, the replan
   found nothing better, or the replan was degraded (its search ran out
   of the planner's budget, so its ``PlannerResult.complete`` is False).
2. ``SHRINK_DP`` -- the incumbent no longer fits but dropping whole
   data-parallel pipeline columns in place does: a cheap reconfigure with
   no planner invocation.
3. ``FULL_REPLAN`` -- a fresh solve, paying the
   :class:`~repro.runtime.reconfiguration.ReconfigurationModel` cost.
   Replans are *incremental*: every solve runs inside one long-lived
   :class:`~repro.core.search_cache.PlannerSearchContext`, so successive
   pools reuse stage tables, master combos, floor tables and whole DP
   solves (the cross-time analogue of the planner's cross-candidate
   sharing).
4. ``PARK`` -- nothing fits: checkpoint-park the job (keep its state)
   and retry with exponential backoff (:data:`RETRY_BACKOFF_S`, growing
   by :data:`RETRY_BACKOFF_FACTOR` up to :data:`MAX_RETRY_BACKOFF_S`) as
   capacity returns.

A bounded replan is configured on the planner, where every other search
bound lives: pass ``SailorPlanner(env, PlannerConfig(max_search_nodes=N))``
as ``planner``.  The tick budget cuts the search at the same point on any
machine, so a replay under it stays a pure function of its trace.

Every decision is recorded as a :class:`ReplanDecision` and every applied
reconfiguration as a :class:`ReconfigurationEvent` carrying its trigger
cause and tier for observability.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.core.objectives import Objective
from repro.core.plan import (
    ParallelizationPlan,
    PlanEvaluation,
    PlannerResult,
    ResourceAllocation,
    SearchStats,
)
from repro.core.planner import SailorPlanner
from repro.core.search_cache import PlannerSearchContext
from repro.core.simulator import SimulationEnvironment
from repro.hardware.nodes import get_node_type
from repro.hardware.topology import ClusterTopology
from repro.models.spec import TrainingJobSpec
from repro.runtime.reconfiguration import ReconfigurationBreakdown, ReconfigurationModel

#: Backoff schedule for retrying a transiently-infeasible pool: the first
#: retry waits ``RETRY_BACKOFF_S``, each further one ``RETRY_BACKOFF_FACTOR``
#: times longer, capped at ``MAX_RETRY_BACKOFF_S``.
RETRY_BACKOFF_S = 60.0
RETRY_BACKOFF_FACTOR = 2.0
MAX_RETRY_BACKOFF_S = 900.0


class DegradationTier(enum.Enum):
    """How disruptive the controller's reaction to a change was."""

    CONTINUE = "continue"
    SHRINK_DP = "shrink_dp"
    FULL_REPLAN = "full_replan"
    PARK = "park"


@dataclass(frozen=True)
class ReplanPolicy:
    """Knobs governing when and how the controller replans.

    The defaults replan on every change.  How long one replan may search
    is the planner's bound (``PlannerConfig.max_search_nodes``), not a
    policy knob.
    """

    #: Minimum seconds between *voluntary* replan attempts while the
    #: incumbent still fits (flap suppression).  0 disables.
    debounce_s: float = 0.0
    #: No effect (planning is always charged at the model's constant);
    #: perfbench/workloads.py still passes it.
    deterministic_timing: bool = False

    def __post_init__(self) -> None:
        # Written so that NaN fails it: a NaN debounce compares false
        # everywhere and would silently act as "off" instead of failing.
        if not (math.isfinite(self.debounce_s) and self.debounce_s >= 0):
            raise ValueError("debounce_s must be a finite number >= 0, got "
                             f"{self.debounce_s}")


@dataclass(frozen=True)
class ReplanDecision:
    """One controller reaction to an availability change (or retry tick)."""

    time_s: float
    trigger: str
    tier: DegradationTier
    action: str
    replan_latency_s: float = 0.0
    cache_hits: int = 0
    solve_memo_hits: int = 0
    #: The deciding ``PlannerResult``'s anytime fields (``True``/``0.0`` for
    #: a decision taken without a solve).  ``complete=False`` marks a
    #: degraded replan: the search ran out of its budget, on any path.
    complete: bool = True
    optimality_gap_bound: float = 0.0


@dataclass
class ReconfigurationEvent:
    """Record of one controller-driven reconfiguration."""

    time_s: float
    reason: str
    old_gpus: int
    new_gpus: int
    breakdown: ReconfigurationBreakdown
    planner_result: PlannerResult
    #: What provoked this reconfiguration (fault kind / "initial deployment").
    trigger: str = ""
    #: Degradation tier the controller resolved the change at.
    tier: DegradationTier = DegradationTier.FULL_REPLAN

    @property
    def total_s(self) -> float:
        """End-to-end latency of this reconfiguration."""
        return self.breakdown.total_s


@dataclass
class TrainingController:
    """Monitors availability and reconfigures the job."""

    env: SimulationEnvironment
    job: TrainingJobSpec
    objective: Objective = field(default_factory=Objective.max_throughput)
    planner: SailorPlanner | None = None
    reconfiguration: ReconfigurationModel = field(default_factory=ReconfigurationModel)
    policy: ReplanPolicy = field(default_factory=ReplanPolicy)

    current_plan: ParallelizationPlan | None = None
    events: list[ReconfigurationEvent] = field(default_factory=list)
    decisions: list[ReplanDecision] = field(default_factory=list)
    #: True once a deployment failed/was lost and the job is waiting for
    #: capacity (checkpoint-park).
    parked: bool = False
    #: Cumulative planner work across every replan this controller issued.
    search_stats: SearchStats = field(default_factory=SearchStats)

    def __post_init__(self) -> None:
        if self.planner is None:
            self.planner = SailorPlanner(self.env)
        self._search_context: PlannerSearchContext | None = None
        self._last_replan_check_s: float | None = None
        self._retry_at_s: float | None = None
        self._retry_backoff_s: float = RETRY_BACKOFF_S

    # -- planning ------------------------------------------------------------

    def replan(self, topology: ClusterTopology) -> PlannerResult:
        """Run the planner against the currently available topology.

        Every solve runs inside one long-lived search context, so stage
        tables, master combos, floor tables and whole DP solves survive
        across successive pools; the chosen plan is identical to a
        from-scratch solve on the same pool (the context is
        topology-independent).
        """
        if self._search_context is None:
            self._search_context = PlannerSearchContext(
                self.env, self.job, self.objective.goal)
        result = self.planner.plan(self.job, topology, self.objective,
                                   context=self._search_context)
        self.search_stats.merge(result.search_stats)
        return result

    # -- lifecycle -------------------------------------------------------------

    def start(self, topology: ClusterTopology, time_s: float = 0.0,
              ) -> ReconfigurationEvent | None:
        """Initial deployment; returns ``None`` when no plan is feasible."""
        return self._attempt_deploy(topology, time_s,
                                    cause="initial deployment")

    def handle_availability_change(self, topology: ClusterTopology,
                                   time_s: float,
                                   cause: str = "availability changed",
                                   ) -> ReconfigurationEvent | None:
        """React to an availability change; may keep the current plan.

        ``cause`` labels the trigger (e.g. a fault kind from
        :mod:`repro.runtime.faults`) on the resulting decision and event.
        Returns the reconfiguration event, or ``None`` when the change does
        not require any action (the incumbent is kept) or when no plan is
        feasible at all (the job parks).
        """
        if self.current_plan is None:
            return self._attempt_deploy(topology, time_s, cause)
        if self._plan_still_fits(topology):
            return self._maybe_improve(topology, time_s, cause)
        return self._handle_broken_plan(topology, time_s, cause)

    def maybe_retry(self, topology: ClusterTopology, time_s: float,
                    ) -> ReconfigurationEvent | None:
        """Retry a parked job once its backoff wait has passed."""
        if (self.current_plan is not None or self._retry_at_s is None
                or time_s < self._retry_at_s):
            return None
        self._retry_at_s = None
        return self._attempt_deploy(topology, time_s,
                                    cause="retry after backoff")

    @property
    def next_retry_at_s(self) -> float | None:
        """When a parked job will next retry deployment, if scheduled."""
        return self._retry_at_s

    # -- decision paths -----------------------------------------------------------

    def _attempt_deploy(self, topology: ClusterTopology, time_s: float,
                        cause: str) -> ReconfigurationEvent | None:
        """Deploy onto a pool with no incumbent (start, park-resume, retry)."""
        self._last_replan_check_s = time_s
        result = self.replan(topology)
        if not result.found:
            self._park(time_s, cause, result,
                       retry=topology.total_gpus() > 0)
            return None
        event = self._apply(result, time_s, reason=cause, trigger=cause,
                            tier=DegradationTier.FULL_REPLAN)
        self._decide(time_s, cause, DegradationTier.FULL_REPLAN, "deployed",
                     result=result)
        return event

    def _maybe_improve(self, topology: ClusterTopology, time_s: float,
                       cause: str) -> ReconfigurationEvent | None:
        """The incumbent still fits: consider a voluntary switch."""
        policy = self.policy
        if (policy.debounce_s > 0 and self._last_replan_check_s is not None
                and time_s - self._last_replan_check_s < policy.debounce_s):
            self._decide(time_s, cause, DegradationTier.CONTINUE, "debounced")
            return None
        return self._consider_switch(topology, time_s, cause,
                                     reason="better plan available")

    def handle_price_change(self, topology: ClusterTopology, time_s: float,
                            cause: str = "price_move",
                            ) -> ReconfigurationEvent | None:
        """React to a GPU pricing change (e.g. a ``price_move`` fault).

        Prices are baked into the search context's cost tables and the
        planner's caches and simulator, so both are rebuilt before
        replanning.  Debounce is bypassed: a price move invalidates
        the incumbent's *cost basis* even when the topology is completely
        unchanged.
        """
        self.invalidate_price_caches()
        if self.current_plan is None:
            return self._attempt_deploy(topology, time_s, cause)
        if not self._plan_still_fits(topology):
            return self._handle_broken_plan(topology, time_s, cause)
        return self._consider_switch(topology, time_s, cause,
                                     reason="price move")

    def invalidate_price_caches(self) -> None:
        """Drop every cache that has prices baked in.

        Callers that mutate ``env.prices`` in place (e.g. the churn
        replayer applying a ``price_move`` multiplier) must invalidate
        before the next replan, or the solve would price candidates with
        the stale tables.
        """
        self._search_context = None
        self.planner = SailorPlanner(self.env, config=self.planner.config)

    def _consider_switch(self, topology: ClusterTopology, time_s: float,
                         cause: str, reason: str,
                         ) -> ReconfigurationEvent | None:
        """Replan and switch if the result is complete and better.

        A *degraded* result (an incomplete anytime search) keeps the
        incumbent: never switch blindly after a truncated solve.
        """
        self._last_replan_check_s = time_s
        result = self.replan(topology)
        if not result.complete:
            self._decide(time_s, cause, DegradationTier.CONTINUE,
                         "deadline_fallback", result=result)
            return None
        if (not result.found
                or (self.current_evaluation is not None
                    and not self.objective.better(result.evaluation,
                                                  self.current_evaluation))):
            self._decide(time_s, cause, DegradationTier.CONTINUE, "kept",
                         result=result)
            return None
        event = self._apply(result, time_s, reason=reason,
                            trigger=cause, tier=DegradationTier.FULL_REPLAN)
        self._decide(time_s, cause, DegradationTier.FULL_REPLAN, "switched",
                     result=result)
        return event

    def _handle_broken_plan(self, topology: ClusterTopology, time_s: float,
                            cause: str) -> ReconfigurationEvent | None:
        """The incumbent no longer fits: shrink, replan, or park."""
        self._last_replan_check_s = time_s
        shrunk = self._shrink_to_fit(topology)
        if shrunk is not None:
            plan, evaluation = shrunk
            # No solve ran: a zero search time keeps the shrink out of the
            # replay's replan tally.
            result = PlannerResult(plan=plan, evaluation=evaluation,
                                   search_time_s=0.0,
                                   planner_name="shrink-in-place")
            event = self._apply(result, time_s,
                                reason="shrink data parallelism to fit",
                                trigger=cause, tier=DegradationTier.SHRINK_DP)
            self._decide(time_s, cause, DegradationTier.SHRINK_DP, "shrunk",
                         result=result)
            return event
        result = self.replan(topology)
        if result.found:
            # The broken path applies the anytime answer even when degraded
            # (an incomplete search beats no plan); its decision keeps
            # ``complete=False``.
            event = self._apply(result, time_s, reason=cause, trigger=cause,
                                tier=DegradationTier.FULL_REPLAN)
            self._decide(time_s, cause, DegradationTier.FULL_REPLAN,
                         "replanned", result=result)
            return event
        self._park(time_s, cause, result, retry=topology.total_gpus() > 0)
        return None

    # -- internals ----------------------------------------------------------------

    @property
    def current_evaluation(self):
        """Accurate evaluation of the currently-deployed plan."""
        if self.current_plan is None:
            return None
        return self.planner.simulator.evaluate(self.current_plan)

    def _plan_still_fits(self, topology: ClusterTopology) -> bool:
        """True when every (zone, node type) the plan uses is still there.

        ``fits_within`` compares the plan's whole-node allocation against
        the topology pool by pool, so simultaneous multi-pool events that
        keep the *total* GPU count unchanged (zone A loses what zone B
        gains) are still detected as breaking the plan.
        """
        if self.current_plan is None:
            return False
        return self.current_plan.resource_allocation().fits_within(topology)

    def _shrink_to_fit(self, topology: ClusterTopology,
                       ) -> tuple[ParallelizationPlan, PlanEvaluation] | None:
        """Drop whole data-parallel pipeline columns until the plan fits.

        A *column* is one data-parallel index across every stage (one full
        pipeline).  Columns are kept greedily in index order while their
        cumulative whole-node footprint (packed exactly like
        ``resource_allocation``) fits the pool, then the largest feasible
        prefix that also splits the global batch evenly and passes the
        simulator/constraint check wins.  No planner invocation: this is
        the cheap-reconfigure degradation tier.
        """
        plan = self.current_plan
        if plan is None:
            return None
        kept: list[int] = []
        for column in range(plan.data_parallel):
            candidate = kept + [column]
            if self._columns_allocation(plan, candidate).fits_within(topology):
                kept.append(column)
        for k in range(len(kept), 0, -1):
            columns = kept[:k]
            try:
                shrunk = ParallelizationPlan(
                    job=plan.job,
                    stages=[type(stage)(partition=stage.partition,
                                        replicas=[stage.replicas[j]
                                                  for j in columns])
                            for stage in plan.stages],
                    microbatch_size=plan.microbatch_size)
            except ValueError:
                continue  # e.g. the global batch does not split at this D
            evaluation = self.planner.simulator.evaluate(shrunk)
            if not evaluation.is_valid:
                continue
            if not self.objective.constraint.satisfied_by(
                    evaluation, total_gpus=shrunk.total_gpus):
                continue
            return shrunk, evaluation
        return None

    @staticmethod
    def _columns_allocation(plan: ParallelizationPlan,
                            columns: list[int]) -> ResourceAllocation:
        """Whole-node footprint of a subset of data-parallel columns."""
        allocation = ResourceAllocation()
        for stage in plan.stages:
            packing: dict[tuple[str, str], int] = {}
            for j in columns:
                replica = stage.replicas[j]
                key = (replica.zone, replica.node_type)
                packing[key] = packing.get(key, 0) + replica.tensor_parallel
            for (zone, node_type), gpus in packing.items():
                per_node = get_node_type(node_type).gpus_per_node
                allocation.add(zone, node_type, -(-gpus // per_node))
        return allocation

    def _park(self, time_s: float, cause: str, result: PlannerResult,
              retry: bool) -> None:
        """Checkpoint-park: drop the plan, keep state, optionally backoff."""
        self.current_plan = None
        self.parked = True
        if retry:
            self._retry_at_s = time_s + self._retry_backoff_s
            self._retry_backoff_s = min(
                self._retry_backoff_s * RETRY_BACKOFF_FACTOR,
                MAX_RETRY_BACKOFF_S)
        else:
            self._retry_at_s = None
        self._decide(time_s, cause, DegradationTier.PARK, "parked",
                     result=result)

    def _apply(self, result: PlannerResult, time_s: float, reason: str,
               trigger: str = "", tier: DegradationTier = DegradationTier.FULL_REPLAN,
               ) -> ReconfigurationEvent:
        old_gpus = self.current_plan.total_gpus if self.current_plan else 0
        new_plan = result.plan
        assert new_plan is not None
        event = ReconfigurationEvent(
            time_s=time_s, reason=reason, old_gpus=old_gpus,
            new_gpus=new_plan.total_gpus,
            breakdown=self.reconfiguration.breakdown(new_plan.total_gpus),
            planner_result=result, trigger=trigger or reason, tier=tier)
        self.events.append(event)
        self.current_plan = new_plan
        self.parked = False
        self._retry_at_s = None
        self._retry_backoff_s = RETRY_BACKOFF_S
        return event

    def _decide(self, time_s: float, trigger: str, tier: DegradationTier,
                action: str, result: PlannerResult | None = None) -> None:
        stats = result.search_stats if result is not None else SearchStats()
        self.decisions.append(ReplanDecision(
            time_s=time_s, trigger=trigger, tier=tier, action=action,
            replan_latency_s=result.search_time_s if result is not None else 0.0,
            cache_hits=stats.cache_hits,
            solve_memo_hits=stats.solve_memo_hits,
            complete=result.complete if result is not None else True,
            optimality_gap_bound=(result.optimality_gap_bound
                                  if result is not None else 0.0)))
