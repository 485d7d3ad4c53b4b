"""The training controller.

The controller is the brains of the Sailor framework (section 4.4): it
monitors worker status and resource availability; when availability changes
it re-invokes the planner, instructs existing workers to clean up (destroy
NCCL groups, free GPU memory) without killing their processes, broadcasts
the new plan and topology, and waits for workers to re-initialise before
resuming training.

Under churn (see :mod:`repro.runtime.faults`) the controller applies a
:class:`ReplanPolicy` with four graceful-degradation tiers, tried in order
of increasing disruption:

1. ``CONTINUE`` -- the incumbent plan still fits and no switch is
   warranted (debounce/hysteresis gated, replan not better, replan missed
   its deadline, or the switch does not pay for its own reconfiguration
   pause within the amortization horizon).
2. ``SHRINK_DP`` -- the incumbent no longer fits but dropping whole
   data-parallel pipeline columns in place does: a cheap reconfigure with
   no planner invocation.
3. ``FULL_REPLAN`` -- a fresh solve, paying the
   :class:`~repro.runtime.reconfiguration.ReconfigurationModel` cost.
   Replans are *incremental*: every solve runs inside one long-lived
   :class:`~repro.core.search_cache.PlannerSearchContext`, so successive
   pools reuse forward layers, budget bounds and stage tables (the
   cross-time analogue of the planner's cross-candidate sharing).
4. ``PARK`` -- nothing fits: checkpoint-park the job (stop workers, keep
   state) and retry with exponential backoff as capacity returns.

Every decision is recorded as a :class:`ReplanDecision` and every applied
reconfiguration as a :class:`ReconfigurationEvent` carrying its trigger
cause, tier and deadline verdict for observability.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

from repro.core.objectives import Objective, OptimizationGoal
from repro.core.plan import (
    ParallelizationPlan,
    PlanEvaluation,
    PlannerResult,
    ResourceAllocation,
    SearchStats,
)
from repro.core.planner import PlannerConfig, SailorPlanner
from repro.core.search_cache import PlannerSearchContext
from repro.core.simulator import SailorSimulator, SimulationEnvironment
from repro.hardware.nodes import get_node_type
from repro.hardware.topology import ClusterTopology
from repro.models.spec import TrainingJobSpec
from repro.runtime.comm_groups import CommunicationGroups, build_rank_topology
from repro.runtime.reconfiguration import ReconfigurationBreakdown, ReconfigurationModel
from repro.runtime.worker import TrainingWorker, WorkerState


class DegradationTier(enum.Enum):
    """How disruptive the controller's reaction to a change was."""

    CONTINUE = "continue"
    SHRINK_DP = "shrink_dp"
    FULL_REPLAN = "full_replan"
    PARK = "park"


@dataclass(frozen=True)
class ReplanPolicy:
    """Knobs governing when and how the controller replans.

    The defaults reproduce the pre-policy behaviour (replan eagerly on
    every change, no deadline, always switch to a better plan), so
    existing callers see no difference until they opt in.
    """

    #: Minimum seconds between *voluntary* replan attempts while the
    #: incumbent still fits (flap suppression).  0 disables.
    debounce_s: float = 0.0
    #: Ignore pool-size changes smaller than this fraction of the pool the
    #: incumbent was deployed against, while the incumbent still fits.
    hysteresis_fraction: float = 0.0
    #: Wall-clock budget for one replan.  The planner runs anytime-bounded
    #: to this limit; a solve that still overruns it is treated as a miss:
    #: on the voluntary path the incumbent is kept (degraded), on the
    #: broken path the anytime answer is applied but flagged.
    replan_deadline_s: float | None = None
    #: Gap-aware adoption of *degraded* voluntary replans (deadline missed
    #: or anytime result incomplete): adopt the degraded plan when its
    #: certified ``optimality_gap_bound`` is at most this fraction,
    #: otherwise keep the incumbent.  ``None`` (default) keeps the
    #: incumbent on every degraded voluntary replan, the pre-anytime
    #: behaviour.
    max_adopt_gap: float | None = None
    #: Backoff schedule for retrying a transiently-infeasible pool.
    retry_backoff_s: float = 60.0
    retry_backoff_factor: float = 2.0
    max_retry_backoff_s: float = 900.0
    #: Horizon over which a voluntary switch must amortise its own
    #: reconfiguration pause (transition-cost-aware objective).  ``None``
    #: disables the gate.
    amortization_horizon_s: float | None = None
    #: Try dropping data-parallel columns in place before a full replan.
    enable_shrink: bool = True
    #: Reuse one search context across successive replans.
    incremental: bool = True
    #: Charge the reconfiguration model's *constant* planning latency
    #: instead of the measured solver wall-clock, so the simulated timeline
    #: (iteration counts, checkpoint instants) is a pure function of the
    #: trace.  Off by default: the measured latency is the honest section
    #: 5.5 accounting.
    deterministic_timing: bool = False


@dataclass(frozen=True)
class ReplanDecision:
    """One controller reaction to an availability change (or retry tick)."""

    time_s: float
    trigger: str
    tier: DegradationTier
    action: str
    replan_latency_s: float = 0.0
    deadline_missed: bool = False
    cache_hits: int = 0
    solve_memo_hits: int = 0


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
    #: True when the solve overran the policy's replan deadline.
    deadline_missed: bool = False

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
    current_groups: CommunicationGroups | None = None
    workers: list[TrainingWorker] = field(default_factory=list)
    events: list[ReconfigurationEvent] = field(default_factory=list)
    decisions: list[ReplanDecision] = field(default_factory=list)
    #: True once a deployment failed/was lost and the job is waiting for
    #: capacity (checkpoint-park).
    parked: bool = False
    #: Cumulative planner work across every replan this controller issued.
    search_stats: SearchStats = field(default_factory=SearchStats)

    def __post_init__(self) -> None:
        if self.planner is None:
            # With a replan deadline the solver runs anytime-bounded to it,
            # so a "miss" degrades the answer's quality, never its latency.
            self.planner = SailorPlanner(self.env, config=PlannerConfig(
                time_limit_s=self.policy.replan_deadline_s))
        self.simulator = SailorSimulator(self.env)
        self._search_context: PlannerSearchContext | None = None
        self._last_replan_check_s: float | None = None
        self._deployed_pool_gpus: int = 0
        self._retry_at_s: float | None = None
        self._retry_backoff_s: float = self.policy.retry_backoff_s

    # -- planning ------------------------------------------------------------

    def replan(self, topology: ClusterTopology) -> PlannerResult:
        """Run the planner against the currently available topology.

        With ``policy.incremental`` the solve runs inside one long-lived
        search context, so forward layers, budget bounds and stage tables
        survive across successive pools; the chosen plan is identical to a
        from-scratch solve on the same pool (the context is
        topology-independent).
        """
        if self.policy.incremental and isinstance(self.planner, SailorPlanner):
            if self._search_context is None:
                self._search_context = PlannerSearchContext(
                    self.env, self.job, self.objective.goal)
            result = self.planner.plan(self.job, topology, self.objective,
                                       context=self._search_context)
        else:
            result = self.planner.plan(self.job, topology, self.objective)
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
        """Retry a parked job once its backoff deadline has passed."""
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
        result, missed = self._timed_replan(topology)
        if not result.found:
            self._park(time_s, cause, result,
                       retry=topology.total_gpus() > 0)
            return None
        event = self._apply(result, time_s, reason=cause, trigger=cause,
                            tier=DegradationTier.FULL_REPLAN,
                            deadline_missed=missed,
                            pool_gpus=topology.total_gpus())
        self._decide(time_s, cause, DegradationTier.FULL_REPLAN, "deployed",
                     result=result, deadline_missed=missed)
        return event

    def _maybe_improve(self, topology: ClusterTopology, time_s: float,
                       cause: str) -> ReconfigurationEvent | None:
        """The incumbent still fits: consider a voluntary switch."""
        policy = self.policy
        if (policy.debounce_s > 0 and self._last_replan_check_s is not None
                and time_s - self._last_replan_check_s < policy.debounce_s):
            self._decide(time_s, cause, DegradationTier.CONTINUE, "debounced")
            return None
        pool_gpus = topology.total_gpus()
        if policy.hysteresis_fraction > 0 and self._deployed_pool_gpus > 0:
            delta = abs(pool_gpus - self._deployed_pool_gpus)
            if delta < policy.hysteresis_fraction * self._deployed_pool_gpus:
                self._decide(time_s, cause, DegradationTier.CONTINUE,
                             "hysteresis")
                return None
        return self._consider_switch(topology, time_s, cause,
                                     reason="better plan available")

    def handle_price_change(self, topology: ClusterTopology, time_s: float,
                            cause: str = "price_move",
                            ) -> ReconfigurationEvent | None:
        """React to a GPU pricing change (e.g. a ``price_move`` fault).

        Prices are baked into the search context's cost tables, the
        simulators and the planner's caches, so all three are rebuilt
        before replanning.  Debounce and hysteresis are bypassed: a price
        move invalidates the incumbent's *cost basis* even when the
        topology (and so the pool size) is completely unchanged.
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
        self.simulator = SailorSimulator(self.env)
        if isinstance(self.planner, SailorPlanner):
            self.planner = SailorPlanner(self.env, config=self.planner.config)

    def _consider_switch(self, topology: ClusterTopology, time_s: float,
                         cause: str, reason: str,
                         ) -> ReconfigurationEvent | None:
        """Replan and switch if the result is adoptable, better and worth it.

        A *degraded* result (deadline missed, or anytime search incomplete)
        is adoptable only through the policy's gap-aware gate
        (:meth:`_adopt_degraded`); otherwise the incumbent is kept -- never
        block training on, or switch blindly after, a slow solve.
        """
        pool_gpus = topology.total_gpus()
        self._last_replan_check_s = time_s
        result, missed = self._timed_replan(topology)
        degraded = missed or not result.complete
        if degraded and not self._adopt_degraded(result):
            self._decide(time_s, cause, DegradationTier.CONTINUE,
                         "deadline_fallback", result=result,
                         deadline_missed=True)
            return None
        if (not result.found
                or (self.current_evaluation is not None
                    and not self.objective.better(result.evaluation,
                                                  self.current_evaluation))):
            self._decide(time_s, cause, DegradationTier.CONTINUE, "kept",
                         result=result)
            return None
        if not self._switch_worth_it(result):
            self._decide(time_s, cause, DegradationTier.CONTINUE,
                         "not_worth_switching", result=result)
            return None
        event = self._apply(result, time_s, reason=reason,
                            trigger=cause, tier=DegradationTier.FULL_REPLAN,
                            deadline_missed=degraded,
                            pool_gpus=pool_gpus)
        self._decide(time_s, cause, DegradationTier.FULL_REPLAN, "switched",
                     result=result, deadline_missed=degraded)
        return event

    def _adopt_degraded(self, result: PlannerResult) -> bool:
        """Keep-incumbent vs adopt-degraded-plan, decided by the certified
        optimality gap instead of a blind timeout fallback."""
        gap = self.policy.max_adopt_gap
        if gap is None or not result.found:
            return False
        return result.optimality_gap_bound <= gap

    def _handle_broken_plan(self, topology: ClusterTopology, time_s: float,
                            cause: str) -> ReconfigurationEvent | None:
        """The incumbent no longer fits: shrink, replan, or park."""
        self._last_replan_check_s = time_s
        if self.policy.enable_shrink:
            shrink_start = time.perf_counter()
            shrunk = self._shrink_to_fit(topology)
            if shrunk is not None:
                plan, evaluation = shrunk
                result = PlannerResult(
                    plan=plan, evaluation=evaluation,
                    search_time_s=time.perf_counter() - shrink_start,
                    planner_name="shrink-in-place")
                event = self._apply(result, time_s,
                                    reason="shrink data parallelism to fit",
                                    trigger=cause,
                                    tier=DegradationTier.SHRINK_DP,
                                    pool_gpus=topology.total_gpus())
                self._decide(time_s, cause, DegradationTier.SHRINK_DP,
                             "shrunk", result=result)
                return event
        result, missed = self._timed_replan(topology)
        if result.found:
            # The broken path applies the anytime answer even when degraded
            # (an incomplete search beats no plan), but flags it.
            degraded = missed or not result.complete
            event = self._apply(result, time_s, reason=cause, trigger=cause,
                                tier=DegradationTier.FULL_REPLAN,
                                deadline_missed=degraded,
                                pool_gpus=topology.total_gpus())
            self._decide(time_s, cause, DegradationTier.FULL_REPLAN,
                         "replanned", result=result, deadline_missed=degraded)
            return event
        self._park(time_s, cause, result, retry=topology.total_gpus() > 0)
        return None

    # -- internals ----------------------------------------------------------------

    @property
    def current_evaluation(self):
        """Accurate evaluation of the currently-deployed plan."""
        if self.current_plan is None:
            return None
        return self.simulator.evaluate(self.current_plan)

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

    def _timed_replan(self, topology: ClusterTopology,
                      ) -> tuple[PlannerResult, bool]:
        """One replan plus the deadline verdict on its measured latency."""
        result = self.replan(topology)
        missed = (self.policy.replan_deadline_s is not None
                  and result.search_time_s > self.policy.replan_deadline_s)
        return result, missed

    def _switch_worth_it(self, result: PlannerResult) -> bool:
        """Transition-cost-aware gate on voluntary plan switches.

        Moving off the incumbent pauses training for the full
        reconfiguration latency; the switch is worth it only when the new
        plan's advantage, integrated over ``amortization_horizon_s``,
        exceeds the work (throughput objective) or money (cost objective)
        the pause forfeits.
        """
        horizon = self.policy.amortization_horizon_s
        if horizon is None or self.current_plan is None:
            return True
        current = self.current_evaluation
        if current is None or result.evaluation is None:
            return True
        pause = self.reconfiguration.total_s(
            max(1, result.plan.total_gpus),
            planning_time_s=result.search_time_s)
        new = result.evaluation
        if self.objective.goal is OptimizationGoal.MAX_THROUGHPUT:
            gained = (new.throughput_iters_per_s
                      - current.throughput_iters_per_s) * horizon
            lost = current.throughput_iters_per_s * pause
            return gained > lost
        # MIN_COST: dollars saved over the horizon vs. the cost of the
        # iterations the pause defers (priced at the new plan's rate).
        saved = (current.cost_per_iteration_usd
                 - new.cost_per_iteration_usd) * new.throughput_iters_per_s * horizon
        deferred = new.cost_per_iteration_usd * new.throughput_iters_per_s * pause
        return saved > deferred

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
            evaluation = self.simulator.evaluate(shrunk)
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
        """Checkpoint-park: stop workers, keep state, optionally backoff."""
        self._stop_workers(time_s)
        self.current_plan = None
        self.current_groups = None
        self.parked = True
        if retry:
            self._retry_at_s = time_s + self._retry_backoff_s
            self._retry_backoff_s = min(
                self._retry_backoff_s * self.policy.retry_backoff_factor,
                self.policy.max_retry_backoff_s)
        else:
            self._retry_at_s = None
        self._decide(time_s, cause, DegradationTier.PARK, "parked",
                     result=result)

    def _apply(self, result: PlannerResult, time_s: float, reason: str,
               trigger: str = "", tier: DegradationTier = DegradationTier.FULL_REPLAN,
               deadline_missed: bool = False,
               pool_gpus: int | None = None) -> ReconfigurationEvent:
        old_gpus = self.current_plan.total_gpus if self.current_plan else 0
        new_plan = result.plan
        assert new_plan is not None

        # Kill-free path: surviving workers clean up and repartition instead
        # of being restarted.
        self._cleanup_workers(time_s)
        groups = build_rank_topology(new_plan)
        groups.validate()
        self.workers = [TrainingWorker(assignment=a) for a in groups.ranks]
        for worker in self.workers:
            worker.transition(WorkerState.INITIALIZING, time_s)
            worker.transition(WorkerState.TRAINING, time_s)

        breakdown = self.reconfiguration.breakdown(
            num_workers=new_plan.total_gpus,
            planning_time_s=(None if self.policy.deterministic_timing
                             else result.search_time_s))
        event = ReconfigurationEvent(
            time_s=time_s, reason=reason, old_gpus=old_gpus,
            new_gpus=new_plan.total_gpus, breakdown=breakdown,
            planner_result=result, trigger=trigger or reason, tier=tier,
            deadline_missed=deadline_missed)
        self.events.append(event)
        self.current_plan = new_plan
        self.current_groups = groups
        self.parked = False
        if pool_gpus is not None:
            self._deployed_pool_gpus = pool_gpus
        self._retry_at_s = None
        self._retry_backoff_s = self.policy.retry_backoff_s
        return event

    def _decide(self, time_s: float, trigger: str, tier: DegradationTier,
                action: str, result: PlannerResult | None = None,
                deadline_missed: bool = False) -> None:
        stats = result.search_stats if result is not None else SearchStats()
        self.decisions.append(ReplanDecision(
            time_s=time_s, trigger=trigger, tier=tier, action=action,
            replan_latency_s=result.search_time_s if result is not None else 0.0,
            deadline_missed=deadline_missed,
            cache_hits=stats.cache_hits,
            solve_memo_hits=stats.solve_memo_hits))

    def _cleanup_workers(self, time_s: float) -> None:
        for worker in self.workers:
            if worker.state is WorkerState.TRAINING:
                worker.transition(WorkerState.CLEANING_UP, time_s)
                worker.transition(WorkerState.REPARTITIONING, time_s)
                worker.transition(WorkerState.STOPPED, time_s)
            elif worker.state is not WorkerState.STOPPED:
                worker.transition(WorkerState.STOPPED, time_s)

    def _stop_workers(self, time_s: float) -> None:
        for worker in self.workers:
            if worker.state is not WorkerState.STOPPED:
                if worker.state is WorkerState.TRAINING:
                    worker.transition(WorkerState.CLEANING_UP, time_s)
                worker.transition(WorkerState.STOPPED, time_s)
        self.workers = []
