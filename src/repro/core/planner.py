"""The Sailor planner (paper section 4.2).

Jointly selects a *resource allocation* (which nodes, of which type, in
which zones) and a *job parallelization plan* (pipeline depth, per-stage
tensor-parallel degrees per GPU type, shared data-parallel degree,
microbatch size) that optimises the user's objective under optional
constraints.  The search combines:

* the pruning heuristics H1-H6 (:mod:`repro.core.heuristics`),
* the per-stage dynamic program (:mod:`repro.core.dp_solver`), with all
  per-candidate caches hoisted into a shared
  :class:`~repro.core.search_cache.PlannerSearchContext`, and
* the Sailor simulator for the final accuracy check of each candidate
  (:mod:`repro.core.simulator`).

The search decomposes into independent ``(pipeline depth, microbatch size)``
branches; :class:`ParallelPlanner` is an opt-in driver that fans the
branches out over a process pool and merges the branch winners
deterministically (same result as the serial search).
"""

from __future__ import annotations

import bisect
import math
import multiprocessing
import os
import pickle
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import astuple, dataclass, field, replace
from multiprocessing import shared_memory

from repro.core.budget import SearchBudget, SearchBudgetExhausted
from repro.core.dp_solver import DPSolver, DPSolverConfig, DPSolution, StageOption
from repro.core.heuristics import (
    ConsolidatedTopology,
    HeuristicConfig,
    consolidate_zones,
    data_parallel_candidates,
    microbatch_candidates,
    min_tp_per_stage,
    pipeline_parallel_candidates,
    tp_options_for_stage,
)
from repro.core.objectives import Objective, OptimizationGoal
from repro.core.plan import (
    ParallelizationPlan,
    PlanEvaluation,
    PlannerResult,
    SearchStats,
    StageConfig,
    StageReplica,
)
from repro.core.search_cache import PlannerSearchContext, tp_options_key
from repro.core.simulator import SailorSimulator, SimulationEnvironment
from repro.hardware.nodes import get_node_type
from repro.hardware.topology import ClusterTopology
from repro.models.spec import TrainingJobSpec


#: Relative slack on the unexplored-candidate lower bounds (see
#: ``SailorPlanner._unexplored_bound``): keeps the gap certificate
#: admissible under float association drift between the bound arithmetic
#: and the simulator's evaluation of the same stage times.
_GAP_BOUND_SLACK = 1.0 - 1e-9


@dataclass
class PlannerConfig:
    """Configuration of the Sailor planner search."""

    # lint: disable=cache-key -- composite: shapes candidate *enumeration*
    # only; every cached artifact is keyed by the full (partition, mbs,
    # node type, TP, resources) tuple it describes, so changing the
    # heuristics reroutes lookups rather than forking cached values.
    heuristics: HeuristicConfig = field(default_factory=HeuristicConfig)
    # lint: disable=cache-key -- composite handed to DPSolver; its leaf
    # fields are linted individually (the solve memo keys them all through
    # ``astuple``), and the composite itself is never hashed.
    dp_config: DPSolverConfig = field(default_factory=DPSolverConfig)
    #: Stop exploring further data-parallel degrees after this many
    #: consecutive non-improving candidates (H3/H4 early stop).
    # lint: disable=cache-key -- early-stop knob: changes which candidates
    # are explored, never the value any (partition, mbs, ...) key maps to.
    dp_patience: int = 1
    #: Optional wall-clock limit for one planning call, in seconds.  With
    #: the cooperative cancellation budget threaded through the DP hot
    #: loops, the search halts within a bounded number of inner iterations
    #: of the deadline (plus a bounded salvage epilogue that prices the
    #: unexplored branches for the optimality-gap certificate) and returns
    #: the best incumbent found, marked ``complete=False``.
    # lint: disable=cache-key -- anytime budget consumed only by
    # SearchBudget; exhaustion raises *before* any cache write, so a
    # truncated solve never stores a partial artifact under an exact key
    # (pinned by the anytime/churn suites).
    time_limit_s: float | None = None
    #: Optional deterministic node budget: the search halts after this many
    #: cooperative cancellation ticks (DP nodes, engine layers, forward
    #: chunks...).  Gives tests a wall-clock-free way to exercise the
    #: anytime path; each parallel worker counts its own ticks.
    # lint: disable=cache-key -- same contract as time_limit_s: enters the
    # search only through SearchBudget, which unwinds before cache writes.
    max_search_nodes: int | None = None
    #: Parallel driver only: extra wall-clock grace (beyond ``time_limit_s``)
    #: a branch task may take before its worker is declared wedged and the
    #: branch is salvaged via retry + inline re-run.  ``None`` disables
    #: wedge detection (a crashed worker is still recovered through
    #: ``BrokenProcessPool``).
    # lint: disable=cache-key -- driver-only fault-tolerance knob, never
    # read inside a solve; a salvaged branch re-runs the same deterministic
    # search, so no cached value can depend on it.
    branch_timeout_s: float | None = None
    #: When > 1, ``SailorPlanner.plan`` fans the (P, mbs) branches out over
    #: this many worker processes (see :class:`ParallelPlanner`).
    # lint: disable=cache-key -- dispatch-only: selects the driver; each
    # worker builds its own context and the merged plan is pinned identical
    # to the serial search by the parallel-equivalence suite.
    parallel_workers: int | None = None
    #: Candidate-level incumbent gate: skip the full simulator evaluation of
    #: a candidate whose conservative floor -- iteration time (pipeline +
    #: update, no sync) under the throughput objective, monetary cost
    #: (compute at the time floor + exact egress) under the cost objective
    #: -- already loses to the branch incumbent.  The gate replays the
    #: skipped candidate's bookkeeping (OOM counting, H3/H4 staleness) from
    #: cheap vectorized checks, so the chosen plan is byte-identical with
    #: the gate on or off.  Under a budget or throughput constraint a skip
    #: additionally requires the constraint's verdict to be provable from
    #: the floors (a floor already over the budget / under the throughput
    #: bar); undecidable candidates fall through to the full evaluation, so
    #: the constraint bookkeeping stays exact.  ``False`` disables the gate
    #: for the equivalence tests.
    enable_candidate_gate: bool = True
    #: Cost-bound-driven candidate scheduling: precompute an admissible
    #: evaluation floor for every data-parallel candidate of a branch (the
    #: availability-free per-stage minima of ``_unexplored_bound``, i.e.
    #: the candidate list viewed in cost-bound order) and, at the top of
    #: each iteration, kill the *entire remaining tail* once its best floor
    #: already loses to the branch incumbent
    #: (``SearchStats.candidates_killed_unevaluated`` counts them).  Unlike
    #: the incumbent gate -- which runs after the DP solve and only skips
    #: the simulator evaluation -- a tail kill skips the DP solve itself.
    #: Killing only whole tails is what makes the scheduling
    #: value-preserving: ``Objective.better`` is strict, so no killed
    #: candidate could have replaced the incumbent, and because nothing
    #: after the cut is evaluated the H3/H4 staleness divergence cannot
    #: propagate to a surviving candidate.  (Physically re-sorting the
    #: evaluation order by bound would *not* be value-preserving: the
    #: H3/H4 early stop and the first-wins tie-break are
    #: evaluation-order-dependent.)  The floors are simulator floors, not
    #: the DP engine's ``cost_lb`` tables: the kill compares against the
    #: *simulator's* incumbent value, which the DP model does not bound.
    #: Armed only together with ``dp_config.enable_pruning``; ``False``
    #: restores the exhaustive per-candidate loop.
    candidate_ordering: bool = True
    #: Dominated-family interval memo: before any forward build, price a
    #: whole (P, mbs) family with an admissible availability-free floor --
    #: the minimum of ``_candidate_floor`` over the family's data-parallel
    #: members, with the stage minima and per-member floors
    #: interval-memoised in the search context (the budget memo's
    #: validity-range idea one level up: an entry, once computed, answers
    #: every availability snapshot whose candidate interval contains that
    #: member) -- and skip the family *wholesale* when the floor already
    #: loses to the cross-branch incumbent
    #: (``SearchStats.families_skipped``).  Value-preserving for the same
    #: reason as the tail kill: ``Objective.better`` is strict, so no
    #: skipped member could have replaced the incumbent, and a skip
    #: removes an entire family (a within-enumeration-order cut), so no
    #: surviving branch sees different H3/H4 or tie-break state.  The
    #: parallel driver replays the serial skip decisions in branch order
    #: from the workers' reported floors (``_family_dominated`` is the
    #: single shared predicate), so both drivers skip identical families.
    #: Armed only together with ``dp_config.enable_pruning``; ``False``
    #: restores the unconditional per-branch search for the equivalence
    #: suites.
    family_interval_memo: bool = True
    #: Availability-aware tail-kill floors: tighten the candidate-ordering
    #: tail kill from availability-free stage minima to minima over the
    #: (zone, node type, TP) options actually present in the pool, with a
    #: per-stage replica-capacity threshold -- a stage hosting D replicas
    #: over at most ``max_mixed_types_per_stage`` options must place
    #: ``ceil(D / min(2, max_mixed))`` of them on one option, so only
    #: options with at least that root-pool capacity can set the stage's
    #: time.  Still admissible (the root pool is a superset of every DP
    #: sub-state's pool, so the threshold only ever *widens* the option
    #: set vs. reality), hence value-preserving exactly like
    #: ``candidate_ordering`` itself, and still used only for
    #: within-order tail kills;
    #: ``_unexplored_bound`` keeps the availability-free floors, so the
    #: optimality-gap certificates are unchanged.  The per-(branch, pool)
    #: tables are cached in the search context
    #: (``SearchStats.availability_floor_hits``), so churn replans against
    #: an unchanged pool reuse them warm.  ``False`` falls back to the
    #: availability-free tail floors.
    availability_aware_floors: bool = True


@dataclass
class _BranchOutcome:
    """Best candidate of one (pipeline depth, microbatch size) branch."""

    plan: ParallelizationPlan | None = None
    evaluation: PlanEvaluation | None = None
    candidates_evaluated: int = 0
    oom_plans_generated: int = 0
    #: Branch label ("P<pp>/mbs<mbs>") for incomplete-branch reporting.
    label: str = ""
    #: False when the deadline / node budget cut the branch's candidate
    #: enumeration short (H3/H4 early stops still count as complete: they
    #: are part of the unbounded search, not a truncation of it).
    complete: bool = True
    #: Admissible lower bound on the objective's minimised scalar over the
    #: branch's *unexplored* candidates; +inf when none could win.
    unexplored_lb: float = math.inf
    #: Admissible availability-free floor of the whole family's minimised
    #: scalar (``PlannerConfig.family_interval_memo``); ``None`` when the
    #: family gate was not armed for this branch (no TP options, no DP
    #: candidates, pruning off), so the parallel driver's replay never
    #: drops an unpriced branch.
    family_floor: float | None = None


class SailorPlanner:
    """Joint resource-allocation + parallelization-plan search."""

    name = "sailor"

    def __init__(self, env: SimulationEnvironment,
                 config: PlannerConfig | None = None) -> None:
        self.env = env
        self.config = config or PlannerConfig()
        self.simulator = SailorSimulator(env)

    # -- public API -------------------------------------------------------------

    def plan(self, job: TrainingJobSpec, topology: ClusterTopology,
             objective: Objective | None = None,
             context: PlannerSearchContext | None = None) -> PlannerResult:
        """Search for the best plan on the currently-available topology.

        ``context`` optionally supplies a long-lived
        :class:`~repro.core.search_cache.PlannerSearchContext` to search in.
        The context is topology-independent (resource availability enters
        every cache key explicitly), so a caller replanning against
        successive availability snapshots of the same (env, job, goal) --
        the online controller under churn -- reuses partitions, stage
        compute/sync/cost tables, forward layers and budget bounds across
        calls with zero invalidation, and the chosen plan stays identical
        to a from-scratch solve on the same pool.  The reported
        ``search_stats`` are always the *delta* this call contributed.
        The parallel driver builds per-worker contexts and ignores an
        external one.
        """
        objective = objective or Objective.max_throughput()
        workers = self.config.parallel_workers
        if workers is not None and workers > 1:
            return ParallelPlanner(self.env, config=self.config,
                                   max_workers=workers).plan(job, topology,
                                                             objective)
        # lint: disable=determinism -- observability (search_time_s) plus
        # the anytime deadline, which reaches the search only through
        # SearchBudget; neither branches the search directly.
        start = time.perf_counter()
        heuristics = self.config.heuristics
        deadline = (None if self.config.time_limit_s is None
                    else start + self.config.time_limit_s)

        consolidated = consolidate_zones(topology, heuristics)
        resources = self._resource_map(consolidated.topology)
        total_nodes = sum(resources.values())
        if context is None:
            context = PlannerSearchContext(self.env, job, objective.goal)
        elif context.job is not job or context.goal is not objective.goal:
            raise ValueError("search context is bound to a different "
                             "(job, goal) than this planning call")
        stats_before = context.stats.copy()
        search_budget = SearchBudget.maybe(
            deadline, self.config.max_search_nodes)
        # The solve memo is skipped under a deterministic node budget: a
        # hit spends no ticks, so warm and cold runs would cut at
        # different candidates.
        memo_config = (astuple(self.config.dp_config)
                       if search_budget is None
                       or search_budget.max_ticks is None else None)

        # Every branch is visited even after the budget trips: an expired
        # branch skips its DP solves and only prices its unexplored
        # candidates (a bounded epilogue), which is what makes the reported
        # optimality gap admissible over the *whole* candidate space.
        # The running cross-branch incumbent exists solely to arm the
        # dominated-family gate; the final winner is still picked by
        # ``_merge_outcomes`` with the identical comparison, so threading
        # it cannot change the chosen plan.
        outcomes: list[_BranchOutcome] = []
        incumbent_eval: PlanEvaluation | None = None
        for pp, mbs in self._branch_specs(job, total_nodes, heuristics):
            outcome = self._plan_branch(job, objective, consolidated,
                                        resources, pp, mbs, context,
                                        search_budget,
                                        incumbent=incumbent_eval,
                                        memo_config=memo_config)
            outcomes.append(outcome)
            if (outcome.evaluation is not None
                    and objective.better(outcome.evaluation, incumbent_eval)):
                incumbent_eval = outcome.evaluation
        best_plan, best_eval, candidates, ooms = self._merge_outcomes(
            objective, outcomes)
        complete, gap, incomplete = self._anytime_summary(
            objective, outcomes, best_eval)

        return PlannerResult(
            plan=best_plan,
            evaluation=best_eval,
            # lint: disable=determinism -- reporting only, not plan-affecting.
            search_time_s=time.perf_counter() - start,
            planner_name=self.name,
            candidates_evaluated=candidates,
            oom_plans_generated=ooms,
            search_stats=context.stats.diff(stats_before),
            complete=complete,
            optimality_gap_bound=gap,
            incomplete_branches=incomplete,
        )

    # -- branch search -----------------------------------------------------------

    @staticmethod
    def _merge_outcomes(objective: Objective,
                        outcomes: list[_BranchOutcome],
                        ) -> tuple[ParallelizationPlan | None,
                                   PlanEvaluation | None, int, int]:
        """Pick the overall winner among branch outcomes, in branch order.

        Shared by the serial and parallel drivers so their incumbent
        comparison (and therefore the chosen plan) cannot diverge.
        """
        best_plan: ParallelizationPlan | None = None
        best_eval: PlanEvaluation | None = None
        candidates = 0
        ooms = 0
        for outcome in outcomes:
            candidates += outcome.candidates_evaluated
            ooms += outcome.oom_plans_generated
            if (outcome.evaluation is not None
                    and objective.better(outcome.evaluation, best_eval)):
                best_plan, best_eval = outcome.plan, outcome.evaluation
        return best_plan, best_eval, candidates, ooms

    @staticmethod
    def _incumbent_value(objective: Objective,
                         evaluation: PlanEvaluation) -> float:
        """The minimised scalar the optimality gap is certified against."""
        if objective.goal is OptimizationGoal.MIN_COST:
            return evaluation.cost_per_iteration_usd
        return evaluation.iteration_time_s

    @staticmethod
    def _anytime_summary(objective: Objective,
                         outcomes: list[_BranchOutcome],
                         best_eval: PlanEvaluation | None,
                         ) -> tuple[bool, float, list[str]]:
        """(complete, optimality_gap_bound, incomplete branch labels).

        The gap is relative to the incumbent's minimised scalar: the true
        optimum is no better than ``value * (1 - gap)``.  ``lb > value``
        (every unexplored candidate provably loses to the incumbent) clamps
        to 0.0; no incumbent at all yields ``inf``.
        """
        incomplete = [o.label for o in outcomes if not o.complete]
        if not incomplete:
            return True, 0.0, []
        lb = min((o.unexplored_lb for o in outcomes if not o.complete),
                 default=math.inf)
        if best_eval is None:
            return False, math.inf, incomplete
        value = SailorPlanner._incumbent_value(objective, best_eval)
        if not value > 0 or lb == math.inf:
            return False, 0.0, incomplete
        return False, max(0.0, (value - lb) / value), incomplete

    @staticmethod
    def _branch_specs(job: TrainingJobSpec, total_nodes: int,
                      heuristics: HeuristicConfig) -> list[tuple[int, int]]:
        """Independent (pipeline depth, microbatch size) branches, in the
        order the serial search explores them."""
        return [(pp, mbs)
                for pp in pipeline_parallel_candidates(job, total_nodes,
                                                       heuristics)
                for mbs in microbatch_candidates(job, heuristics)]

    def _plan_branch(self, job: TrainingJobSpec, objective: Objective,
                     consolidated: ConsolidatedTopology,
                     resources: dict[tuple[str, str], int],
                     pp: int, mbs: int, context: PlannerSearchContext,
                     search_budget: SearchBudget | None = None,
                     incumbent: PlanEvaluation | None = None,
                     memo_config: tuple | None = None,
                     ) -> _BranchOutcome:
        """Search every data-parallel candidate of one (P, mbs) branch.

        With a ``search_budget``, expiry between candidates (or a
        :class:`~repro.core.budget.SearchBudgetExhausted` raised inside a
        solve) keeps the branch incumbent found so far and prices the
        unexplored candidates with an admissible lower bound, so the merged
        result can certify its remaining optimality gap.

        ``memo_config`` (``astuple`` of the solver config) turns on the
        context's whole-solve memo (:meth:`PlannerSearchContext.solution`);
        ``None`` solves every candidate afresh.
        """
        heuristics = self.config.heuristics
        outcome = _BranchOutcome(label=f"P{pp}/mbs{mbs}")
        maximize_throughput = objective.goal is OptimizationGoal.MAX_THROUGHPUT
        constraint = objective.constraint
        budget = constraint.max_cost_per_iteration_usd
        min_throughput = constraint.min_throughput_iters_per_s
        gate_armed = self.config.enable_candidate_gate

        partitions = context.partitions(pp)
        tp_req = min_tp_per_stage(
            job, partitions, consolidated.topology.node_types(), mbs,
            num_microbatches_in_flight_cap=pp, env=self.env,
            config=heuristics)
        if any(not per_stage for per_stage in tp_req):
            # Some stage fits on no available GPU type: the branch has no
            # candidates at all, so it is complete even under a deadline.
            self._count_branch(context, outcome)
            return outcome
        tp_options = [tp_options_for_stage(per_stage, heuristics)
                      for per_stage in tp_req]

        max_dp = self._max_data_parallel(resources, tp_options, pp)
        dp_candidates = data_parallel_candidates(
            job, mbs, max_dp, maximize_throughput=maximize_throughput,
            config=heuristics)

        # Dominated-family interval memo (see PlannerConfig
        # .family_interval_memo): price the whole family from the
        # interval-memoised availability-free floors and skip it wholesale
        # -- before any forward build or DP solve -- when it provably
        # cannot *strictly* beat the cross-branch incumbent.  The floor is
        # recorded on the outcome either way so the parallel driver can
        # replay this exact decision from its workers' results.
        if (self.config.family_interval_memo
                and self.config.dp_config.enable_pruning and dp_candidates):
            outcome.family_floor = self._family_floor(
                job, context, partitions, tp_options, mbs, pp, dp_candidates,
                not maximize_throughput)
            if self._family_dominated(objective, outcome.family_floor,
                                      incumbent):
                context.stats.families_skipped += 1
                self._count_branch(context, outcome)
                return outcome

        # Cost-bound-driven candidate scheduling (see PlannerConfig
        # .candidate_ordering): suffix minima of the per-candidate
        # admissible floors, so one comparison at the top of the loop
        # prices the whole unexplored tail.  Branch-local state only --
        # serial and parallel workers take identical kill decisions, and
        # the incumbent gate on/off does not perturb them (the gate never
        # changes the branch incumbent's evolution).  With
        # ``availability_aware_floors`` the per-candidate floors come from
        # the pool-aware tables instead of the availability-free minima;
        # both are admissible, so either way only provably-losing tails
        # are killed.
        tail_floor: list[float] | None = None
        if (self.config.candidate_ordering
                and self.config.dp_config.enable_pruning and dp_candidates):
            avail_tables = None
            if self.config.availability_aware_floors:
                avail_tables = self._availability_tables(
                    context, partitions, tp_options, mbs, pp, resources)
            if avail_tables is not None:
                max_mixed = self.config.dp_config.max_mixed_types_per_stage
                tail_floor = [
                    self._candidate_floor_available(job, avail_tables, mbs,
                                                    dp,
                                                    not maximize_throughput,
                                                    max_mixed)
                    for dp in dp_candidates]
            else:
                floors = self._stage_floors(context, partitions, tp_options,
                                            mbs)
                if floors is not None:
                    tail_floor = [
                        self._candidate_floor(job, floors, mbs, dp,
                                              not maximize_throughput)
                        for dp in dp_candidates]
            if tail_floor is not None:
                for i in range(len(tail_floor) - 2, -1, -1):
                    if tail_floor[i + 1] < tail_floor[i]:
                        tail_floor[i] = tail_floor[i + 1]

        if memo_config is not None:
            # The raw root pool exactly as the solver normalises it, so a
            # memo hit is exact by construction.
            memo_pool = tuple(sorted((key, count)
                                     for key, count in resources.items()
                                     if count > 0))
            memo_tp = tuple(tp_options_key(opts) for opts in tp_options)

        stale = 0
        best_score_this_branch: float | None = None
        cut_from: int | None = None
        for dp_index, dp in enumerate(dp_candidates):
            if search_budget is not None and search_budget.expired():
                cut_from = dp_index
                break
            if tail_floor is not None and outcome.evaluation is not None:
                incumbent = self._incumbent_value(objective,
                                                  outcome.evaluation)
                if incumbent > 0 and tail_floor[dp_index] >= incumbent:
                    # No remaining candidate can *strictly* beat the branch
                    # incumbent (its floor is already >= the incumbent's
                    # minimised scalar, and ties keep the incumbent), so
                    # the whole tail is killed before its DP solves.
                    context.stats.candidates_killed_unevaluated += (
                        len(dp_candidates) - dp_index)
                    break

            def solve() -> DPSolution | None:
                solver = DPSolver(
                    env=self.env, job=job, partitions=partitions,
                    tp_options_per_stage=tp_options, microbatch_size=mbs,
                    data_parallel=dp,
                    num_microbatches=job.num_microbatches(dp, mbs),
                    goal=objective.goal, config=self.config.dp_config,
                    context=context, search_budget=search_budget)
                return solver.solve(resources, budget_per_iteration=budget)

            try:
                if memo_config is None:
                    solution = solve()
                else:
                    key = (pp, mbs, dp, memo_tp, memo_pool, budget,
                           memo_config)
                    solution = context.solution(key, solve)
            except SearchBudgetExhausted:
                # Salvage: the pre-deadline incumbent in ``outcome`` stands;
                # the aborted candidate joins the unexplored set below.
                context.stats.budget_interrupts += 1
                cut_from = dp_index
                break
            if solution is None:
                continue

            plan = self._build_plan(job, partitions, mbs, solution,
                                    consolidated)
            if plan is None:
                continue

            # Candidate-level incumbent gate (ROADMAP).  Two exact skip
            # rules, both replaying every observable side effect of the
            # full path from cheap vectorized checks so the chosen plan is
            # byte-identical with the gate on or off:
            #
            # 1. *Constraint violation*: a cost floor already over the
            #    budget (or a throughput ceiling under the floor) proves
            #    ``meets`` False no matter the incumbent -- the full path
            #    would evaluate, fail ``satisfied_by`` and move on, so the
            #    only bookkeeping to replay is the OOM counter.  This is
            #    what arms the gate on binding Table 3 budgets.
            # 2. *Incumbent beaten* (unconstrained objectives): when the
            #    floor already loses to the branch incumbent the candidate
            #    cannot become the new incumbent; the H3/H4 staleness
            #    bookkeeping's "score <= branch best" condition is proven
            #    by the same comparison.  With a cost/throughput bound this
            #    rule stays dormant unless rule 1 fired -- ``meets`` is
            #    never guessed; undecidable candidates take the full
            #    evaluation.
            if gate_armed:
                if budget is not None or min_throughput is not None:
                    violated = False
                    if budget is not None:
                        violated = self.simulator.cost_floor(plan) > budget
                    if not violated and min_throughput is not None:
                        floor = self.simulator.iteration_time_floor(plan)
                        if floor > 0:
                            violated = 1.0 / floor < min_throughput
                    if violated:
                        context.stats.gate_skips += 1
                        outcome.candidates_evaluated += 1
                        if self.simulator.oom_stages(plan):
                            outcome.oom_plans_generated += 1
                        continue
                elif outcome.evaluation is not None:
                    floor = self.simulator.iteration_time_floor(plan)
                    if maximize_throughput:
                        beaten = floor >= outcome.evaluation.iteration_time_s
                    else:
                        cost_floor = self.simulator.cost_floor(plan)
                        beaten = (cost_floor
                                  >= outcome.evaluation.cost_per_iteration_usd)
                    if beaten:
                        context.stats.gate_skips += 1
                        outcome.candidates_evaluated += 1
                        if self.simulator.oom_stages(plan):
                            outcome.oom_plans_generated += 1
                            continue
                        meets = (constraint.max_gpus is None
                                 or plan.total_gpus <= constraint.max_gpus)
                        if heuristics.ordered_data_parallel and meets:
                            stale += 1
                            if stale > self.config.dp_patience:
                                break
                        continue

            evaluation = self.simulator.evaluate(plan)
            outcome.candidates_evaluated += 1
            if not evaluation.is_valid:
                outcome.oom_plans_generated += 1
                continue
            meets = objective.constraint.satisfied_by(
                evaluation, total_gpus=plan.total_gpus)

            if meets and objective.better(evaluation, outcome.evaluation):
                outcome.plan, outcome.evaluation = plan, evaluation

            # H3/H4 early stop within this (P, mbs) branch.  Only feasible
            # candidates may update the branch incumbent or exhaust the
            # patience: an infeasible candidate's score is not attainable, so
            # letting it raise the bar could stop the branch before a valid
            # plan is found.
            if heuristics.ordered_data_parallel and meets:
                score = objective.score(evaluation)
                if (best_score_this_branch is not None
                        and score <= best_score_this_branch + 1e-12):
                    stale += 1
                    if stale > self.config.dp_patience:
                        break
                else:
                    stale = 0
                if best_score_this_branch is None or score > best_score_this_branch:
                    best_score_this_branch = score
        if cut_from is not None:
            outcome.complete = False
            outcome.unexplored_lb = self._unexplored_bound(
                job, objective, context, partitions, tp_options, mbs,
                dp_candidates[cut_from:])
        self._count_branch(context, outcome)
        return outcome

    @staticmethod
    def _count_branch(context: PlannerSearchContext,
                      outcome: _BranchOutcome) -> None:
        if outcome.complete:
            context.stats.branches_complete += 1
        else:
            context.stats.branches_incomplete += 1

    def _unexplored_bound(self, job: TrainingJobSpec, objective: Objective,
                          context: PlannerSearchContext, partitions,
                          tp_options: list[dict[str, list[int]]], mbs: int,
                          dp_candidates: list[int]) -> float:
        """Admissible lower bound over a branch's unexplored candidates.

        Modeled on ``DPSolver._prepare_bounds`` but availability-free: the
        per-stage minima range over *every* (node type, TP) option the
        branch admits -- a superset of what any placement could use, so the
        bound holds for every unexplored ``(P, mbs, D)`` candidate:

        * iteration time ``>= sum(best_time) + (Nb-1) * max(best_time)``
          (pipeline ramp with zero comm/sync/update overhead);
        * cost ``>= D * sum(best whole-node rate per replica) * time_lb``
          (compute at the time floor, zero egress).

        Both are floors of the *simulator's* evaluation, which is what the
        incumbent values the gap compares against.  The small relative
        slack absorbs float association drift between the bound arithmetic
        and the simulator's.  The same floors drive the candidate-ordering
        tail kill (``PlannerConfig.candidate_ordering``).
        """
        floors = self._stage_floors(context, partitions, tp_options, mbs)
        if floors is None:
            return math.inf  # no unexplored candidate can host every stage
        minimize_cost = objective.goal is OptimizationGoal.MIN_COST
        best = math.inf
        for dp in dp_candidates:
            value = self._candidate_floor(job, floors, mbs, dp, minimize_cost)
            if value < best:
                best = value
        return best

    @staticmethod
    def _stage_floors(context: PlannerSearchContext, partitions,
                      tp_options: list[dict[str, list[int]]], mbs: int,
                      ) -> tuple[float, float, float] | None:
        """Availability-free per-stage minima of one (P, mbs) branch.

        ``(sum of best stage times, max best stage time, sum of best
        per-replica whole-node rates)`` over *every* (node type, TP) option
        the branch admits -- a superset of what any placement could use --
        or ``None`` when some stage fits on no node type at all.
        """
        sum_t = 0.0
        max_t = 0.0
        rate_sum = 0.0
        for partition, options in zip(partitions, tp_options):
            best_time = math.inf
            best_rate = math.inf
            for node_type, tps in options.items():
                gpus = context.gpus_per_node(node_type)
                node_rate = gpus * context.gpu_price_per_second(node_type)
                for tp in tps:
                    compute = context.stage_compute_time(partition, mbs,
                                                         node_type, tp)
                    if compute < best_time:
                        best_time = compute
                    rate = node_rate / max(1, gpus // tp)
                    if rate < best_rate:
                        best_rate = rate
            if best_time == math.inf:
                return None
            sum_t += best_time
            if best_time > max_t:
                max_t = best_time
            rate_sum += best_rate
        return sum_t, max_t, rate_sum

    @staticmethod
    def _candidate_floor(job: TrainingJobSpec,
                         floors: tuple[float, float, float], mbs: int,
                         dp: int, minimize_cost: bool) -> float:
        """Admissible floor of one ``(P, mbs, D)`` candidate's minimised
        scalar (iteration time, or monetary cost per iteration), from the
        branch's ``_stage_floors``.  Slack as in ``_unexplored_bound``;
        applying it per candidate commutes with the min over candidates
        (multiplication by a positive constant is monotone), so the gap
        certificates are bit-identical to the pre-refactor arithmetic.
        """
        sum_t, max_t, rate_sum = floors
        nb = job.num_microbatches(dp, mbs)
        time_lb = sum_t + (nb - 1) * max_t
        value = (dp * rate_sum * time_lb if minimize_cost else time_lb)
        return value * _GAP_BOUND_SLACK

    def _family_floor(self, job: TrainingJobSpec,
                      context: PlannerSearchContext, partitions,
                      tp_options: list[dict[str, list[int]]], mbs: int,
                      pp: int, dp_candidates: list[int],
                      minimize_cost: bool) -> float:
        """Admissible floor of one (P, mbs) family's minimised scalar.

        ``min`` over the family's data-parallel members of the
        availability-free ``_candidate_floor`` -- a floor of every member,
        hence of the family's best.  Both levels are interval-memoised in
        the search context: the stage minima are availability-independent
        outright, and each member floor, once computed, stays valid for
        every later availability snapshot whose candidate list contains
        that member (a snapshot only decides *which* members exist, never
        what a member's floor is), so churn replans price their families
        from warm tables.
        """
        tp_key = tuple(tp_options_key(options) for options in tp_options)
        floors = context.family_stage_floors(
            pp, mbs, tp_key,
            lambda: self._stage_floors(context, partitions, tp_options, mbs))
        if floors is None:
            return math.inf
        members = context.family_member_floors(pp, mbs, tp_key)
        best = math.inf
        for dp in dp_candidates:
            value = members.get(dp)
            if value is None:
                value = self._candidate_floor(job, floors, mbs, dp,
                                              minimize_cost)
                members[dp] = value
            if value < best:
                best = value
        return best

    @staticmethod
    def _family_dominated(objective: Objective, family_floor: float | None,
                          incumbent: PlanEvaluation | None) -> bool:
        """The family-skip predicate, shared verbatim by the serial gate
        and the parallel driver's replay so the two can never diverge.
        ``None`` floor means the gate was not armed for the branch (never
        skip); otherwise skip exactly when no member could *strictly* beat
        the incumbent's minimised scalar."""
        if family_floor is None or incumbent is None:
            return False
        value = SailorPlanner._incumbent_value(objective, incumbent)
        return value > 0 and family_floor >= value

    @staticmethod
    def _availability_tables(context: PlannerSearchContext, partitions,
                             tp_options: list[dict[str, list[int]]],
                             mbs: int, pp: int,
                             resources: dict[tuple[str, str], int],
                             ) -> tuple | None:
        """Per-stage availability-aware floor tables, cached per pool.

        For each stage: every (zone, node type, TP) option the pool
        actually offers, ordered by whole-pool replica capacity
        descending, with a running prefix minimum of the stage compute
        time -- so a capacity-threshold query is a single bisect -- plus
        the minimum per-replica rate over the present options.  A ``None``
        stage entry marks a stage the pool cannot host at all (every
        candidate floor becomes +inf, vacuously admissible: the DP would
        find nothing either).  Cached per (branch, pool) signature in the
        search context, so churn replans against an unchanged pool reuse
        the tables warm (``SearchStats.availability_floor_hits``).
        """
        resources_key = tuple(sorted(
            (key, count) for key, count in resources.items() if count > 0))
        stage_keys = tuple(tp_options_key(options) for options in tp_options)
        signature = (pp, mbs, stage_keys, resources_key)

        def build() -> tuple:
            tables = []
            for partition, options, tp_key in zip(partitions, tp_options,
                                                  stage_keys):
                entries = []
                for option, max_replicas in context.stage_options(
                        options, tp_key, resources_key):
                    gpus = context.gpus_per_node(option.node_type)
                    node_rate = gpus * context.gpu_price_per_second(
                        option.node_type)
                    rate = node_rate / max(1, gpus // option.tensor_parallel)
                    compute = context.stage_compute_time(
                        partition, mbs, option.node_type,
                        option.tensor_parallel)
                    entries.append((max_replicas, compute, rate))
                if not entries:
                    tables.append(None)
                    continue
                # Negated capacities ascending: the options with capacity
                # >= k are exactly the prefix bisect_right(-k) selects.
                entries.sort(key=lambda entry: -entry[0])
                neg_caps = [-entry[0] for entry in entries]
                pref_min_t: list[float] = []
                best_t = math.inf
                min_rate = math.inf
                for _, compute, rate in entries:
                    if compute < best_t:
                        best_t = compute
                    pref_min_t.append(best_t)
                    if rate < min_rate:
                        min_rate = rate
                tables.append((neg_caps, pref_min_t, min_rate))
            return tuple(tables)

        return context.availability_floors(signature, build)

    @staticmethod
    def _candidate_floor_available(job: TrainingJobSpec, tables: tuple,
                                   mbs: int, dp: int, minimize_cost: bool,
                                   max_mixed: int) -> float:
        """Availability-aware admissible floor of one (P, mbs, D) candidate.

        A stage hosts its D replicas on at most ``min(2, max_mixed)``
        options (``stage_master_combos`` never mixes more than two per
        stage), so some option of any feasible combo carries at least
        ``k = ceil(D / min(2, max_mixed))`` replicas -- and only options
        whose *root-pool* capacity reaches ``k`` can be that carrier.  The
        stage's time is the max over its combo's options, hence >= the
        carrier's time >= the prefix minimum at the capacity threshold.
        DP sub-states only ever shrink capacities, so thresholding on the
        root pool keeps the admitted option set a superset of reality and
        the bound admissible.  The rate floor uses presence only
        (threshold 1): a combo option may carry a single replica.  Slack
        as in ``_candidate_floor``.
        """
        mixing = min(2, max(1, max_mixed))
        k = -(-dp // mixing)
        sum_t = 0.0
        max_t = 0.0
        rate_sum = 0.0
        for table in tables:
            if table is None:
                return math.inf
            neg_caps, pref_min_t, min_rate = table
            count = bisect.bisect_right(neg_caps, -k)
            if count == 0:
                return math.inf
            stage_t = pref_min_t[count - 1]
            sum_t += stage_t
            if stage_t > max_t:
                max_t = stage_t
            rate_sum += min_rate
        nb = job.num_microbatches(dp, mbs)
        time_lb = sum_t + (nb - 1) * max_t
        value = (dp * rate_sum * time_lb if minimize_cost else time_lb)
        return value * _GAP_BOUND_SLACK

    # -- helpers ------------------------------------------------------------------

    @staticmethod
    def _resource_map(topology: ClusterTopology) -> dict[tuple[str, str], int]:
        resources: dict[tuple[str, str], int] = {}
        for zone, per_type in topology.nodes.items():
            for node_type, count in per_type.items():
                if count > 0:
                    resources[(zone, node_type)] = count
        return resources

    @staticmethod
    def _max_data_parallel(resources: dict[tuple[str, str], int],
                           tp_options: list[dict[str, list[int]]],
                           pipeline_parallel: int) -> int:
        """Upper bound on the data-parallel degree the resources allow."""
        # Replica capacity of the whole pool for the cheapest (smallest TP)
        # option of each node type, divided across the pipeline stages.
        total_replica_slots = 0
        for (zone, node_type), count in resources.items():
            spec = get_node_type(node_type)
            min_tp = min((min(opts[node_type]) for opts in tp_options
                          if node_type in opts), default=None)
            if min_tp is None:
                continue
            total_replica_slots += count * (spec.gpus_per_node // min_tp)
        return max(0, total_replica_slots // max(1, pipeline_parallel))

    def _build_plan(self, job: TrainingJobSpec, partitions, microbatch_size: int,
                    solution: DPSolution,
                    consolidated: ConsolidatedTopology) -> ParallelizationPlan | None:
        """Materialise a DP solution into a plan on the *real* zones (H6)."""
        # Remaining real nodes per (zone, node type), shared across stages.
        remaining: dict[tuple[str, str], int] = {}
        for pseudo, members in consolidated.members.items():
            for zone, node_type, count in members:
                key = (zone, node_type)
                remaining[key] = remaining.get(key, 0) + count

        stages: list[StageConfig] = []
        for partition, assignment in zip(partitions, solution.assignments):
            replicas: list[StageReplica] = []
            for option, count in assignment.placements:
                placed = self._place_replicas(option, count, consolidated, remaining)
                if placed is None:
                    return None
                replicas.extend(placed)
            stages.append(StageConfig(partition=partition, replicas=replicas))
        try:
            return ParallelizationPlan(job=job, stages=stages,
                                       microbatch_size=microbatch_size)
        except ValueError:
            return None

    @staticmethod
    def _place_replicas(option: StageOption, count: int,
                        consolidated: ConsolidatedTopology,
                        remaining: dict[tuple[str, str], int],
                        ) -> list[StageReplica] | None:
        """Spread ``count`` replicas of one option over real zones' nodes."""
        real_zones = consolidated.real_zones(option.zone, option.node_type)
        if not real_zones:
            real_zones = [(option.zone, remaining.get((option.zone, option.node_type), 0))]
        replicas: list[StageReplica] = []
        open_zone: str | None = None
        open_slots = 0
        per_node = get_node_type(option.node_type).gpus_per_node
        for _ in range(count):
            if open_slots < option.tensor_parallel:
                # Open a new node in a real zone that still has capacity.
                open_zone = None
                for zone, _quota in real_zones:
                    if remaining.get((zone, option.node_type), 0) > 0:
                        remaining[(zone, option.node_type)] -= 1
                        open_zone = zone
                        open_slots = per_node
                        break
                if open_zone is None:
                    return None
            replicas.append(StageReplica(node_type=option.node_type,
                                         tensor_parallel=option.tensor_parallel,
                                         zone=open_zone))
            open_slots -= option.tensor_parallel
        return replicas


# ---------------------------------------------------------------------------
# Parallel search driver
# ---------------------------------------------------------------------------

#: Search invariants installed once per worker process (see _init_worker);
#: only (pp, mbs, wall_deadline) travel with each branch task.  The
#: in-process fallback path uses a local state dict instead, so a single
#: ParallelPlanner call in the main process never pins the environment here.
_WORKER_STATE: dict = {}


def _make_worker_state(env, job, objective, config, consolidated,
                       resources) -> dict:
    """Bundle one planning call's invariants, including the worker's shared
    search context (reused across every branch the worker executes, so the
    cross-candidate caches -- compute/sync/cost, master combos, and the
    resource-state engine's forward layer cache -- are shared by every
    (P, mbs, D) candidate the worker sees, exactly as in the serial driver)."""
    return {
        "planner": SailorPlanner(env, config=config),
        "job": job,
        "objective": objective,
        "consolidated": consolidated,
        "resources": resources,
        "context": PlannerSearchContext(env, job, objective.goal),
    }


def _init_worker(payload: bytes) -> None:
    """Process-pool initializer: receive the per-call invariants once.

    The driver pre-serializes the invariants -- dominated by the profile
    store inside the environment -- into one pickle blob, so the expensive
    object-graph walk happens once per planning call instead of once per
    worker process (initargs are re-pickled for every worker; a ``bytes``
    payload makes that re-pickling a memcpy).  This is the fallback path
    when the shared-memory store is unavailable; see :func:`_init_worker_shm`.
    """
    _WORKER_STATE.clear()
    _WORKER_STATE.update(_make_worker_state(*pickle.loads(payload)))


def _init_worker_shm(name: str, size: int) -> None:
    """Process-pool initializer: attach to the driver's shared-memory blob.

    The driver writes the pre-serialized invariants into one
    ``multiprocessing.shared_memory`` segment; each worker attaches, reads
    the ``size`` payload bytes and unpickles locally.  Unlike the ``bytes``
    initargs fallback the blob is never copied through the executor's task
    pipe per worker -- only ``(name, size)`` travels -- which is what makes
    worker startup O(1) in the profile-store size.  The driver owns the
    segment's lifetime and unlinks it once the pool is done.  (CPython <=
    3.12 registers the segment with the resource tracker on *attach* too;
    under the fork start method the workers share the driver's tracker, so
    the duplicate registrations collapse and the driver's ``unlink``
    retires the single entry.  Under spawn a worker-owned tracker may
    unlink the segment first -- after every branch result has already been
    returned -- which the driver's unlink tolerates.)
    """
    segment = shared_memory.SharedMemory(name=name)
    try:
        payload = bytes(segment.buf[:size])
    finally:
        segment.close()
    _init_worker(payload)


def _maybe_inject_fault(pp: int, mbs: int) -> None:
    """Test-only fault hook for the fault-tolerant parallel driver.

    Armed via environment variables (modeled on the seeded fault scenarios
    in :mod:`repro.runtime.faults`, but at the *planner worker* layer):

    * ``SAILOR_PLANNER_FAULT="<kind>:<pp>:<mbs>[:<seconds>]"`` -- fire on
      the matching branch (``*`` wildcards both selectors).  ``sigkill``
      terminates the worker process uncleanly mid-branch (the
      ``BrokenProcessPool`` salvage path); ``hang`` sleeps for ``seconds``
      (default 30) to wedge the worker (the per-branch-timeout path).
    * ``SAILOR_PLANNER_FAULT_ONCE=<path>`` -- fire only once across every
      process that sees the spec, via atomic create of ``path`` (so the
      retry pool succeeds and the salvage can be asserted lossless).

    The hook only ever fires in a pool worker (never in the driver or the
    inline re-run), so an armed fault cannot take down the planning call.
    """
    spec = os.environ.get("SAILOR_PLANNER_FAULT")
    if not spec:
        return
    parts = spec.split(":")
    if len(parts) < 3:
        return
    kind, want_pp, want_mbs = parts[0], parts[1], parts[2]
    if want_pp not in ("*", str(pp)) or want_mbs not in ("*", str(mbs)):
        return
    if multiprocessing.parent_process() is None:
        return  # never fault the driver process
    once_path = os.environ.get("SAILOR_PLANNER_FAULT_ONCE")
    if once_path:
        try:
            os.close(os.open(once_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return  # the fault already fired once
    if kind == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "hang":
        time.sleep(float(parts[3]) if len(parts) > 3 else 30.0)


def _plan_branch_task(payload: tuple,
                      state: dict | None = None,
                      ) -> tuple[_BranchOutcome, SearchStats]:
    """Worker entry point: search one (P, mbs) branch.

    ``wall_deadline`` is an absolute ``time.time()`` instant shared by every
    branch task, so ``time_limit_s`` bounds the whole planning call rather
    than restarting per branch; it is converted to this process's
    ``perf_counter`` timeline on entry.  The worker's search context is
    shared across its branches, so the returned stats are the *delta* this
    branch contributed (summing deltas across tasks equals the total work).
    """
    pp, mbs, wall_deadline = payload
    if state is None:
        state = _WORKER_STATE
        _maybe_inject_fault(pp, mbs)
    planner = state["planner"]
    job = state["job"]
    objective = state["objective"]
    context = state["context"]
    before = context.stats.copy()
    # lint: disable=determinism -- rebases the shared wall-clock deadline
    # onto this worker's perf_counter epoch; the clock reaches the search
    # only through the SearchBudget built from it.
    deadline = (None if wall_deadline is None
                else time.perf_counter() + (wall_deadline - time.time()))
    search_budget = SearchBudget.maybe(deadline,
                                       planner.config.max_search_nodes)
    outcome = planner._plan_branch(job, objective, state["consolidated"],
                                   state["resources"], pp, mbs, context,
                                   search_budget)
    return outcome, context.stats.diff(before)


class ParallelPlanner:
    """Opt-in multi-process driver for the Sailor planner search.

    The (pipeline depth, microbatch size) branches of the search are
    independent -- they share no incumbent and no early-stop state -- so
    they can run in separate worker processes.  Each worker builds its own
    :class:`~repro.core.search_cache.PlannerSearchContext`, returns its
    branch's best scored plan, and the driver merges the branch winners *in
    branch order* with the same comparison the serial search uses, so the
    chosen plan is identical to the serial planner's.

    The planning invariants (dominated by the profile store inside the
    environment) are pickled once per call and published through a
    ``multiprocessing.shared_memory`` segment that workers attach to, so
    worker startup cost is independent of the profile-store size; the
    ``bytes``-initargs path remains as a fallback for platforms without
    shared memory.

    ``time_limit_s`` bounds the whole planning call: the driver fixes one
    absolute wall-clock deadline up front and every branch task honours it,
    so late-starting branches get only the time that remains.
    """

    name = "sailor"

    def __init__(self, env: SimulationEnvironment,
                 config: PlannerConfig | None = None,
                 max_workers: int | None = None) -> None:
        self.env = env
        self.config = config or PlannerConfig()
        self.max_workers = (max_workers or self.config.parallel_workers
                            or os.cpu_count() or 1)

    def plan(self, job: TrainingJobSpec, topology: ClusterTopology,
             objective: Objective | None = None) -> PlannerResult:
        """Search for the best plan, fanning branches out over processes."""
        objective = objective or Objective.max_throughput()
        # lint: disable=determinism -- observability (search_time_s) only.
        start = time.perf_counter()
        heuristics = self.config.heuristics

        consolidated = consolidate_zones(topology, heuristics)
        resources = SailorPlanner._resource_map(consolidated.topology)
        total_nodes = sum(resources.values())
        specs = SailorPlanner._branch_specs(job, total_nodes, heuristics)

        # Workers must not recurse into the parallel driver themselves.
        worker_config = replace(self.config, parallel_workers=None)
        # One absolute deadline for the whole call, on the wall clock so it
        # is meaningful in every worker process.
        # lint: disable=determinism -- the cross-process anytime deadline;
        # each worker rebases it into a SearchBudget, the sole gate through
        # which it can truncate (never reorder) the search.
        wall_deadline = (None if self.config.time_limit_s is None
                         else time.time() + self.config.time_limit_s)
        invariants = (self.env, job, objective, worker_config, consolidated,
                      resources)
        payloads = [(pp, mbs, wall_deadline) for pp, mbs in specs]

        stats = SearchStats()
        salvaged: list[str] = []
        if len(payloads) <= 1 or self.max_workers <= 1:
            local_state = _make_worker_state(*invariants)
            results = [_plan_branch_task(payload, state=local_state)
                       for payload in payloads]
        else:
            workers = min(self.max_workers, len(payloads))
            # Serialize the invariants (profiles included) exactly once and
            # publish them through a shared-memory segment the workers
            # attach to; when shared memory is unavailable (no /dev/shm,
            # exotic platforms) fall back to shipping the blob via initargs.
            #
            # Lifecycle: the single try/finally below starts *before* the
            # segment is created, so every exit path -- a worker raising a
            # genuine error mid-branch (re-raised by the gather), pool
            # shutdown on KeyboardInterrupt, and even a non-OSError between
            # creation and the pool block -- retires the segment.  (An
            # OSError during creation/population falls back to
            # initargs-bytes; a half-created segment from that path is
            # retired by the same finally.)  The segment outlives the retry
            # pool too, so retried branches reuse the same initializer.
            blob = pickle.dumps(invariants, protocol=pickle.HIGHEST_PROTOCOL)
            segment = None
            try:
                try:
                    segment = shared_memory.SharedMemory(create=True,
                                                         size=max(1, len(blob)))
                    segment.buf[:len(blob)] = blob
                    initializer, initargs = _init_worker_shm, (segment.name,
                                                               len(blob))
                except OSError:
                    initializer, initargs = _init_worker, (blob,)
                # Fault-tolerant gather: a crashed (BrokenProcessPool) or
                # wedged (per-branch timeout) worker marks its branches
                # dead instead of killing the call.  Dead branches are
                # retried once on a fresh pool, then re-run inline
                # serially; the merged result lists them and is marked
                # incomplete even when fully recovered.
                results, dead = self._run_pool(payloads, workers,
                                               initializer, initargs)
                if dead:
                    salvaged = [f"P{payloads[i][0]}/mbs{payloads[i][1]}"
                                for i in dead]
                    retry_payloads = [payloads[i] for i in dead]
                    retried, still_dead = self._run_pool(
                        retry_payloads, min(workers, len(dead)),
                        initializer, initargs)
                    for offset, index in enumerate(dead):
                        results[index] = retried[offset]
                    if still_dead:
                        # Inline re-run in the driver process: the fault
                        # hook never fires here, and a genuine error
                        # surfaces with its real traceback.
                        local_state = _make_worker_state(*invariants)
                        for offset in still_dead:
                            index = dead[offset]
                            results[index] = _plan_branch_task(
                                payloads[index], state=local_state)
            finally:
                if segment is not None:
                    segment.close()
                    try:
                        segment.unlink()
                    except FileNotFoundError:
                        pass  # a worker's resource tracker beat us to it

        # Replay the serial driver's dominated-family skips (see
        # PlannerConfig.family_interval_memo): workers run with no
        # cross-branch incumbent -- they only *price* their family -- so
        # the driver re-takes the serial skip decisions in branch order
        # from the reported floors, through the same shared predicate.  A
        # dropped branch is replaced by exactly what a serial skip
        # produces: an empty complete outcome plus a stats delta of one
        # skipped family (zero DP solves, zero evaluations), which keeps
        # the chosen plan, candidates_evaluated and nodes_explored
        # byte-identical to the serial search.  A dropped branch cannot
        # have carried the winner: its best evaluation is >= its family
        # floor >= the incumbent's minimised scalar, and
        # ``Objective.better`` is strict.
        if self.config.family_interval_memo:
            incumbent_eval = None
            for index, (outcome, _) in enumerate(results):
                if SailorPlanner._family_dominated(
                        objective, outcome.family_floor, incumbent_eval):
                    results[index] = (
                        _BranchOutcome(label=outcome.label,
                                       family_floor=outcome.family_floor),
                        SearchStats(families_skipped=1, branches_complete=1))
                elif (outcome.evaluation is not None
                      and objective.better(outcome.evaluation,
                                           incumbent_eval)):
                    incumbent_eval = outcome.evaluation

        for _, branch_stats in results:
            stats.merge(branch_stats)
        outcomes = [outcome for outcome, _ in results]
        best_plan, best_eval, candidates, ooms = SailorPlanner._merge_outcomes(
            objective, outcomes)
        complete, gap, incomplete = SailorPlanner._anytime_summary(
            objective, outcomes, best_eval)
        if salvaged:
            # Fault-degraded: even a lossless salvage is reported as
            # incomplete so callers can tell a degraded call from a clean
            # one (the gap still certifies the recovered values).
            complete = False
            affected = set(salvaged)
            incomplete = [o.label for o in outcomes
                          if not o.complete or o.label in affected]

        notes = (f"parallel driver, "
                 f"{min(self.max_workers, max(1, len(payloads)))} workers")
        if salvaged:
            notes += f", salvaged {len(salvaged)} branch(es)"
        return PlannerResult(
            plan=best_plan,
            evaluation=best_eval,
            # lint: disable=determinism -- reporting only, not plan-affecting.
            search_time_s=time.perf_counter() - start,
            planner_name=self.name,
            candidates_evaluated=candidates,
            oom_plans_generated=ooms,
            notes=notes,
            search_stats=stats,
            complete=complete,
            optimality_gap_bound=gap,
            incomplete_branches=incomplete,
        )

    def _run_pool(self, payloads: list[tuple], workers: int,
                  initializer, initargs,
                  ) -> tuple[list, list[int]]:
        """Run branch tasks on one pool; report dead indices, don't raise.

        Returns ``(results, dead)`` where ``results[i]`` is the task result
        or None for every index in ``dead``.  Only worker *death* is
        absorbed -- ``BrokenProcessPool`` (crash) and the per-branch
        timeout (wedge, with ``branch_timeout_s`` grace beyond the call
        deadline).  Genuine task exceptions (and ``KeyboardInterrupt``)
        propagate exactly as under the old ``pool.map`` driver.
        """
        grace = self.config.branch_timeout_s
        gather_deadline = None
        if grace is not None:
            # lint: disable=determinism -- wedge detection in the
            # fault-tolerant gather: decides when to *salvage* a branch,
            # and a salvaged branch re-runs the same deterministic search,
            # so the chosen plan cannot depend on this clock.
            gather_deadline = (time.monotonic() + grace
                               + (self.config.time_limit_s or 0.0))
        results: list = [None] * len(payloads)
        dead: list[int] = []
        pool = ProcessPoolExecutor(max_workers=workers,
                                   initializer=initializer,
                                   initargs=initargs)
        try:
            futures: list = []
            for payload in payloads:
                try:
                    futures.append(pool.submit(_plan_branch_task, payload))
                except BrokenProcessPool:
                    futures.append(None)  # pool died mid-submit
            for index, future in enumerate(futures):
                if future is None:
                    dead.append(index)
                    continue
                # lint: disable=determinism -- same wedge-detection clock as
                # gather_deadline above; affects recovery timing only.
                timeout = (None if gather_deadline is None
                           else max(0.0, gather_deadline - time.monotonic()))
                try:
                    results[index] = future.result(timeout=timeout)
                except (BrokenProcessPool, _FuturesTimeout):
                    dead.append(index)
        finally:
            # A clean pool drains normally; a pool with dead branches is
            # abandoned without waiting and its workers are killed, so a
            # wedged worker cannot pin the process (or the retry) forever.
            pool.shutdown(wait=not dead, cancel_futures=bool(dead))
            if dead:
                processes = dict(getattr(pool, "_processes", None) or {})
                for process in processes.values():
                    try:
                        process.kill()
                    # lint: disable=swallowed-exceptions -- racing a normal
                    # exit of a process we are killing anyway; there is
                    # nothing to recover and nothing worth reporting.
                    except Exception:
                        pass
        return results, dead
