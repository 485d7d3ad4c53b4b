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

The search walks its ``(pipeline depth, microbatch size)`` branches in
order, carrying the best plan so far across branches: that incumbent is
what lets the dominated-family skip drop whole branches, and the tail
kill drop the rest of a branch, before their DP solves.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from repro.collectives import ring_allreduce_time
from repro.core.budget import SearchBudget, SearchBudgetExhausted, SearchClock
from repro.core.dp_solver import DPSolver, DPSolution, StageOption
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
    StageConfig,
    StageReplica,
)
from repro.core.search_cache import (
    MAX_MIXED_TYPES_PER_STAGE,
    PlannerSearchContext,
    tp_options_key,
)
from repro.core.simulator import SailorSimulator, SimulationEnvironment
from repro.hardware.network import LinkClass
from repro.hardware.nodes import get_node_type
from repro.hardware.topology import ClusterTopology
from repro.models.spec import TrainingJobSpec


#: Relative slack on the per-candidate floors
#: (``SailorPlanner._candidate_floor_available``) that price the family
#: skip, the tail kill and the gap certificate: keeps them admissible under
#: float association drift between the floor arithmetic and the simulator's
#: evaluation of the same stage times.
_GAP_BOUND_SLACK = 1.0 - 1e-9

#: Stop exploring further data-parallel degrees of a branch after this many
#: consecutive non-improving candidates (H3/H4 early stop).
DP_PATIENCE = 1


@dataclass
class PlannerConfig:
    """Configuration of the Sailor planner search."""

    # lint: disable=cache-key -- composite: shapes candidate *enumeration*
    # only; every cached artifact is keyed by the full (partition, mbs,
    # node type, TP, resources) tuple it describes, so changing the
    # heuristics reroutes lookups rather than forking cached values.
    heuristics: HeuristicConfig = field(default_factory=HeuristicConfig)
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
    #: cooperative cancellation ticks.  One tick is one recursion node, one
    #: budget-scan combo, one straggler iteration -- or one whole engine
    #: layer or forward chunk, however many states it holds.  So the unit
    #: is not ``SearchStats.nodes_explored``, which counts every engine
    #: state: the full 128-GPU search takes 552 ticks for 15,711 nodes.
    #: Gives tests a wall-clock-free way to exercise the anytime path.
    # lint: disable=cache-key -- same contract as time_limit_s: enters the
    # search only through SearchBudget, which unwinds before cache writes.
    max_search_nodes: int | None = None

    def __post_init__(self) -> None:
        # A NaN deadline never trips (``now >= nan`` is always False) and a
        # past one cuts every branch before its first solve, so both would
        # silently mis-plan rather than fail.
        if self.time_limit_s is not None and not (
                math.isfinite(self.time_limit_s) and self.time_limit_s > 0):
            raise ValueError("time_limit_s must be None or a finite number "
                             f"> 0, got {self.time_limit_s}")
        if self.max_search_nodes is not None and self.max_search_nodes < 1:
            raise ValueError("max_search_nodes must be None or >= 1, got "
                             f"{self.max_search_nodes}")


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
    #: Admissible floor of the whole family's minimised scalar: the first
    #: of the branch's suffix-minimum candidate floors (the family skip in
    #: ``SailorPlanner._plan_branch``); ``None`` when the family gate was
    #: not armed for this branch (no TP options, no DP candidates).
    family_floor: float | None = None


@dataclass
class _FloorTables:
    """One ``availability_floors`` entry: a branch's candidate-floor inputs
    on one pool (see ``SailorPlanner._availability_tables``) plus the
    per-D floors ``SailorPlanner._candidate_floor_available`` computed
    from them."""

    #: Per stage ``(negated capacities, prefix-min times, min rate)``;
    #: ``(None,)`` when some stage has no option on the pool.
    carriers: tuple
    #: GPUs of the pool's node types that some stage can use.
    pool_gpus: int = 0
    #: Pigeonhole tables (``_knapsack_table`` / ``_bottleneck_table``).
    knap_tp: list[int] = field(default_factory=list)
    knap_t: list[float] = field(default_factory=list)
    bott_neg_tp: list[int] = field(default_factory=list)
    bott_t: list[float] = field(default_factory=list)
    #: Per distinct stage ``(messages, intra-zone profiles, leader
    #: profiles)`` (``_sync_inputs``).
    sync: tuple = ()
    #: Most real zones (before H6 consolidation) of one region: the
    #: widest leader ring a stage can run.
    ring_zones: int = 1
    #: ``(dp, minimize_cost)`` -> floor.
    floors: dict = field(default_factory=dict)


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
        compute/sync/cost tables, master combos, floor tables and whole DP
        solves across calls with zero invalidation, and the chosen plan
        stays identical to a from-scratch solve on the same pool.  The reported
        ``search_stats`` are always the *delta* this call contributed.
        """
        objective = objective or Objective.max_throughput()
        clock = SearchClock()
        heuristics = self.config.heuristics

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
            clock.deadline(self.config.time_limit_s),
            self.config.max_search_nodes)
        # The solve memo is skipped under a deterministic node budget: a
        # hit spends no ticks, so warm and cold runs would cut at
        # different candidates.
        memo = search_budget is None or search_budget.max_ticks is None

        # Every branch is visited even after the budget trips: an expired
        # branch skips its DP solves and only prices its unexplored
        # candidates (a bounded epilogue), which is what makes the reported
        # optimality gap admissible over the *whole* candidate space.
        # The running cross-branch incumbent is both the winner (the first
        # strictly better branch best, in branch order) and what arms the
        # dominated-family gate of later branches.
        outcomes: list[_BranchOutcome] = []
        best_plan: ParallelizationPlan | None = None
        best_eval: PlanEvaluation | None = None
        candidates = 0
        ooms = 0
        for pp, mbs in self._branch_specs(job, total_nodes, heuristics):
            outcome = self._plan_branch(job, objective, consolidated,
                                        resources, pp, mbs, context,
                                        search_budget, incumbent=best_eval,
                                        memo=memo)
            outcomes.append(outcome)
            candidates += outcome.candidates_evaluated
            ooms += outcome.oom_plans_generated
            if (outcome.evaluation is not None
                    and objective.better(outcome.evaluation, best_eval)):
                best_plan, best_eval = outcome.plan, outcome.evaluation
        complete, gap, incomplete = self._anytime_summary(
            objective, outcomes, best_eval)

        return PlannerResult(
            plan=best_plan,
            evaluation=best_eval,
            search_time_s=clock.elapsed_s(),
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
        """The (pipeline depth, microbatch size) branches, in the order the
        search explores them."""
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
                     memo: bool = False,
                     ) -> _BranchOutcome:
        """Search every data-parallel candidate of one (P, mbs) branch.

        With a ``search_budget``, expiry between candidates (or a
        :class:`~repro.core.budget.SearchBudgetExhausted` raised inside a
        solve) keeps the branch incumbent found so far and prices the
        unexplored candidates with an admissible lower bound, so the
        result can certify its remaining optimality gap.

        ``memo`` turns on the context's whole-solve memo
        (:meth:`PlannerSearchContext.solution`); ``False`` solves every
        candidate afresh.
        """
        heuristics = self.config.heuristics
        outcome = _BranchOutcome(label=f"P{pp}/mbs{mbs}")
        maximize_throughput = objective.goal is OptimizationGoal.MAX_THROUGHPUT
        budget = objective.constraint.max_cost_per_iteration_usd

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

        # One admissible floor per data-parallel candidate, turned into
        # suffix minima so ``floors[i]`` bounds every candidate from ``i``
        # on.  The floors come from the pool-aware tables of
        # ``_availability_tables`` (see ``_candidate_floor_available``),
        # cached with their per-D floors per (branch, pool) so churn
        # replans against an unchanged pool reuse them warm.  They are
        # simulator floors, not the DP engine's ``cost_lb`` tables: every
        # decision below compares them against the *simulator's* incumbent
        # value, which the DP model does not bound.  The one list prices
        # the family skip (``floors[0]``), the tail kill (``floors[i]``)
        # and the anytime gap certificate (``floors[cut_from]``); each
        # covers candidates solved on this same ``resources`` pool, so a
        # pool-aware floor is admissible for all three.
        floors: list[float] = []
        if dp_candidates:
            tables = self._availability_tables(
                context, consolidated, partitions, tp_options, mbs, pp,
                resources)
            floors = [
                self._candidate_floor_available(job, tables, mbs, dp,
                                                not maximize_throughput)
                for dp in dp_candidates]
            for i in range(len(floors) - 2, -1, -1):
                if floors[i + 1] < floors[i]:
                    floors[i] = floors[i + 1]

        # Dominated-family skip: skip the whole family -- before any DP
        # solve -- when its best floor provably cannot *strictly* beat the
        # cross-branch incumbent.  Value-preserving: ``Objective.better``
        # is strict, so no skipped member could have replaced the
        # incumbent, and a skip removes an entire family (a
        # within-enumeration-order cut), so no surviving branch sees
        # different H3/H4 or tie-break state.
        if floors:
            outcome.family_floor = floors[0]
            if self._family_dominated(objective, outcome.family_floor,
                                      incumbent):
                context.stats.families_skipped += 1
                self._count_branch(context, outcome)
                return outcome

        if memo:
            # The raw root pool exactly as the solver normalises it, so a
            # memo hit is exact by construction.
            memo_pool = tuple(sorted((key, count)
                                     for key, count in resources.items()
                                     if count > 0))
            memo_tp = tuple(tp_options_key(opts) for opts in tp_options)

        incumbent_value = (None if incumbent is None
                           else self._incumbent_value(objective, incumbent))
        stale = 0
        best_score_this_branch: float | None = None
        cut_from: int | None = None
        for dp_index, dp in enumerate(dp_candidates):
            if search_budget is not None and search_budget.expired():
                cut_from = dp_index
                break
            # Tail kill: ``floors[dp_index]`` prices the whole unexplored
            # tail, which is killed before its DP solves once that floor
            # reaches ``min(branch best, cross-branch incumbent)``.
            # Value-preserving because ``Objective.better`` is strict: a
            # tail whose floor reaches the branch best cannot replace it,
            # and one whose floor reaches the cross-branch incumbent cannot
            # win the search, since a winner must strictly beat that
            # incumbent.  Only whole tails are killed, so the H3/H4
            # staleness and tie-break state of every surviving candidate
            # is unchanged.  (Physically re-sorting the candidates by
            # floor would *not* be: the H3/H4 early stop and the
            # first-wins tie-break are order-dependent.)
            kill_at = incumbent_value
            if outcome.evaluation is not None:
                branch_best = self._incumbent_value(objective,
                                                    outcome.evaluation)
                if kill_at is None or branch_best < kill_at:
                    kill_at = branch_best
            if kill_at is not None and 0 < kill_at <= floors[dp_index]:
                context.stats.candidates_killed_unevaluated += (
                    len(dp_candidates) - dp_index)
                break

            def solve() -> DPSolution | None:
                solver = DPSolver(
                    env=self.env, job=job, partitions=partitions,
                    tp_options_per_stage=tp_options, microbatch_size=mbs,
                    data_parallel=dp,
                    num_microbatches=job.num_microbatches(dp, mbs),
                    goal=objective.goal, context=context,
                    search_budget=search_budget)
                return solver.solve(resources, budget_per_iteration=budget)

            try:
                if memo:
                    key = (pp, mbs, dp, memo_tp, memo_pool, budget)
                    solution = context.solution(key, solve)
                else:
                    solution = solve()
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
                    if stale > DP_PATIENCE:
                        break
                else:
                    stale = 0
                if best_score_this_branch is None or score > best_score_this_branch:
                    best_score_this_branch = score
        if cut_from is not None:
            outcome.complete = False
            outcome.unexplored_lb = floors[cut_from]
        self._count_branch(context, outcome)
        return outcome

    @staticmethod
    def _count_branch(context: PlannerSearchContext,
                      outcome: _BranchOutcome) -> None:
        if outcome.complete:
            context.stats.branches_complete += 1
        else:
            context.stats.branches_incomplete += 1

    @staticmethod
    def _family_dominated(objective: Objective, family_floor: float | None,
                          incumbent: PlanEvaluation | None) -> bool:
        """The family-skip predicate of ``_plan_branch``.  ``None`` floor
        means the gate was not armed for the branch (never skip); otherwise
        skip exactly when no member could *strictly* beat the incumbent's
        minimised scalar."""
        if family_floor is None or incumbent is None:
            return False
        value = SailorPlanner._incumbent_value(objective, incumbent)
        return value > 0 and family_floor >= value

    @staticmethod
    def _availability_tables(context: PlannerSearchContext,
                             consolidated: ConsolidatedTopology, partitions,
                             tp_options: list[dict[str, list[int]]],
                             mbs: int, pp: int,
                             resources: dict[tuple[str, str], int],
                             ) -> _FloorTables:
        """Per-branch inputs of the candidate floors, cached per pool.

        For each stage: every (zone, node type, TP) option the pool
        actually offers, ordered by whole-pool replica capacity
        descending, with a running prefix minimum of the stage compute
        time -- so a capacity-threshold query is a single bisect -- plus
        the minimum per-replica rate over the present options.  Carriers
        ``(None,)`` mark a pool some stage cannot use at all (every
        candidate floor becomes +inf, vacuously admissible: the DP would
        find nothing either).  Across stages: the pool's usable GPUs, the
        multiple-choice knapsack and bottleneck tables of the pigeonhole
        pipeline term, and each distinct stage's gradient all-reduce
        inputs (message sizes, link profiles, the real zones a leader ring
        can span).  Cached per (branch, pool, real-zone count) signature
        in the search context, together with the per-D floors computed
        from them, so churn replans against an unchanged pool reuse both
        warm (``SearchStats.availability_floor_hits``).  The real-zone
        count enters the signature because H6 consolidation hides it: two
        topologies with the same consolidated pool can differ in the
        leader rings their stages may run.
        """
        resources_key = tuple(sorted(
            (key, count) for key, count in resources.items() if count > 0))
        stage_keys = tuple(tp_options_key(options) for options in tp_options)
        # A stage's combos stay within one region (H5), so its replicas
        # can spread over at most the largest region's real zones.
        zones_per_region: dict[str, int] = {}
        for zone in sorted({zone for members in consolidated.members.values()
                            for zone, _, count in members if count > 0}):
            region = context.region_of(zone)
            zones_per_region[region] = zones_per_region.get(region, 0) + 1
        ring_zones = max(zones_per_region.values(), default=1)
        signature = (pp, mbs, stage_keys, resources_key, ring_zones)

        def build() -> _FloorTables:
            carriers = []
            choices = []
            sync_specs = {}
            for partition, options, tp_key in zip(partitions, tp_options,
                                                  stage_keys):
                entries = []
                stage_choices = set()
                tps = set()
                node_types = set()
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
                    stage_choices.add((compute, option.tensor_parallel))
                    tps.add(option.tensor_parallel)
                    node_types.add(option.node_type)
                if not entries:
                    return _FloorTables(carriers=(None,))
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
                carriers.append((neg_caps, pref_min_t, min_rate))
                choices.append(sorted(stage_choices))
                spec = (context.stage_params(partition), tuple(sorted(tps)),
                        tuple(sorted(node_types)))
                if spec not in sync_specs:
                    sync_specs[spec] = SailorPlanner._sync_inputs(
                        context, *spec)
            usable = {node_type for options in tp_options
                      for node_type in options}
            pool_gpus = sum(count * context.gpus_per_node(node_type)
                            for (_, node_type), count in resources_key
                            if node_type in usable)
            knap_tp, knap_t = SailorPlanner._knapsack_table(choices)
            bott_neg_tp, bott_t = SailorPlanner._bottleneck_table(choices)
            return _FloorTables(
                carriers=tuple(carriers), pool_gpus=pool_gpus,
                knap_tp=knap_tp, knap_t=knap_t,
                bott_neg_tp=bott_neg_tp, bott_t=bott_t,
                sync=tuple(sync_specs.values()), ring_zones=ring_zones)

        return context.availability_floors(signature, build)

    @staticmethod
    def _sync_inputs(context: PlannerSearchContext, params: int,
                     tps: tuple[int, ...], node_types: tuple[str, ...],
                     ) -> tuple:
        """``(messages, intra-zone profiles, leader profiles)`` of one stage.

        The messages are every value the simulator's all-reduce message
        (``params / tp * 2.0`` for the least-sharded replica) can take on
        the stage's TP degrees; the profiles are every fitted curve its
        worst-link search can return between the stage's node types, in
        one zone and across zones of a region.  A pair with no profile is
        skipped: the simulator cannot evaluate a plan that needs it either.
        """
        messages = tuple(sorted({params / tp * 2.0 for tp in tps}))

        def profiles(link_class: LinkClass) -> tuple:
            found = {}
            for node_a in node_types:
                for node_b in node_types:
                    try:
                        profile = context.env.profiles.network_profile(
                            node_a, node_b, link_class)
                    except KeyError:
                        continue
                    found[id(profile)] = profile
            return tuple(found.values())

        return (messages, profiles(LinkClass.INTRA_ZONE),
                profiles(LinkClass.INTER_ZONE))

    @staticmethod
    def _knapsack_table(choices: list[list[tuple[float, int]]],
                        ) -> tuple[list[int], list[float]]:
        """Multiple-choice knapsack over one ``(time, GPUs)`` pick per stage.

        Returns the achievable GPU totals ascending and, for each, the
        least ``sum(time)`` of any pick using at most that many GPUs (a
        prefix minimum), so a capacity query is one bisect.  The dict DP
        holds at most ``P * max_tp`` totals; times add in stage order, as
        the simulator's warm-up sum does.
        """
        best = {0: 0.0}
        for stage_choices in choices:
            step: dict[int, float] = {}
            for gpus, total in best.items():
                for time_s, tp in stage_choices:
                    key = gpus + tp
                    value = total + time_s
                    if value < step.get(key, math.inf):
                        step[key] = value
            best = step
        knap_tp = sorted(best)
        knap_t: list[float] = []
        running = math.inf
        for gpus in knap_tp:
            running = min(running, best[gpus])
            knap_t.append(running)
        return knap_tp, knap_t

    @staticmethod
    def _bottleneck_table(choices: list[list[tuple[float, int]]],
                          ) -> tuple[list[int], list[float]]:
        """Least GPUs a pipeline needs to keep every stage at or under T.

        For each option time T ascending, ``sum_s min{tp : t_s <= T}``
        (stages with no option that fast make T unreachable and are left
        out).  The sums are non-increasing in T, so they are returned
        negated (ascending) for a bisect, beside their times.
        """
        times = sorted({time_s for stage_choices in choices
                        for time_s, _ in stage_choices})
        neg_gpus: list[int] = []
        bott_t: list[float] = []
        for limit in times:
            total = 0
            for stage_choices in choices:
                fitting = [tp for time_s, tp in stage_choices
                           if time_s <= limit]
                if not fitting:
                    break
                total += min(fitting)
            else:
                neg_gpus.append(-total)
                bott_t.append(limit)
        return neg_gpus, bott_t

    @staticmethod
    def _pipeline_time_lb(tables: _FloorTables, dp: int,
                          num_microbatches: int) -> float:
        """Pigeonhole floor on the slowest pipeline's 1F1B time.

        The ``dp`` pipelines share ``pool_gpus`` GPUs and a replica of TP t
        holds at least t of them, so some pipeline holds at most
        ``cap = pool_gpus // dp``.  That pipeline picks one present option
        per stage with ``sum(tp) <= cap``: its warm-up sum is at least the
        knapsack minimum at ``cap``, and its slowest stage is at least the
        least T whose per-stage cheapest-fitting TPs sum to ``<= cap``.
        Its 1F1B time ``sum(t) + (Nb-1) * max(t)`` (plus non-negative
        transfers) is therefore ``>= knap + (Nb-1) * bott``, and the
        iteration waits for its slowest pipeline.  +inf when no pick fits.
        """
        cap = tables.pool_gpus // dp
        count = bisect.bisect_right(tables.knap_tp, cap)
        index = bisect.bisect_left(tables.bott_neg_tp, -cap)
        if count == 0 or index == len(tables.bott_t):
            return math.inf
        return (tables.knap_t[count - 1]
                + (num_microbatches - 1) * tables.bott_t[index])

    @staticmethod
    def _sync_time_lb(tables: _FloorTables, dp: int) -> float:
        """Floor on the simulator's gradient sync term ``max_s sync_s``.

        A stage of ``dp`` replicas in one real zone all-reduces over a ring
        of ``dp`` with its worst intra-zone link; spread over ``z >= 2``
        real zones of its region, the hierarchical all-reduce is at least
        its leader ring over ``z <= min(dp, ring_zones)`` inter-zone
        links.
        Either way the value is one of the finite set
        ``ring_allreduce_time(message, n, profile)`` this takes the minimum
        of per stage -- no monotonicity of the fitted curves is assumed.
        """
        if dp == 1:
            return 0.0
        sync = 0.0
        for messages, intra, leaders in tables.sync:
            stage_min = math.inf
            for message in messages:
                for profile in intra:
                    stage_min = min(stage_min, ring_allreduce_time(
                        message, dp, profile.transfer_time))
                for zones in range(2, min(dp, tables.ring_zones) + 1):
                    for profile in leaders:
                        stage_min = min(stage_min, ring_allreduce_time(
                            message, zones, profile.transfer_time))
            if stage_min < math.inf and stage_min > sync:
                sync = stage_min
        return sync

    @staticmethod
    def _candidate_floor_available(job: TrainingJobSpec,
                                   tables: _FloorTables, mbs: int, dp: int,
                                   minimize_cost: bool) -> float:
        """Availability-aware admissible floor of one (P, mbs, D) candidate.

        The simulator's iteration time is ``max_d T_pp_d + max_s sync_s +
        update`` (update >= 0), and three floors bound its terms:

        * *Carrier floor.*  A stage hosts its D replicas on at most
          ``MAX_MIXED_TYPES_PER_STAGE`` (two) options, so some option of
          any feasible combo carries at least ``k = ceil(D / 2)`` replicas
          -- and only options whose *root-pool* capacity reaches ``k`` can
          be that carrier.  The stage's time is the max over its
          combo's options, hence >= the carrier's time >= the prefix
          minimum at the capacity threshold.  DP sub-states only ever
          shrink capacities, so thresholding on the root pool keeps the
          admitted option set a superset of reality.  Pipeline term:
          ``sum(stage_t) + (Nb-1) * max(stage_t)``.
        * *Pigeonhole pipeline* (``_pipeline_time_lb``): some pipeline
          holds at most ``pool_gpus // D`` GPUs, which bounds its stage
          picks.  The carrier floor is stage-level and that pipeline's
          replica may sit on a stage's minority option, so the two are
          never mixed: the pipeline term is the max of the two whole
          expressions.
        * *Sync* (``_sync_time_lb``): the minimum, per stage, over the
          exact finite set of all-reduce times the simulator's formula can
          produce on the pool -- including the leader ring of a stage
          spread over several real zones -- maxed over stages.

        Cost is ``>= D * sum(min rate) * time_lb`` (every replica pays at
        least its stage's cheapest present rate, zero egress).  The result
        is times ``_GAP_BOUND_SLACK``, and memoised per D on the tables so
        warm replans reuse it.
        """
        key = (dp, minimize_cost)
        cached = tables.floors.get(key)
        if cached is not None:
            return cached
        k = -(-dp // MAX_MIXED_TYPES_PER_STAGE)
        sum_t = 0.0
        max_t = 0.0
        rate_sum = 0.0
        value = math.inf
        for table in tables.carriers:
            if table is None:
                break
            neg_caps, pref_min_t, min_rate = table
            count = bisect.bisect_right(neg_caps, -k)
            if count == 0:
                break
            stage_t = pref_min_t[count - 1]
            sum_t += stage_t
            if stage_t > max_t:
                max_t = stage_t
            rate_sum += min_rate
        else:
            nb = job.num_microbatches(dp, mbs)
            time_lb = (max(sum_t + (nb - 1) * max_t,
                           SailorPlanner._pipeline_time_lb(tables, dp, nb))
                       + SailorPlanner._sync_time_lb(tables, dp))
            value = (dp * rate_sum * time_lb if minimize_cost
                     else time_lb) * _GAP_BOUND_SLACK
        tables.floors[key] = value
        return value

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
