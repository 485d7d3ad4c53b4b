"""Per-stage resource assignment via dynamic programming (paper Listing 1).

Given a pipeline depth ``P``, a data-parallel degree ``D``, a microbatch size
and the per-(stage, node type) tensor-parallel candidates, the solver walks
the stages front to back.  For each stage it enumerates *resource combos*
(ways to place the stage's ``D`` replicas on the remaining nodes of one
region, possibly mixing node types -- heuristic H5 keeps a stage's
data-parallel group inside one region), recurses on the remaining stages and
remaining resources, and keeps the combination minimising the projected
iteration time

``T = sum_i t_i + (Nb - 1) * max_i t_i + max_i sync_i``

(or the projected cost when the objective is cost minimisation).  Results
are memoised on ``(stage, remaining resources)`` -- plus a *budget
interval* when a budget constraint is active (see below).

Three things keep the search fast (the planner's latency is what the
paper's Tables 1-3 hinge on):

* **Shared search context.**  Stage compute/sync times, cost rates and the
  combo enumeration are cached on a
  :class:`~repro.core.search_cache.PlannerSearchContext` keyed independently
  of the data-parallel candidate, so a planner call computes each of them
  once instead of once per DP candidate.
* **The resource-state engine.**  Resource states are array-encoded by a
  :class:`~repro.core.resource_state.ResourceStateCodec` (fixed-width
  count vectors, one slot per root (zone, node type) pair) whose encoding
  is a bijection with the canonical tuple-of-tuples form -- memo keys
  collapse exactly the same states, so plans are byte-identical to the
  tuple encoding.  On wide pools, unconstrained solves skip the recursion
  entirely: a :class:`~repro.core.resource_state.ResourceStateEngine`
  computes the same table bottom-up, one whole stage layer of states per
  batched kernel call (see its docstring for the forward/backward passes
  and the bit-equivalence argument).  Each solve runs its own *forward*
  pass (reachability) and, on budget solves, its own bound pass; both are
  freed with the solver.  They are not kept for other candidates: the
  per-stage footprints differ between ``mbs`` variants, so a cold
  1024-GPU plan repeats only 2 of 147 forward passes, while keeping them
  would dominate the planner's peak memory.  Where the recursion still runs
  (binding-budget subtrees, and ``enable_pruning=False``), each state's
  fitting combos, child states (footprint subtracted, per-stage caps
  clamped) and child memo keys are computed once and cached -- via the
  vectorized :class:`~repro.core.resource_state.StageComboTable` kernels
  on wide pools, via scalar scans over tuple states on tiny pools where
  NumPy call overhead cannot amortise (``DPSolver.engine_min_states``
  picks the regime; both produce the identical fit order, and a mode's
  memo keys -- state bytes for vector, the state tuples themselves for
  scalar -- never mix within one solve).
* **Branch-and-bound.**  Before recursing on a combo the solver computes an
  admissible lower bound on the objective of any completed solution through
  that combo (best achievable compute time / cost rate of the remaining
  stages, from the cheapest options available at the root).  Branches that
  cannot beat the incumbent -- threaded down the recursion as an upper
  bound -- are pruned.  Bounds are admissible (they never exceed the true
  value, including under floating-point rounding, because IEEE-754 add/mul
  are monotone), so pruning never changes the value of the returned
  solution; ``DPSolverConfig.enable_pruning=False`` turns it off for the
  equivalence tests.

When a budget constraint is present, the solver follows the paper's
straggler-approximation loop: it first assumes the current stage is the
pipeline straggler to estimate the budget left for the remaining stages,
solves them, and re-iterates with the discovered straggler when the
assumption was wrong (section 4.2.3).  This is what makes budget-constrained
searches slower (Table 3).  On engine-covered states the whole combo scan of
a budget node runs *batched* over the engine's per-layer arrays
(:meth:`DPSolver._solve_budget_batched`: dominance-answered straggler
iterations resolve in elementwise kernels, bit-identical to the scalar
recursion, which remains both as the fallback for genuinely binding suffix
budgets and -- with ``enable_pruning=False`` -- as the equivalence-test
reference).  Two further mechanisms answer most queries without a fresh
search:

* A *budget-dominance* shortcut: whenever the unconstrained optimum of a
  subproblem fits the remaining budget it is also the budgeted optimum, so
  only genuinely binding budgets enter the straggler loop.  Unlike
  branch-and-bound this shortcut is part of the algorithm (it is *not*
  disabled by ``enable_pruning=False``; it can only return equal-or-better
  solutions than the straggler approximation) and is covered by its own
  dominance property tests.
* **Interval-keyed budget memoisation.**  A suffix optimum found under
  budget ``b`` with cost ``c <= b`` is provably optimal for *every* budget
  in ``[c, b]``: a smaller budget ``b'`` in that range still admits the
  solution, and anything beating it under ``b'`` would also be feasible
  under ``b``, contradicting optimality.  (Symmetrically, infeasibility
  under ``b`` implies infeasibility for every ``b' <= b``.)  Budgeted memo
  entries therefore store the budget *interval* they answer instead of
  forking one entry per rounded budget the straggler loop proposes; every
  budget inside a stored interval is answered from the one entry.  The
  dominance shortcut is the special case ``[c, +inf)``.

  One honest caveat: the proof is exact for true optima, while the
  straggler loop only *approximates* the budgeted optimum, so answering a
  sub-budget from a stored interval is not always identical to re-running
  the approximation at that exact budget (a fresh run threads a different
  remaining budget and can land on a different approximate answer).  The
  reuse is deliberate -- the interval answer is a feasible solution whose
  optimality claim is at least as strong as the stored search's -- and the
  observed effect on the planner is bounded to occasional extra feasible
  candidates (chosen plans stayed byte-identical across the equivalence
  matrix); the budget property tests in ``tests/test_dp_solver.py`` pin
  the sound guarantees (budget respected, never beats brute force,
  non-binding budgets exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.budget import SearchBudget, SearchBudgetExhausted
from repro.core.hotpath import hot_path
from repro.core.objectives import OptimizationGoal
from repro.core.resource_state import (
    BudgetBoundTables,
    ResourceStateCodec,
    ResourceStateEngine,
    StageComboTable,
    StageKernelTable,
    compute_budget_bounds,
    compute_forward_layers,
)
from repro.core.search_cache import (
    PlannerSearchContext,
    ResourceKey,
    StageAssignment,
    StageOption,
    tp_options_key,
)
from repro.core.simulator.environment import SimulationEnvironment
from repro.models.partition import LayerPartition
from repro.models.spec import TrainingJobSpec


#: Type alias: remaining nodes keyed by (zone, node type).
ResourceMap = dict[tuple[str, str], int]

__all__ = [
    "DPSolution",
    "DPSolver",
    "DPSolverConfig",
    "ResourceMap",
    "SearchBudget",
    "SearchBudgetExhausted",
    "StageAssignment",
    "StageOption",
]


@dataclass
class DPSolution:
    """Best assignment found for a suffix of the pipeline."""

    assignments: list[StageAssignment]
    max_stage_time_s: float
    sum_stage_time_s: float
    max_sync_time_s: float
    cost_rate_usd_per_s: float

    def projected_iteration_time(self, num_microbatches: int) -> float:
        """Iteration-time estimate the DP optimises."""
        return (self.sum_stage_time_s
                + (num_microbatches - 1) * self.max_stage_time_s
                + self.max_sync_time_s)

    def projected_cost(self, num_microbatches: int) -> float:
        """Cost estimate (compute only) the DP uses under budget constraints."""
        return self.cost_rate_usd_per_s * self.projected_iteration_time(num_microbatches)

    @property
    def straggler_stage(self) -> int:
        """Index (within the suffix) of the slowest stage."""
        best = 0
        for i, assignment in enumerate(self.assignments):
            if assignment.compute_time_s > self.assignments[best].compute_time_s:
                best = i
        return best


@dataclass
class DPSolverConfig:
    """Knobs bounding the DP search."""

    max_combos_per_stage: int = 16
    max_mixed_types_per_stage: int = 2
    split_fractions: tuple[float, ...] = (0.25, 0.5, 0.75)
    #: Cap on the budget-split refinement loop of the budget-constrained
    #: search (an approximation knob: more iterations can only refine the
    #: split, never invalidate one).
    max_budget_iterations: int = 4
    #: Branch-and-bound pruning of DP branches that provably cannot beat the
    #: incumbent.  Value-preserving; off only as the exhaustive reference
    #: the equivalence suites and ``tests/golden/`` compare against.
    enable_pruning: bool = True
    #: Layered-engine dispatch threshold: the engine's batched kernels
    #: amortise their fixed NumPy cost only when the per-stage state layers
    #: are wide, which ``prod(root count + 1)`` (an upper bound on any
    #: layer's size) predicts well.  Below the threshold the B&B recursion
    #: -- byte-identical by the equivalence suites -- is faster.  Tests set
    #: this to 0 to force the engine.
    engine_min_states: int = 100
    #: Budget-aware dispatch: with a budget constraint the engine pays for
    #: itself much earlier (its dominance tables and bound certificates
    #: answer most straggler-loop work in O(1), where the scalar recursion
    #: re-walks suffixes), so budgeted solves dispatch at
    #: ``min(engine_min_states, engine_min_states_budget)``.  Decision
    #: table (measured on the bench scenarios, see ROADMAP item 4):
    #:
    #: ==================  ============  =====================  ==========
    #: objective           state space   dispatch               why
    #: ==================  ============  =====================  ==========
    #: unconstrained       < 100         scalar recursion       NumPy call
    #:                                                          overhead
    #:                                                          dominates
    #: unconstrained       >= 100        engine                 batched
    #:                                                          layers win
    #: budget-constrained  < 32          scalar recursion       tiny pools
    #:                                                          still churn
    #:                                                          too few
    #:                                                          states
    #: budget-constrained  >= 32         engine                 0.52s vs
    #:                                                          0.68s on
    #:                                                          the 64-GPU
    #:                                                          (81-state)
    #:                                                          budget
    #:                                                          point
    #: ==================  ============  =====================  ==========
    #:
    #: Unconstrained 32/64-GPU points re-checked scalar-faster, so their
    #: threshold is unchanged.  Both regimes produce byte-identical plans
    #: (engine/scalar equivalence suites), so this is purely a latency
    #: knob.
    engine_min_states_budget: int = 32

    def __post_init__(self) -> None:
        if self.max_combos_per_stage < 1:
            raise ValueError("max_combos_per_stage must be >= 1")
        if self.max_mixed_types_per_stage < 1:
            raise ValueError("max_mixed_types_per_stage must be >= 1")
        if self.max_budget_iterations < 1:
            # The straggler-approximation loop must run at least once, or
            # budget-constrained solves would fall through with no result.
            raise ValueError("max_budget_iterations must be >= 1")
        if self.engine_min_states < 0:
            raise ValueError("engine_min_states must be >= 0")
        if self.engine_min_states_budget < 0:
            raise ValueError("engine_min_states_budget must be >= 0")
        for fraction in self.split_fractions:
            if not 0.0 < fraction < 1.0:
                raise ValueError("split_fractions must lie strictly in (0, 1)")


#: Relative slack applied to cost-mode lower bounds: the cost bound divides
#: where the real cost rate ceils, so the two can differ by a rounding ulp.
_COST_BOUND_SLACK = 1.0 - 1e-12

#: Straggler-loop convergence tolerance: relative *plus* absolute, because a
#: purely absolute 1e-12 is below one float64 ulp once iteration times reach
#: hundreds of seconds (spacing at 512 s is ~1.1e-13 per ulp but compound
#: rounding across the combine easily exceeds 1e-12) -- the loop would then
#: burn its full ``max_budget_iterations`` re-solving on float noise.
_STRAGGLER_ABS_TOL = 1e-12
_STRAGGLER_REL_TOL = 1e-12


def straggler_converged(actual: float, assumed: float) -> bool:
    """True when the discovered straggler matches the assumed one.

    ``assumed`` is a stage compute time (never negative), so the relative
    term needs no ``abs``.
    """
    return actual <= assumed + (_STRAGGLER_ABS_TOL
                                + _STRAGGLER_REL_TOL * assumed)


class DPSolver:
    """Solves the per-stage resource-assignment problem for one (P, D, mbs)."""

    def __init__(self, env: SimulationEnvironment, job: TrainingJobSpec,
                 partitions: list[LayerPartition],
                 tp_options_per_stage: list[dict[str, list[int]]],
                 microbatch_size: int, data_parallel: int,
                 num_microbatches: int,
                 goal: OptimizationGoal = OptimizationGoal.MAX_THROUGHPUT,
                 config: DPSolverConfig | None = None,
                 context: PlannerSearchContext | None = None,
                 search_budget: SearchBudget | None = None) -> None:
        self.env = env
        #: Cooperative cancellation budget shared with the planner; ``None``
        #: (the default) leaves every hot loop uncancellable and
        #: byte-identical to the pre-anytime solver.
        self.search_budget = search_budget
        self.job = job
        self.partitions = partitions
        self.tp_options_per_stage = tp_options_per_stage
        self.microbatch_size = microbatch_size
        self.data_parallel = data_parallel
        self.num_microbatches = num_microbatches
        self.goal = goal
        self.config = config or DPSolverConfig()
        if context is not None and context.goal is not goal:
            # Combo ranking/truncation lives on the context; a mismatched
            # goal would silently rank by the wrong metric.
            raise ValueError(
                f"context goal {context.goal} does not match solver goal {goal}")
        self.context = context or PlannerSearchContext(env, job, goal)
        self._tp_keys = [tp_options_key(opts) for opts in tp_options_per_stage]
        # Per-solve state, rebuilt by :meth:`solve`: the resource-state
        # codec (array encoding of the root's states), per-stage combo
        # tables, per-state filtered combo views (child states and memo
        # keys precomputed), clamp vectors, admissible per-suffix bounds,
        # and the memos.  Memo keys are the stage index prefixed to the
        # state raw bytes, one dict per stage; budgeted entries live
        # in ``_budget_memo`` as interval lists (see the module docstring).
        self._root: ResourceKey = ()
        self._codec: ResourceStateCodec | None = None
        self._tables: list[StageComboTable | None] = [None] * len(partitions)
        self._engine: ResourceStateEngine | None = None
        self._mat_cache: dict[tuple[int, int], DPSolution] = {}
        self._budget_row_cache: dict[tuple[int, int], tuple] = {}
        #: Straggler/cost lower-bound tables (budget certificates): the
        #: engine-layer tables on wide pools, a per-(stage, state) memo for
        #: the scalar recursion on tiny ones.  Built lazily on the first
        #: budget node of a solve; ``_certs_active`` gates every use (off
        #: under ``enable_pruning=False`` -- the pristine reference --
        #: and under fork tracking, which must observe every query).
        self._bounds: BudgetBoundTables | None = None
        self._scalar_bound_memo: list[dict] = [{} for _ in partitions]
        self._certs_active = False
        self._vector_states = True
        self._caps_list: list[tuple[int, ...]] = []
        self._memo: list[dict[bytes, tuple[DPSolution | None, bool, float]]] = \
            [{} for _ in partitions]
        self._budget_memo: list[dict[bytes, list[list]]] = \
            [{} for _ in partitions]
        self._combo_cache: list[dict[bytes, tuple]] = [{} for _ in partitions]
        self._clamp_active: list[bool] = [True] * len(partitions)
        self._caps_vec: list[np.ndarray] = []
        self._sfx_sum: list[float] = []
        self._sfx_max: list[float] = []
        self._sfx_rate: list[float] = []
        #: Layered-engine dispatch thresholds (see DPSolverConfig); kept as
        #: instance attributes so tests can force a regime per solver.
        self.engine_min_states = self.config.engine_min_states
        self.engine_min_states_budget = self.config.engine_min_states_budget
        #: Observability for the interval-memo property tests: when
        #: ``track_budget_forks`` is set (tests only; off the hot path by
        #: default), ``fork_keys`` collects the distinct ``(stage, state,
        #: rounded budget)`` triples the old per-budget memo would have
        #: keyed entries under, for comparison with ``budget_memo_entries``.
        self.track_budget_forks = False
        self.fork_keys: set[tuple] = set()
        self._prepare_clamps()

    @property
    def stats(self):
        """Search counters, shared with the context (and so the planner)."""
        return self.context.stats

    @property
    def nodes_explored(self) -> int:
        """DP subproblems expanded on this solver's context (back-compat).

        Stats live on the shared context, so with an injected context this
        is the total across *every* solver sharing it, not just this one;
        for a standalone solver (private context) the two coincide.
        """
        return self.context.stats.nodes_explored

    def budget_memo_entries(self) -> int:
        """Total interval entries currently stored in the budgeted memo."""
        return sum(len(entries)
                   for per_stage in self._budget_memo
                   for entries in per_stage.values())

    # -- public API ------------------------------------------------------------

    def solve(self, resources: ResourceMap,
              budget_per_iteration: float | None = None) -> DPSolution | None:
        """Assign resources to every stage; ``None`` when nothing fits.

        With a :class:`~repro.core.budget.SearchBudget` attached, a deadline
        or node-budget hit raises :class:`SearchBudgetExhausted` from the
        nearest cancellation point.  The exception is salvageable: progress
        counters (nodes explored, partial memo sizes) are attached before it
        propagates, the per-solve memos and the context's cross-candidate
        caches keep every subproblem completed so far, and the caller keeps
        its pre-deadline incumbent (see ``SailorPlanner._plan_branch``).
        """
        try:
            return self._solve_root(resources, budget_per_iteration)
        except SearchBudgetExhausted as exc:
            exc.attach(
                nodes_explored=self.stats.nodes_explored,
                stage_memo_entries=sum(len(memo) for memo in self._memo),
                budget_memo_entries=self.budget_memo_entries(),
            )
            raise

    def _solve_root(self, resources: ResourceMap,
                    budget_per_iteration: float | None = None,
                    ) -> DPSolution | None:
        num_stages = len(self.partitions)
        self._memo = [{} for _ in range(num_stages)]
        self._budget_memo = [{} for _ in range(num_stages)]
        self._combo_cache = [{} for _ in range(num_stages)]
        self._scalar_bound_memo = [{} for _ in range(num_stages)]
        self._bounds = None
        self._certs_active = (self.config.enable_pruning
                              and not self.track_budget_forks)
        self.fork_keys.clear()
        root = tuple(sorted((key, count) for key, count in resources.items()
                            if count > 0))
        self._root = root
        codec = ResourceStateCodec(root)
        self._codec = codec
        self._tables = [None] * len(self.partitions)
        # A stage's suffix clamp can only ever bind if it binds on the root:
        # descendant states shrink, so when the root is under every cap the
        # clamp is a no-op for the whole search and can be skipped.
        self._clamp_active = [
            any(count > caps.get(node_type, 0)
                for (_, node_type), count in root)
            for caps in self._suffix_clamp[:len(self.partitions)]
        ]
        # Suffix clamps as per-slot cap vectors aligned with the slot order.
        self._caps_vec = [codec.caps_vector(caps)
                          for caps in self._suffix_clamp]
        if not self._prepare_bounds(root):
            return None  # some stage can be hosted by no available option
        state = codec.root_state
        if self._clamp_active[0]:
            state = codec.clamp(state, self._caps_vec[0])
        # Adaptive dispatch on the (upper bound of the) reachable state
        # space.  Wide pools: the layered engine answers unconstrained
        # solves outright (and the budget search's dominance probes), and
        # any remaining recursion runs on array states with the vectorized
        # kernels.  Tiny pools: the batched kernels cannot amortise their
        # fixed NumPy cost, so the recursion runs on plain int tuples with
        # scalar scans instead -- same fit order, same (struct-packed) memo
        # keys, byte-identical plans.  ``enable_pruning=False`` keeps the
        # plain exhaustive recursion as the independent reference the
        # equivalence property tests compare against.
        self._engine = None
        self._mat_cache = {}
        self._budget_row_cache = {}
        state_space = 1
        for count in codec.root_state.tolist():
            state_space *= count + 1
        # Budget-aware dispatch (decision table on DPSolverConfig): budget
        # solves profit from the engine on much smaller pools, so they use
        # the min of the two thresholds -- a test forcing the engine via
        # ``engine_min_states = 0`` still gets it in both regimes.
        threshold = self.engine_min_states
        if budget_per_iteration is not None:
            threshold = min(threshold, self.engine_min_states_budget)
        self._vector_states = state_space >= threshold
        if not self._vector_states:
            # Scalar mode keys memos on the state tuples themselves (the
            # original tuple encoding's keying; pack()-ing bytes here would
            # only add per-child overhead the small pool cannot amortise).
            self._caps_list = [tuple(caps.tolist()) for caps in self._caps_vec]
            scalar = tuple(state.tolist())
            return self._solve(0, scalar, budget_per_iteration, math.inf,
                               scalar)
        if self.config.enable_pruning:
            engine = self._build_engine(state)
            # Every engine state counts as an explored node, and the forward
            # pass's deduplicated children as memo hits.
            self.stats.nodes_explored += engine.states_computed
            self.stats.memo_hits += engine.dedup_hits
            self._engine = engine
            if budget_per_iteration is None:
                if not engine.feasible(0, 0):
                    return None
                return self._materialize(0, 0)
        return self._solve(0, state, budget_per_iteration, math.inf,
                           state.tobytes())

    def _build_engine(self, root_state: np.ndarray) -> ResourceStateEngine:
        """Assemble the per-stage kernel tables and the layered engine.

        The kernel tables extend the recursion's combo tables with eager
        per-combo scalar arrays (compute, sync, cost rate -- all served
        from the shared context's caches), and are installed into
        ``_tables`` so the budget recursion and :meth:`_combos_for_state`
        reuse the same objects.  The forward reachability layers and the
        backward pass are computed for this solve alone.
        """
        tables: list[StageKernelTable] = []
        context = self.context
        for stage_index, partition in enumerate(self.partitions):
            master = self._master_combos(stage_index, self._root)
            plain = self._codec.combo_table(master)
            table = StageKernelTable(
                entries=plain.entries,
                req=plain.req,
                pairs=plain.pairs,
                compute=np.array([entry[4] for entry in master]),
                sync=np.array([context.stage_sync_time(
                    partition, self.data_parallel, entry[0])
                    for entry in master]),
                rate=np.array([context.stage_cost_rate(entry[0])
                               for entry in master]),
            )
            tables.append(table)
            self._tables[stage_index] = table
        forward = compute_forward_layers(
            [table.req for table in tables], self._caps_vec,
            self._clamp_active, self.config.max_combos_per_stage, root_state,
            search_budget=self.search_budget)
        engine = ResourceStateEngine(
            self._codec, tables, forward,
            self.num_microbatches, self.goal is OptimizationGoal.MIN_COST,
            search_budget=self.search_budget)
        engine.run_backward()
        self.stats.combine_fused_hits += engine.combine_fused_hits
        return engine

    def _materialize(self, stage_index: int, row: int) -> DPSolution:
        """Build the DPSolution of one engine row from its backpointers.

        Only requested rows (the root; the budget search's dominance hits)
        ever construct ``StageAssignment`` objects, and the fold uses the
        same ``_combine`` the recursion uses, so the materialised fields
        are bit-identical to a recursive solve.
        """
        cached = self._mat_cache.get((stage_index, row))
        if cached is not None:
            return cached
        combo, child = self._engine.backpointer(stage_index, row)
        entry = self._tables[stage_index].entries[combo]
        assignment = entry[2]
        if assignment is None:
            assignment = self.context.build_stage_assignment(
                self.partitions[stage_index], self.microbatch_size,
                self.data_parallel, entry[0], nodes_used=entry[1],
                compute_time_s=entry[4])
            entry[2] = assignment
        if stage_index == len(self.partitions) - 1:
            solution = DPSolution(
                assignments=[assignment],
                max_stage_time_s=assignment.compute_time_s,
                sum_stage_time_s=assignment.compute_time_s,
                max_sync_time_s=assignment.sync_time_s,
                cost_rate_usd_per_s=assignment.cost_rate_usd_per_s,
            )
        else:
            solution = self._combine(assignment,
                                     self._materialize(stage_index + 1, child))
        self._mat_cache[(stage_index, row)] = solution
        return solution

    # -- stage metrics -----------------------------------------------------------

    def stage_compute_time(self, stage_index: int, node_type: str,
                           tensor_parallel: int) -> float:
        """Per-microbatch forward+backward time of a stage on one option."""
        return self.context.stage_compute_time(
            self.partitions[stage_index], self.microbatch_size, node_type,
            tensor_parallel)

    def stage_sync_time(self, stage_index: int,
                        placements: list[tuple[StageOption, int]]) -> float:
        """Approximate gradient all-reduce time of a stage's replicas."""
        return self.context.stage_sync_time(
            self.partitions[stage_index], self.data_parallel, tuple(placements))

    def stage_cost_rate(self, placements: list[tuple[StageOption, int]]) -> float:
        """USD per second of the whole nodes a stage occupies."""
        return self.context.stage_cost_rate(tuple(placements))

    # -- combo generation ---------------------------------------------------------

    def generate_combos(self, stage_index: int,
                        resources: ResourceMap | ResourceKey,
                        ) -> list[tuple[tuple[StageOption, int], ...]]:
        """Resource combos able to host the stage's ``D`` replicas.

        Honours H5 (one region per stage); ranked by implied stage compute
        time (cost rate under the cost objective) and truncated to
        ``max_combos_per_stage``.  Cached on the shared context.
        """
        if isinstance(resources, dict):
            resources = tuple(sorted((key, count)
                              for key, count in resources.items() if count > 0))
        master = self._master_combos(stage_index, resources)
        limit = self.config.max_combos_per_stage
        return [entry[0] for entry in master[:limit]]

    def _master_combos(self, stage_index: int,
                       resources: ResourceKey) -> list:
        """Untruncated sorted combo list for a stage from ``resources``."""
        return self.context.stage_master_combos(
            self.partitions[stage_index], self.microbatch_size,
            self.data_parallel, self.tp_options_per_stage[stage_index],
            self._tp_keys[stage_index],
            self._clamp(resources, self._stage_clamp[stage_index]),
            self.config.max_mixed_types_per_stage,
            self.config.split_fractions)

    def _stage_table(self, stage_index: int) -> StageComboTable:
        """The stage's master combos with footprints packed for the codec."""
        table = self._tables[stage_index]
        if table is None:
            master = self._master_combos(stage_index, self._root)
            table = (self._codec.combo_table(master) if self._vector_states
                     else self._codec.combo_pairs(master))
            self._tables[stage_index] = table
        return table

    def _combos_for_state(self, stage_index: int, state,
                          key: bytes) -> tuple[list, np.ndarray | None]:
        """Combos of the root master list that fit one resource state.

        A combo generated from a resource subset is exactly a root combo
        whose whole-node footprint fits the subset, so one vectorized fit
        test against the stage's precomputed
        :class:`~repro.core.resource_state.StageComboTable` (already in
        ranking order) truncated at ``max_combos_per_stage`` reproduces the
        per-state enumeration at a fraction of the cost.  Returns
        ``([(entry, row, child memo key), ...], children)`` where
        ``children[row]`` is the state minus the entry's footprint,
        pre-clamped at the *next* stage's caps, and the child keys are
        sliced out of the matrix's single ``tobytes`` blob (memos are
        per-stage dicts, so a state's raw bytes are the whole key) -- the
        recursion does no per-combo state arithmetic at all (``children``
        is ``None`` for the last stage, which has no recursion).  Cached
        per ``(stage, state)``.
        """
        cache = self._combo_cache[stage_index]
        cached = cache.get(key)
        if cached is not None:
            return cached
        codec = self._codec
        table = self._stage_table(stage_index)
        limit = self.config.max_combos_per_stage
        is_last = stage_index == len(self.partitions) - 1
        next_stage = stage_index + 1

        if not self._vector_states:
            # Scalar build over tuple states (small pools): the same
            # first-`limit` fit scan in master order.  The cached rows are
            # *references* to the stage's shared (entry, needs) pairs --
            # no per-state allocations survive the scan (allocation churn
            # here shows up as whole-solve GC pauses), and the recursion
            # subtracts children per visit exactly like the original tuple
            # encoding did.
            fitting = []
            found = 0
            for pair in table.pairs:
                for slot, used in pair[1]:
                    if state[slot] < used:
                        break
                else:
                    fitting.append(pair)
                    found += 1
                    if found >= limit:
                        break
            cached = (fitting, None)
            cache[key] = cached
            return cached

        idx = codec.fitting_combos(table, state, limit)
        entries = table.entries
        rows = idx.tolist()
        if is_last:
            children = None
            fitting = [(entries[i], n, None) for n, i in enumerate(rows)]
        else:
            children = state - table.req[idx]
            if self._clamp_active[next_stage]:
                children = np.minimum(children, self._caps_vec[next_stage])
            blob = children.tobytes()
            width = children.shape[1] * children.itemsize
            fitting = [(entries[i], n, blob[n * width:(n + 1) * width])
                       for n, i in enumerate(rows)]
        cached = (fitting, children)
        cache[key] = cached
        return cached

    # -- resource clamping --------------------------------------------------------

    def _prepare_clamps(self) -> None:
        """Precompute how many whole nodes of each type a stage can use.

        A stage hosting ``D`` replicas never occupies more than
        ``ceil(D / min replicas-per-node)`` nodes of one (zone, node type),
        and a pipeline suffix never more than the sum over its stages.
        Counts beyond those caps cannot influence any reachable assignment,
        so clamping them canonicalises the resource state: memo keys and
        combo-cache keys collapse across states that differ only in unusable
        surplus, which is where most cross-candidate reuse comes from.
        """
        num_stages = len(self.partitions)
        per_stage: list[dict[str, int]] = []
        for tp_options in self.tp_options_per_stage:
            stage_cap: dict[str, int] = {}
            for node_type, degrees in tp_options.items():
                gpus = self.context.gpus_per_node(node_type)
                min_rpn = min(max(1, gpus // tp) for tp in degrees)
                stage_cap[node_type] = math.ceil(self.data_parallel / min_rpn)
            per_stage.append(stage_cap)
        suffix: list[dict[str, int]] = [{} for _ in range(num_stages + 1)]
        for j in range(num_stages - 1, -1, -1):
            merged = dict(suffix[j + 1])
            for node_type, cap in per_stage[j].items():
                merged[node_type] = merged.get(node_type, 0) + cap
            suffix[j] = merged
        self._stage_clamp = per_stage
        self._suffix_clamp = suffix

    @staticmethod
    def _clamp(resources: ResourceKey, caps: dict[str, int]) -> ResourceKey:
        """Clamp counts at ``caps`` per node type; drop unusable types.

        Returns the input tuple unchanged (same object) when nothing caps,
        so the common case allocates nothing.  (This is the *tuple-form*
        clamp used for context cache keys; states inside the recursion use
        the codec's vectorized clamp.)
        """
        changed = False
        for (_, node_type), count in resources:
            if count > caps.get(node_type, 0):
                changed = True
                break
        if not changed:
            return resources
        clamped: list[tuple[tuple[str, str], int]] = []
        for key, count in resources:
            cap = caps.get(key[1], 0)
            if cap <= 0:
                continue
            clamped.append((key, count if count <= cap else cap))
        return tuple(clamped)

    # -- bounds -------------------------------------------------------------------

    def _prepare_bounds(self, root: ResourceKey) -> bool:
        """Precompute admissible per-suffix bounds from the root resources.

        ``_sfx_sum[j]`` / ``_sfx_max[j]`` bound the best achievable sum/max
        compute time of stages ``j..P-1``; ``_sfx_rate[j]`` the best
        achievable cost rate.  They are built from the cheapest options the
        *root* resource pool offers, which every reachable resource subset
        can only shrink -- hence admissibility.  Returns ``False`` when a
        stage has no feasible option at all (the search cannot succeed).
        """
        num_stages = len(self.partitions)
        best_time: list[float] = []
        best_rate: list[float] = []
        for stage_index in range(num_stages):
            options = self.context.stage_options(
                self.tp_options_per_stage[stage_index],
                self._tp_keys[stage_index],
                self._clamp(root, self._stage_clamp[stage_index]))
            if not options:
                return False
            partition = self.partitions[stage_index]
            best_time.append(min(
                self.context.stage_compute_time(partition,
                                                self.microbatch_size,
                                                opt.node_type,
                                                opt.tensor_parallel)
                for opt, _ in options))
            best_rate.append(self.data_parallel * min(
                (self.context.gpus_per_node(opt.node_type)
                 * self.context.gpu_price_per_second(opt.node_type))
                / opt.replicas_per_node
                for opt, _ in options))

        self._sfx_sum = [0.0] * (num_stages + 1)
        self._sfx_max = [0.0] * (num_stages + 1)
        self._sfx_rate = [0.0] * (num_stages + 1)
        for j in range(num_stages - 1, -1, -1):
            # Same (right-leaning) association as _combine builds solutions
            # with, so floating-point monotonicity keeps the bound admissible.
            self._sfx_sum[j] = best_time[j] + self._sfx_sum[j + 1]
            self._sfx_max[j] = max(best_time[j], self._sfx_max[j + 1])
            self._sfx_rate[j] = best_rate[j] + self._sfx_rate[j + 1]
        return True

    def _value(self, solution: DPSolution) -> float:
        """Scalar the DP minimises (iteration time, or cost under MIN_COST)."""
        if self.goal is OptimizationGoal.MIN_COST:
            return solution.projected_cost(self.num_microbatches)
        return solution.projected_iteration_time(self.num_microbatches)

    def _suffix_lower_bound(self, stage_index: int,
                            assignment: StageAssignment) -> float:
        """Admissible lower bound on any solution that assigns ``assignment``
        to ``stage_index`` and completes the remaining stages somehow."""
        after = stage_index + 1
        t_a = assignment.compute_time_s
        sum_lb = t_a + self._sfx_sum[after]
        max_lb = t_a if t_a >= self._sfx_max[after] else self._sfx_max[after]
        time_lb = (sum_lb + (self.num_microbatches - 1) * max_lb
                   + assignment.sync_time_s)
        if self.goal is OptimizationGoal.MIN_COST:
            rate_lb = assignment.cost_rate_usd_per_s + self._sfx_rate[after]
            return rate_lb * time_lb * _COST_BOUND_SLACK
        return time_lb

    # -- budget interval memo ------------------------------------------------------

    def _budget_lookup(self, stage_index: int, key: bytes, budget: float,
                       upper_bound: float) -> tuple | None:
        """Interval entry answering ``budget`` under the caller's bound.

        An entry ``[lo, hi, solution, exact, bound]`` answers every budget
        in ``[lo, hi]`` (module docstring has the proof); a bound-limited
        entry additionally requires the caller's bound to be at least as
        strict, exactly like the unbudgeted memo.
        """
        entries = self._budget_memo[stage_index].get(key)
        if entries is None:
            return None
        for entry in entries:
            if (entry[0] <= budget <= entry[1]
                    and (entry[3] or upper_bound <= entry[4])):
                return entry
        return None

    def _budget_store(self, stage_index: int, key: bytes, lo: float,
                      hi: float, solution: DPSolution | None, exact: bool,
                      bound: float) -> None:
        """Record one interval entry, widening an existing compatible one.

        A re-solve of the same subproblem at a new budget usually returns
        the *same* solution object (served from the unbudgeted memo via
        dominance) -- those merge into one wider interval instead of
        forking, which is where the entry-count drop vs per-budget keying
        comes from.
        """
        if exact:
            bound = math.inf  # lookups ignore the bound on exact entries
        memo = self._budget_memo[stage_index]
        entries = memo.get(key)
        if entries is None:
            memo[key] = [[lo, hi, solution, exact, bound]]
            return
        for entry in entries:
            if (entry[2] is solution and entry[3] == exact
                    and entry[4] == bound and entry[0] == lo):
                if hi > entry[1]:
                    entry[1] = hi
                return
        entries.append([lo, hi, solution, exact, bound])

    # -- budget certificates (straggler/cost lower bounds) ------------------------

    def _engine_bounds(self) -> BudgetBoundTables:
        """Bound tables over the engine layers, built on first budget use.

        One batched backward pass (``compute_budget_bounds``) per solve,
        and only on solves that reach a budget node.
        """
        if self._bounds is None:
            self._bounds = compute_budget_bounds(
                self._engine.forward, self._tables, self.num_microbatches,
                search_budget=self.search_budget)
        return self._bounds

    def _scalar_bound(self, stage_index: int, state: tuple,
                      key: tuple) -> tuple:
        """Scalar-mode bound recursion: ``(straggler_lb, decomposable cost,
        rate_lb, sum_lb, sync_lb, cost_lb)`` of one tuple state, memoized.

        The tiny-pool counterpart of ``compute_budget_bounds`` -- same five
        admissible quantities, same sync-folded product/decomposable cost
        bound (see that function's docstring for the admissibility
        argument, including why sync folds in and egress must not), same
        slack -- computed over the recursion's own per-state combo cache
        (one memoized pass over the unconstrained reachable space, which a
        binding budget search walks anyway).  All-``inf`` marks an
        infeasible suffix.
        """
        memo = self._scalar_bound_memo[stage_index]
        cached = memo.get(key)
        if cached is not None:
            return cached
        if self.search_budget is not None:
            self.search_budget.tick()
        nb = self.num_microbatches
        combos, _ = self._combos_for_state(stage_index, state, key)
        is_last = stage_index == len(self.partitions) - 1
        next_stage = stage_index + 1
        caps = None
        if not is_last and self._clamp_active[next_stage]:
            caps = self._caps_list[next_stage]
        context = self.context
        partition = self.partitions[stage_index]
        dp = self.data_parallel
        best_s = best_d = best_r = best_u = best_m = math.inf
        for entry, pairs in combos:
            t_c = entry[4]
            rate = context.stage_cost_rate(entry[0])
            sync = context.stage_sync_time(partition, dp, entry[0])
            if is_last:
                s, d, r, u, m = t_c, rate * (nb * t_c), rate, t_c, sync
            else:
                child = list(state)
                for slot, used in pairs:
                    child[slot] -= used
                if caps is not None:
                    child = [count if count <= cap else cap
                             for count, cap in zip(child, caps)]
                child_state = tuple(child)
                c_s, c_d, c_r, c_u, c_m, _ = self._scalar_bound(
                    next_stage, child_state, child_state)
                if c_s == math.inf:
                    continue
                s = t_c if t_c >= c_s else c_s
                d = rate * (nb * t_c) + c_d
                r = rate + c_r
                u = t_c + c_u
                m = sync if sync >= c_m else c_m
            if s < best_s:
                best_s = s
            if d < best_d:
                best_d = d
            if r < best_r:
                best_r = r
            if u < best_u:
                best_u = u
            if m < best_m:
                best_m = m
        if best_s == math.inf:
            result = (math.inf, math.inf, math.inf, math.inf, math.inf,
                      math.inf)
        else:
            product = best_r * (best_u + (nb - 1) * best_s + best_m)
            decomposable = best_d + best_r * best_m
            cost = ((decomposable if decomposable >= product else product)
                    * _COST_BOUND_SLACK)
            result = (best_s, best_d, best_r, best_u, best_m, cost)
        memo[key] = result
        return result

    # -- recursion ------------------------------------------------------------------

    def _solve(self, stage_index: int, resources,
               budget: float | None, upper_bound: float,
               key: bytes | None = None) -> DPSolution | None:
        """Best assignment of stages ``stage_index..P-1`` from ``resources``.

        ``resources`` is an array-encoded state, already clamped at this
        stage's caps (the root is clamped by :meth:`solve`, children by
        :meth:`_combos_for_state`); ``key`` is its memo key when the caller
        already has it.
        """
        if key is None:
            key = (resources if isinstance(resources, tuple)
                   else resources.tobytes())
        nb = self.num_microbatches
        if budget is None:
            entry = self._memo[stage_index].get(key)
            if entry is not None:
                solution, exact, bound = entry
                # A bound-limited entry only proves "nothing beats `bound`";
                # it can be reused when the caller's bound is at least as
                # strict.
                if exact or upper_bound <= bound:
                    self.stats.memo_hits += 1
                    return solution
        else:
            if self.track_budget_forks:
                # Keyed on the exact budget float: rounding to 6 decimals
                # collided budgets differing below 1e-6 USD and undercounted
                # distinct forks (the stat the interval-memo property tests
                # compare entry counts against).
                self.fork_keys.add((stage_index, key, budget))
            hit = self._budget_lookup(stage_index, key, budget, upper_bound)
            if hit is not None:
                self.stats.memo_hits += 1
                return hit[2]
        self.stats.nodes_explored += 1
        guard = self.search_budget
        if guard is not None:
            guard.tick()

        if budget is not None:
            # Budget dominance: the unconstrained optimum of this subproblem
            # is shared by every budget the straggler loop proposes.  When
            # it fits the remaining budget it is also the budgeted optimum
            # (the constraint is inactive at the optimum), valid for every
            # budget down to its own cost -- the interval [cost, +inf).
            # When the subproblem is infeasible outright, so is every
            # budgeted variant: (-inf, +inf).  Only genuinely binding
            # budgets fall through to the budget-threaded search.  The
            # layered engine answers the probe in O(1) from its
            # already-computed table (including the projected cost, so
            # binding probes materialise nothing); the recursive fallback
            # covers ``enable_pruning=False``.
            engine = self._engine
            row = (engine.row_for_key(stage_index, key)
                   if engine is not None else None)
            if row is not None:
                if not engine.feasible(stage_index, row):
                    self._budget_store(stage_index, key, -math.inf, math.inf,
                                       None, True, math.inf)
                    return None
                cost = engine.projected_cost(stage_index, row)
                if cost <= budget:
                    unconstrained = self._materialize(stage_index, row)
                    self._budget_store(stage_index, key, cost, math.inf,
                                       unconstrained, True, math.inf)
                    return unconstrained
                if (self._certs_active
                        and self._engine_bounds().cost_lb[stage_index][row]
                        > budget):
                    # Certificate: every solution in this node's search
                    # space costs more than the budget (a budgeted scan
                    # only ever returns budget-respecting solutions, so
                    # it would come back empty) -- true infeasibility,
                    # valid for every budget at or below this one.
                    self.stats.suffix_certified += 1
                    self._budget_store(stage_index, key, -math.inf, budget,
                                       None, True, math.inf)
                    return None
                if not self.track_budget_forks:
                    # Genuinely binding budget on an engine-covered state:
                    # scan the whole combo row threaded through the engine
                    # layers.  Fork tracking must observe every suffix
                    # query in _solve, so it pins the scalar scan (same
                    # guard as _solve_suffix's inline memo probe).
                    return self._solve_budget_batched(stage_index, key, row,
                                                      budget, upper_bound)
            else:
                unconstrained = self._solve(stage_index, resources, None,
                                            math.inf, key)
                if unconstrained is None:
                    self._budget_store(stage_index, key, -math.inf, math.inf,
                                       None, True, math.inf)
                    return None
                cost = unconstrained.projected_cost(nb)
                if cost <= budget:
                    self._budget_store(stage_index, key, cost, math.inf,
                                       unconstrained, True, math.inf)
                    return unconstrained
                if (self._certs_active and not self._vector_states
                        and self._scalar_bound(stage_index, resources,
                                               key)[5] > budget):
                    # Scalar-mode node certificate (tiny pools): same true
                    # infeasibility proof as the engine-layer bound above.
                    self.stats.suffix_certified += 1
                    self._budget_store(stage_index, key, -math.inf, budget,
                                       None, True, math.inf)
                    return None

        stats = self.stats
        context = self.context
        partition = self.partitions[stage_index]
        best: DPSolution | None = None
        best_value = math.inf
        pruning = self.config.enable_pruning
        combos, children = self._combos_for_state(stage_index, resources, key)
        is_last = stage_index == len(self.partitions) - 1
        next_stage = stage_index + 1
        child_memo = None if is_last else self._memo[next_stage]
        # Hot-loop locals: the suffix bound and candidate scoring below are
        # the inlined, allocation-free forms of _suffix_lower_bound /
        # _combine + _value -- the exact same floating-point operations in
        # the same order, minus the per-combo call and DPSolution overhead.
        nb1 = nb - 1
        is_cost = self.goal is OptimizationGoal.MIN_COST
        sum_after = self._sfx_sum[next_stage]
        max_after = self._sfx_max[next_stage]
        rate_after = self._sfx_rate[next_stage]
        # Scalar rows fill their child state/key lazily (see
        # _combos_for_state); these locals serve that first-visit build.
        vector = self._vector_states
        if not vector and not is_last:
            scalar_caps = (self._caps_list[next_stage]
                           if self._clamp_active[next_stage] else None)

        for combo_index, combo in enumerate(combos):
            entry = combo[0]
            assignment = entry[2]
            if assignment is None:
                assignment = context.build_stage_assignment(
                    partition, self.microbatch_size, self.data_parallel,
                    entry[0], nodes_used=entry[1], compute_time_s=entry[4])
                entry[2] = assignment
            t_a = assignment.compute_time_s
            sync_a = assignment.sync_time_s
            if is_last:
                time_v = t_a + nb1 * t_a + sync_a
                if is_cost or budget is not None:
                    cost_v = assignment.cost_rate_usd_per_s * time_v
                if budget is not None and cost_v > budget:
                    continue
                value = cost_v if is_cost else time_v
                if value < best_value:
                    best = DPSolution(
                        assignments=[assignment],
                        max_stage_time_s=t_a,
                        sum_stage_time_s=t_a,
                        max_sync_time_s=sync_a,
                        cost_rate_usd_per_s=assignment.cost_rate_usd_per_s,
                    )
                    best_value = value
                continue

            cutoff = upper_bound if upper_bound < best_value else best_value
            if pruning:
                sum_lb = t_a + sum_after
                max_lb = t_a if t_a >= max_after else max_after
                base_lb = sum_lb + nb1 * max_lb
                if is_cost:
                    bound = ((assignment.cost_rate_usd_per_s + rate_after)
                             * (base_lb + sync_a) * _COST_BOUND_SLACK)
                    if bound >= cutoff:
                        stats.pruned_branches += 1
                        continue
                elif base_lb >= cutoff:
                    # Combos are sorted by stage compute time, and the
                    # sync-free bound is monotone in it (IEEE-754 add/mul
                    # are monotone), so every remaining combo's individual
                    # bound check would also prune: cut the whole tail.
                    stats.pruned_branches += len(combos) - combo_index
                    break
                elif base_lb + sync_a >= cutoff:
                    stats.pruned_branches += 1
                    continue

            if vector:
                child_key = combo[2]
                child_state = None  # children[combo[1]], fetched on miss
            else:
                child = list(resources)
                for slot, used in combo[1]:
                    child[slot] -= used
                if scalar_caps is not None:
                    child = [count if count <= cap else cap
                             for count, cap in zip(child, scalar_caps)]
                child_state = tuple(child)
                child_key = child_state

            if budget is None:
                # Inlined fast path: memo probe on the precomputed child key
                # without the call overhead of _solve (the overwhelmingly
                # common hit case); the bound matches _child_bound exactly.
                if not pruning or cutoff == math.inf:
                    child_bound = math.inf
                elif is_cost:
                    child_bound = cutoff
                else:
                    child_bound = (cutoff - t_a) * (1.0 + 1e-12)
                child_entry = child_memo.get(child_key)
                if child_entry is not None and (
                        child_entry[1] or child_bound <= child_entry[2]):
                    stats.memo_hits += 1
                    suffix = child_entry[0]
                else:
                    if child_state is None:
                        child_state = children[combo[1]]
                    suffix = self._solve(next_stage, child_state, None,
                                         child_bound, child_key)
                if suffix is None:
                    continue
                sum_t = t_a + suffix.sum_stage_time_s
                s_max = suffix.max_stage_time_s
                max_t = t_a if t_a >= s_max else s_max
                s_sync = suffix.max_sync_time_s
                sync_t = sync_a if sync_a >= s_sync else s_sync
                time_v = sum_t + nb1 * max_t + sync_t
                if is_cost:
                    value = (assignment.cost_rate_usd_per_s
                             + suffix.cost_rate_usd_per_s) * time_v
                else:
                    value = time_v
                if value < best_value:
                    best = DPSolution(
                        assignments=[assignment] + suffix.assignments,
                        max_stage_time_s=max_t,
                        sum_stage_time_s=sum_t,
                        max_sync_time_s=sync_t,
                        cost_rate_usd_per_s=(assignment.cost_rate_usd_per_s
                                             + suffix.cost_rate_usd_per_s),
                    )
                    best_value = value
                continue

            if child_state is None:
                child_state = children[combo[1]]
            candidate = self._solve_suffix(
                stage_index, assignment, child_state, child_key, budget,
                cutoff if pruning else math.inf)
            if candidate is None:
                continue
            value = self._value(candidate)
            if value < best_value:
                best, best_value = candidate, value

        # best_value < upper_bound proves optimality: every pruned branch had
        # a lower bound >= min(upper_bound, incumbent-at-the-time) and the
        # incumbent only improves, so nothing better was discarded.
        exact = best_value < upper_bound or upper_bound == math.inf
        if budget is None:
            self._memo[stage_index][key] = (best, exact, upper_bound)
        else:
            # The found optimum answers every budget down to its own cost;
            # an infeasible result, every budget below the one that failed.
            lo = best.projected_cost(nb) if best is not None else -math.inf
            self._budget_store(stage_index, key, lo, budget, best, exact,
                               upper_bound)
        return best

    def _budget_row(self, stage_index: int, row: int, is_last: bool) -> tuple:
        """Per-(stage, row) scalars the batched budget scan threads through.

        One gather per engine row -- the combo columns plus this stage's
        ``(t, sync, rate)`` and the children's unconstrained ``(sum, max,
        sync, rate, cost, feasible)`` -- converted from the engine's layer
        arrays to plain Python floats once and reused by every budget the
        straggler search proposes for the row.  (A per-node NumPy variant
        was measured *slower*: the combo rows are capped at
        ``max_combos_per_stage``, far too short to amortise array-op
        overhead per node, while this gather-once + scalar-thread layout
        cuts the recursion's per-combo call machinery outright.)
        """
        cached = self._budget_row_cache.get((stage_index, row))
        if cached is not None:
            return cached
        engine = self._engine
        table = self._tables[stage_index]
        # The column/child indices are forward-only, so the forward layers
        # cache them; only the scalar gathers below read the candidate's
        # tables.
        cols, child = engine.forward.row_cols(stage_index, row, is_last)
        if is_last:
            entry = (cols.tolist(), table.compute[cols].tolist(),
                     table.sync[cols].tolist(), table.rate[cols].tolist(),
                     None, None, None, None, None, None, None, None)
        else:
            next_stage = stage_index + 1
            # Whole-layer dominance tables: one vectorized pass per layer,
            # per-element bit-identical to a per-row gather.
            cost_vec, feas_vec = engine.budget_tables(next_stage)
            entry = (cols.tolist(), table.compute[cols].tolist(),
                     table.sync[cols].tolist(), table.rate[cols].tolist(),
                     child.tolist(),
                     engine.sum_t[next_stage][child].tolist(),
                     engine.max_t[next_stage][child].tolist(),
                     engine.sync_t[next_stage][child].tolist(),
                     engine.rate[next_stage][child].tolist(),
                     cost_vec[child].tolist(),
                     feas_vec[child].tolist(),
                     self._engine_bounds().cost_lb[next_stage][child]
                     .tolist())
        self._budget_row_cache[(stage_index, row)] = entry
        return entry

    @hot_path
    def _solve_budget_batched(self, stage_index: int, key: bytes, row: int,
                              budget: float,
                              upper_bound: float) -> DPSolution | None:
        """One budget node's combo scan threaded through the engine layers.

        Replaces the scalar per-combo straggler recursion for states the
        layered engine covers.  The straggler-approximation loop's suffix
        solves are, in the overwhelmingly common case, answered by budget
        dominance (the suffix's unconstrained optimum fits the remaining
        budget) -- and the engine's backward arrays already hold every
        child's unconstrained ``(sum, max, sync, rate)`` quadruple and
        projected cost (gathered once per row by :meth:`_budget_row`), so
        those combos resolve inline without the recursion's per-combo
        ``_solve`` call, memo probes, suffix materialisation or
        ``_combine`` allocation:

        * iteration 1 assumes the stage is the straggler (``rb1 = budget -
          rate * Nb * t``); children whose unconstrained cost fits ``rb1``
          take their engine optimum as the suffix, and the combined
          quadruple/value is computed with the exact op order of
          ``_combine`` / ``_value`` (bit-identical floats, same first-min
          tie-break);
        * a combo whose discovered straggler exceeds the assumption
          re-tests dominance at the tightened budget (``rb2``); when it
          still holds the suffix is unchanged, so the loop's fixpoint is
          reached with the same combined solution the scalar recursion
          returns;
        * only combos with a genuinely binding suffix budget fall back to
          the scalar straggler recursion (:meth:`_solve_suffix`), threaded
          with the same running-incumbent cutoff the scalar scan uses --
          and the same B&B bound checks (including the sorted-combo tail
          cut) guard every combo first, exactly as in :meth:`_solve`.

        Only the winning combo ever materialises ``StageAssignment`` /
        ``DPSolution`` objects; the scalar path materialised every
        dominance-answered suffix it probed.  Runs only on engine-covered
        states, and the engine is only built with pruning on, so the B&B
        checks are unconditional here.
        """
        nb = self.num_microbatches
        nb1 = nb - 1
        is_cost = self.goal is OptimizationGoal.MIN_COST
        is_last = stage_index == len(self.partitions) - 1
        next_stage = stage_index + 1
        stats = self.stats
        table = self._tables[stage_index]
        (cols, t_list, sync_list, rate_list, child_list, sum_list, max_list,
         sync_c_list, rate_c_list, cost_unc_list, feasible_list, clb_list) = \
            self._budget_row(stage_index, row, is_last)

        best: DPSolution | None = None
        best_value = math.inf
        best_idx = -1  # winning *resolved* combo, materialised after the scan
        max_iterations = self.config.max_budget_iterations
        sum_after = self._sfx_sum[next_stage]
        max_after = self._sfx_max[next_stage]
        rate_after = self._sfx_rate[next_stage]
        num_combos = len(cols)
        forward_states = (None if is_last
                          else self._engine.forward.states[next_stage])

        guard = self.search_budget
        for n in range(num_combos):
            if guard is not None:
                guard.tick()
            t_s = t_list[n]
            sync_s = sync_list[n]
            rate_s = rate_list[n]
            if is_last:
                time_v = t_s + nb1 * t_s + sync_s
                cost_v = rate_s * time_v
                if cost_v > budget:
                    continue
                value = cost_v if is_cost else time_v
                if value < best_value:
                    best_value = value
                    best_idx = n
                continue

            cutoff = upper_bound if upper_bound < best_value else best_value
            # Same admissible bounds (and tail cut) as the scalar scan; the
            # scalars come from the kernel table instead of a lazily-built
            # assignment, bit-identical by construction.
            sum_lb = t_s + sum_after
            max_lb = t_s if t_s >= max_after else max_after
            base_lb = sum_lb + nb1 * max_lb
            if is_cost:
                bound = ((rate_s + rate_after) * (base_lb + sync_s)
                         * _COST_BOUND_SLACK)
                if bound >= cutoff:
                    stats.pruned_branches += 1
                    continue
            elif base_lb >= cutoff:
                stats.pruned_branches += num_combos - n
                break
            elif base_lb + sync_s >= cutoff:
                stats.pruned_branches += 1
                continue

            if not feasible_list[n]:
                continue  # infeasible suffix: the recursion returns None
            rb1 = budget - rate_s * nb * t_s
            if rb1 <= 0:
                continue
            resolved = False
            iter1_done = False
            if cost_unc_list[n] <= rb1:
                # Dominance at the assumed straggler: the suffix is the
                # child's unconstrained engine optimum.  Combine inline
                # (op order of _combine + _value).
                stats.suffix_iterations += 1
                sum_t = t_s + sum_list[n]
                max_c = max_list[n]
                max_t = t_s if t_s >= max_c else max_c
                sync_c = sync_c_list[n]
                sync_t = sync_s if sync_s >= sync_c else sync_c
                rate_t = rate_s + rate_c_list[n]
                time_v = sum_t + nb1 * max_t + sync_t
                cost_v = rate_t * time_v
                if cost_v > budget:
                    continue  # combined busts the budget: combo infeasible
                if max_iterations == 1 or straggler_converged(max_t, t_s):
                    resolved = True
                else:
                    # Iteration 2 re-assumes the discovered straggler; when
                    # dominance survives the tightened budget the suffix --
                    # and so the combined solution -- is unchanged, which
                    # *is* the loop's fixpoint.
                    rb2 = budget - rate_s * nb * max_t
                    if rb2 <= 0:
                        continue
                    if cost_unc_list[n] <= rb2:
                        resolved = True
                    elif clb_list[n] > rb2:
                        # Certificate: at the tightened budget every
                        # suffix solution costs more, so the recursion's
                        # iteration 2 would come back empty and the combo
                        # contributes nothing.
                        stats.suffix_certified += 1
                        continue
                    else:
                        iter1_done = True
            elif clb_list[n] > rb1:
                # Certificate: the suffix is budget-infeasible even with
                # this stage assumed the straggler -- the recursion's
                # iteration 1 would return None.  Resolved in-layer, no
                # scalar fallback.
                stats.suffix_certified += 1
                continue
            if resolved:
                value = cost_v if is_cost else time_v
                if value < best_value:
                    best_value = value
                    best_idx = n
                    best = None
                continue

            # Genuinely binding suffix budget: scalar straggler recursion.
            entry = table.entries[cols[n]]
            assignment = entry[2]
            if assignment is None:
                assignment = self.context.build_stage_assignment(
                    self.partitions[stage_index], self.microbatch_size,
                    self.data_parallel, entry[0], nodes_used=entry[1],
                    compute_time_s=entry[4])
                entry[2] = assignment
            child_state = forward_states[child_list[n]]
            # Hand an inline iteration-1 result over so the recursion
            # enters at iteration 2 instead of re-deriving it.
            seed = (self._materialize(next_stage, child_list[n])
                    if iter1_done else None)
            candidate = self._solve_suffix(
                stage_index, assignment, child_state, child_state.tobytes(),
                budget, cutoff, seed_suffix=seed)
            if candidate is None:
                continue
            value = self._value(candidate)
            if value < best_value:
                best, best_value = candidate, value
                best_idx = -1

        if best is None and best_idx >= 0:
            best_col = cols[best_idx]
            best_child = -1 if is_last else child_list[best_idx]
            entry = table.entries[best_col]
            assignment = entry[2]
            if assignment is None:
                assignment = self.context.build_stage_assignment(
                    self.partitions[stage_index], self.microbatch_size,
                    self.data_parallel, entry[0], nodes_used=entry[1],
                    compute_time_s=entry[4])
                entry[2] = assignment
            if is_last:
                best = DPSolution(
                    assignments=[assignment],
                    max_stage_time_s=assignment.compute_time_s,
                    sum_stage_time_s=assignment.compute_time_s,
                    max_sync_time_s=assignment.sync_time_s,
                    cost_rate_usd_per_s=assignment.cost_rate_usd_per_s,
                )
            else:
                best = self._combine(assignment,
                                     self._materialize(next_stage, best_child))

        exact = best_value < upper_bound or upper_bound == math.inf
        lo = best.projected_cost(nb) if best is not None else -math.inf
        self._budget_store(stage_index, key, lo, budget, best, exact,
                           upper_bound)
        return best

    def _child_bound(self, cutoff: float, assignment: StageAssignment) -> float:
        """Upper bound to thread into the suffix solve below ``assignment``.

        Any completed solution satisfies ``combined >= suffix + t_a`` for the
        throughput objective and ``combined >= suffix`` for cost, so a suffix
        at or above the returned bound can never beat the incumbent.  The
        tiny relative slack absorbs rounding in the subtraction.
        """
        if cutoff == math.inf:
            return math.inf
        if self.goal is OptimizationGoal.MIN_COST:
            return cutoff
        return (cutoff - assignment.compute_time_s) * (1.0 + 1e-12)

    def _solve_suffix(self, stage_index: int, assignment: StageAssignment,
                      remaining, remaining_key: bytes,
                      budget: float, cutoff: float,
                      seed_suffix: DPSolution | None = None,
                      ) -> DPSolution | None:
        """Combine one stage assignment with the best budgeted suffix.

        Implements the straggler-approximation loop of section 4.2.3: assume
        the current stage is the straggler, compute the remaining budget,
        solve the suffix, and retry with the discovered straggler when the
        assumption turns out wrong.  (The unbudgeted case is handled by the
        inlined fast path in :meth:`_solve`.)

        ``seed_suffix`` is the batched scan's continuation handoff: the
        caller already resolved (and counted) iteration 1 inline -- the
        suffix is the child's unconstrained engine optimum, dominance held
        at the assumed straggler, the combined solution passed the budget
        check, convergence failed, and the re-tested budget is positive
        but binding -- so the loop starts at iteration 2 instead of
        re-deriving all of that.

        Three certificates resolve the loop without suffix solves, each
        outcome-identical to running it (the reduction is what
        ``SearchStats.suffix_iterations`` / ``suffix_certified`` observe):

        * **Engine-seeded straggler**: when
          the child's unconstrained engine optimum fits the remaining
          budget even at the straggler the *combined* solution discovers
          (its ``max_t`` is known from the engine layer), the loop's
          fixpoint is that combination: iteration 1 takes it via budget
          dominance and iteration 2's re-probe at the tightened budget
          returns it unchanged.  Equivalence does not depend on the memo's
          content -- with dominance in force, any interval entry covering
          the iteration-1 budget must *be* the dominance entry (a binding
          or infeasible entry stored at a budget at or above the
          unconstrained cost would contradict the dominance shortcut that
          guards every store).
        * **Cost lower bound**: a monotone
          per-(stage, state) lower bound on the cost of *every* suffix
          solution in the truncated search space.  ``cost_lb > remaining
          budget`` proves the iteration's suffix solve returns ``None``
          (a budgeted solve only returns budget-respecting solutions), so
          the loop dies without probing or solving.  Because the assumed
          straggler only grows, the remaining budget only shrinks -- once
          any iteration is certified dead, so is the rest of the loop.
        * **Fixpoint identity**: when an iteration's interval-memo probe
          returns the same suffix object as the previous iteration, the
          recombined solution is field-identical, its budget check passed
          last iteration, and the discovered straggler equals the assumed
          one exactly -- converged, no recombination needed.
        """
        nb = self.num_microbatches
        child_bound = self._child_bound(cutoff, assignment)
        next_stage = stage_index + 1
        # Inlined interval-memo probe for the loop's suffix queries (the
        # overwhelmingly common hit case): same lookup rule as
        # _budget_lookup, minus the per-iteration call overhead.  Skipped
        # under fork tracking, which must observe every query in _solve.
        budget_memo = self._budget_memo[next_stage]
        probe_inline = not self.track_budget_forks
        stats = self.stats
        t_a = assignment.compute_time_s
        rate_a = assignment.cost_rate_usd_per_s

        cost_lb = None
        iterations = self.config.max_budget_iterations
        combined: DPSolution | None = None
        prev_suffix: DPSolution | None = None
        assumed_straggler = t_a
        engine = self._engine
        certs = self._certs_active
        if certs and engine is not None:
            row = engine.row_for_key(next_stage, remaining_key)
            if row is not None:
                cost_vec, feas_vec = engine.budget_tables(next_stage)
                if not feas_vec[row]:
                    # Iteration 1's solve would find the suffix state
                    # infeasible outright.
                    stats.suffix_certified += 1
                    return None
                cost_lb = self._engine_bounds().cost_lb[next_stage][row]
                if seed_suffix is not None:
                    # Batched-scan continuation: the caller already ran --
                    # and counted -- iteration 1 inline (dominance at the
                    # assumed straggler, combined under budget, not
                    # converged, re-tested budget positive but binding),
                    # so enter the loop at iteration 2 directly.
                    combined = self._combine(assignment, seed_suffix)
                    # Replicate iteration 1's dominance store so later
                    # probes of this suffix state hit.
                    self._budget_store(next_stage, remaining_key,
                                       float(cost_vec[row]), math.inf,
                                       seed_suffix, True, math.inf)
                    prev_suffix = seed_suffix
                    assumed_straggler = combined.max_stage_time_s
                    iterations -= 1
                else:
                    rb1 = budget - rate_a * nb * t_a
                    if rb1 <= 0:
                        return None
                    cost_unc = cost_vec[row]
                    if cost_unc <= rb1:
                        # Iteration 1 resolves by dominance; seed the
                        # loop at its discovered straggler.
                        stats.suffix_iterations += 1
                        suffix = self._materialize(next_stage, row)
                        combined = self._combine(assignment, suffix)
                        if combined.projected_cost(nb) > budget:
                            return None
                        actual = combined.max_stage_time_s
                        if (iterations == 1
                                or straggler_converged(actual, t_a)):
                            return combined
                        rb2 = budget - rate_a * nb * actual
                        if rb2 <= 0:
                            return None
                        # Replicate iteration 1's dominance store so
                        # later probes of this suffix state hit.
                        self._budget_store(next_stage, remaining_key,
                                           float(cost_unc), math.inf,
                                           suffix, True, math.inf)
                        if cost_unc <= rb2:
                            # Iteration 2 re-probes the same dominance
                            # entry: the fixpoint is certified.
                            stats.suffix_certified += 1
                            return combined
                        # Genuinely binding at the discovered straggler:
                        # continue from iteration 2.
                        iterations -= 1
                        prev_suffix = suffix
                        assumed_straggler = actual
        elif certs:
            bound = self._scalar_bound(next_stage, remaining, remaining_key)
            cost_lb = bound[5]

        guard = self.search_budget
        for _ in range(iterations):
            if guard is not None:
                guard.tick()
            stage_cost = rate_a * nb * assumed_straggler
            remaining_budget = budget - stage_cost
            if remaining_budget <= 0:
                return None
            if cost_lb is not None and cost_lb > remaining_budget:
                # Certified: this (and so every later) iteration's suffix
                # solve returns None.
                stats.suffix_certified += 1
                return None
            stats.suffix_iterations += 1
            suffix = None
            hit = None
            if probe_inline:
                entries = budget_memo.get(remaining_key)
                if entries is not None:
                    for entry in entries:
                        if (entry[0] <= remaining_budget <= entry[1]
                                and (entry[3] or child_bound <= entry[4])):
                            hit = entry
                            break
            if hit is not None:
                stats.memo_hits += 1
                suffix = hit[2]
                if suffix is prev_suffix and suffix is not None:
                    # Fixpoint identity: recombining is field-identical,
                    # the budget check passed last iteration, and the
                    # straggler matches the assumption exactly.
                    return combined
            else:
                suffix = self._solve(next_stage, remaining,
                                     remaining_budget, child_bound,
                                     remaining_key)
            if suffix is None:
                return None
            prev_suffix = suffix
            combined = self._combine(assignment, suffix)
            if combined.projected_cost(nb) > budget:
                return None
            actual_straggler = combined.max_stage_time_s
            if straggler_converged(actual_straggler, assumed_straggler):
                return combined
            assumed_straggler = actual_straggler
        return combined

    @staticmethod
    def _combine(assignment: StageAssignment, suffix: DPSolution) -> DPSolution:
        return DPSolution(
            assignments=[assignment] + suffix.assignments,
            max_stage_time_s=max(assignment.compute_time_s, suffix.max_stage_time_s),
            sum_stage_time_s=assignment.compute_time_s + suffix.sum_stage_time_s,
            max_sync_time_s=max(assignment.sync_time_s, suffix.max_sync_time_s),
            cost_rate_usd_per_s=(assignment.cost_rate_usd_per_s
                                 + suffix.cost_rate_usd_per_s),
        )
