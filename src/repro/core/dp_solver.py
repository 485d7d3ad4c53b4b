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

A solve runs in one of two regimes, each with one job:

==============  ====================  ======================================
objective       state space           regime
==============  ====================  ======================================
unconstrained   < ENGINE_MIN_STATES   tuple recursion, branch-and-bound
unconstrained   >= ENGINE_MIN_STATES  layered engine, root row materialised
budget          any                   layered engine, batched budget nodes
==============  ====================  ======================================

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
  tuple encoding.  Every budgeted solve and every unconstrained solve on
  a wide pool builds a
  :class:`~repro.core.resource_state.ResourceStateEngine`, which computes
  the unconstrained table bottom-up, one whole stage layer of states per
  batched kernel call (see its docstring for the forward/backward passes
  and the bit-equivalence argument).  Each solve runs its own *forward*
  pass (reachability) and, on budget solves, its own bound pass; both are
  freed with the solver.  They are not kept for other candidates: the
  per-stage footprints differ between ``mbs`` variants, so a cold
  1024-GPU plan repeats only 2 of its 27 forward passes, while keeping them
  would dominate the planner's peak memory.
* **The pruned tuple recursion.**  Unconstrained solves on tiny pools
  (below :data:`ENGINE_MIN_STATES`, where NumPy call overhead cannot
  amortise) recurse over plain int tuple states that are their own memo
  keys; each state's fitting combos come from one scalar scan in master
  order, cached per state.  Before recursing on a combo the solver
  computes an admissible lower bound on the objective of any completed
  solution through that combo (best achievable compute time / cost rate
  of the remaining stages, from the cheapest options available at the
  root).  Branches that cannot beat the incumbent -- threaded down the
  recursion as an upper bound -- are pruned.  Bounds are admissible (they
  never exceed the true value, including under floating-point rounding,
  because IEEE-754 add/mul are monotone), so pruning never changes the
  value of the returned solution; the unpruned exhaustive reference the
  equivalence tests compare against lives in ``tests/``.

When a budget constraint is present, the solver follows the paper's
straggler-approximation loop: it first assumes the current stage is the
pipeline straggler to estimate the budget left for the remaining stages,
solves them, and re-iterates with the discovered straggler when the
assumption was wrong (section 4.2.3).  This is what makes budget-constrained
searches slower (Table 3).  Every budget node runs on the engine, keyed by
its row in the engine layer, and its whole combo scan threads the loop's
first iteration through the engine's per-layer arrays
(:meth:`DPSolver._solve_budget_batched`: an admissible lower bound on the
cost of every whole solution through a combo, :func:`combo_cost_lb`,
certifies combos that cannot fit the budget without solving their
suffixes, and dominance-answered iterations resolve inline, bit-identical
to a per-combo loop).  Only combos whose suffix budget genuinely binds
run the rest of the loop (:meth:`DPSolver._solve_suffix`).  Two further
mechanisms answer most queries without a fresh search:

* A *budget-dominance* shortcut: whenever the unconstrained optimum of a
  subproblem fits the remaining budget it is also the budgeted optimum, so
  only genuinely binding budgets enter the straggler loop.  Unlike
  branch-and-bound this shortcut is part of the algorithm (the exhaustive
  reference keeps it too; it can only return equal-or-better solutions
  than the straggler approximation) and is covered by its own dominance
  property tests.
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
  remaining budget and can land on a different approximate answer).  For
  the same reason the certificates do not keep solutions byte-identical
  by construction: a certified combo skips suffix solves whose memo
  entries a later budget would have reused.  The reuse is deliberate --
  the interval answer is a feasible solution whose optimality claim is at
  least as strong as the stored search's -- and the observed effect on
  the planner is bounded to occasional extra feasible candidates (chosen
  plans stayed byte-identical across the equivalence matrix); the budget
  property tests in ``tests/test_dp_solver.py`` pin the sound guarantees
  (budget respected, never beats brute force, non-binding budgets exact).
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


#: Layered-engine dispatch threshold of *unconstrained* solves, on
#: ``prod(root count + 1)``, an upper bound on any state layer's size (the
#: module docstring has the dispatch table).  Measured on the bench
#: scenarios: below the threshold NumPy call overhead dominates and the
#: tuple recursion is faster; at or above it the engine's batched layers
#: win.  A budgeted solve always runs on the engine, whatever the pool
#: size: the budget straggler loop has one implementation.  Both regimes
#: return byte-identical plans (``tests/golden/``), so this is pure
#: latency policy; tests monkeypatch it to 0 to force the engine.
ENGINE_MIN_STATES = 100

#: Combos each stage keeps per resource state, best-ranked first (the
#: stage's master list truncated; see :meth:`DPSolver._combos_for_state`).
MAX_COMBOS_PER_STAGE = 16

#: Iteration cap of the straggler-approximation loop of the budgeted
#: search: more iterations can only refine the budget split, never
#: invalidate one.
MAX_BUDGET_ITERATIONS = 4


#: Relative slack applied to cost-mode lower bounds: the cost bound divides
#: where the real cost rate ceils, so the two can differ by a rounding ulp.
_COST_BOUND_SLACK = 1.0 - 1e-12

#: Straggler-loop convergence tolerance: relative *plus* absolute, because a
#: purely absolute 1e-12 is below one float64 ulp once iteration times reach
#: hundreds of seconds (spacing at 512 s is ~1.1e-13 per ulp but compound
#: rounding across the combine easily exceeds 1e-12) -- the loop would then
#: burn its full ``MAX_BUDGET_ITERATIONS`` re-solving on float noise.
_STRAGGLER_ABS_TOL = 1e-12
_STRAGGLER_REL_TOL = 1e-12


def straggler_converged(actual: float, assumed: float) -> bool:
    """True when the discovered straggler matches the assumed one.

    ``assumed`` is a stage compute time (never negative), so the relative
    term needs no ``abs``.
    """
    return actual <= assumed + (_STRAGGLER_ABS_TOL
                                + _STRAGGLER_REL_TOL * assumed)


def combo_cost_lb(compute, sync, rate, straggler_c, sync_c, rate_c, sum_c,
                  cost_c, nb1: int):
    """Admissible lower bound on the projected cost of every whole solution
    that takes a combo ``(compute, sync, rate)`` and completes it below a
    child row whose budget bounds (:class:`BudgetBoundTables`) are
    ``straggler_c``, ``sync_c``, ``rate_c``, ``sum_c`` and ``cost_c``.

    A completion with suffix ``(sum, max, sync', R)`` takes time ``T = t +
    sum + nb1 * max(t, max) + max(sync, sync')``, at least ``T_lb`` term by
    term, so its cost ``(rate + R) * T`` is at least ``(rate + rate_c) *
    T_lb``.  ``T`` is also at least the suffix's own time, so ``R * T``
    is at least ``cost_c`` and the cost at least ``rate * T_lb + cost_c``.
    The better of the two, scaled by :data:`_COST_BOUND_SLACK` for
    rounding.  Elementwise over NumPy arrays; a child with ``+inf`` bounds
    (infeasible, or the sentinel row) gives ``+inf``.  Its time factors
    are masked to 0 first, so no ``0 * inf`` (``Nb == 1``, a free combo)
    makes a NaN.
    """
    infeasible = np.isinf(straggler_c)
    time_lb = (compute + np.where(infeasible, 0.0, sum_c)
               + nb1 * np.where(infeasible, 0.0,
                                np.maximum(compute, straggler_c))
               + np.maximum(sync, np.where(infeasible, 0.0, sync_c)))
    return (np.maximum((rate + rate_c) * time_lb, rate * time_lb + cost_c)
            * _COST_BOUND_SLACK)


class DPSolver:
    """Solves the per-stage resource-assignment problem for one (P, D, mbs)."""

    def __init__(self, env: SimulationEnvironment, job: TrainingJobSpec,
                 partitions: list[LayerPartition],
                 tp_options_per_stage: list[dict[str, list[int]]],
                 microbatch_size: int, data_parallel: int,
                 num_microbatches: int,
                 goal: OptimizationGoal = OptimizationGoal.MAX_THROUGHPUT,
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
        if context is not None and context.goal is not goal:
            # Combo ranking/truncation lives on the context; a mismatched
            # goal would silently rank by the wrong metric.
            raise ValueError(
                f"context goal {context.goal} does not match solver goal {goal}")
        self.context = context or PlannerSearchContext(env, job, goal)
        self._tp_keys = [tp_options_key(opts) for opts in tp_options_per_stage]
        # Per-solve state, rebuilt by :meth:`solve`: the resource-state
        # codec (array encoding of the root's states), the engine's kernel
        # tables or the recursion's per-stage footprint pairs, per-state
        # fitting combo lists, clamp vectors, admissible per-suffix bounds,
        # and the memos.  Memos are one dict per stage: ``_memo`` keyed on
        # the recursion's int tuple states, ``_budget_memo`` (interval
        # lists, see the module docstring) on the engine's layer rows.
        self._root: ResourceKey = ()
        self._codec: ResourceStateCodec | None = None
        self._tables: list[StageKernelTable] = []
        self._pairs: list[list | None] = [None] * len(partitions)
        self._engine: ResourceStateEngine | None = None
        self._mat_cache: dict[tuple[int, int], DPSolution] = {}
        self._budget_row_cache: dict[tuple[int, int], tuple] = {}
        #: Straggler/cost lower-bound tables over the engine layers (budget
        #: certificates), built lazily on the first budget node of a solve.
        self._bounds: BudgetBoundTables | None = None
        self._caps_list: list[tuple[int, ...]] = []
        self._memo: list[dict[tuple,
                              tuple[DPSolution | None, bool, float]]] = \
            [{} for _ in partitions]
        self._budget_memo: list[dict[int, list[list]]] = \
            [{} for _ in partitions]
        self._combo_cache: list[dict[tuple, list]] = [{} for _ in partitions]
        self._clamp_active: list[bool] = [True] * len(partitions)
        self._caps_vec: list[np.ndarray] = []
        self._sfx_sum: list[float] = []
        self._sfx_max: list[float] = []
        self._sfx_rate: list[float] = []
        self._prepare_clamps()

    @property
    def stats(self):
        """Search counters, shared with the context (and so the planner)."""
        return self.context.stats

    # -- public API ------------------------------------------------------------

    def solve(self, resources: ResourceMap,
              budget_per_iteration: float | None = None) -> DPSolution | None:
        """Assign resources to every stage; ``None`` when nothing fits.

        With a :class:`~repro.core.budget.SearchBudget` attached, a deadline
        or node-budget hit raises :class:`SearchBudgetExhausted` from the
        nearest cancellation point.  The exception is salvageable: the
        context's cross-candidate caches keep every subproblem completed so
        far, and the caller keeps its pre-deadline incumbent (see
        ``SailorPlanner._plan_branch``).
        """
        state = self._prepare_root(resources)
        if state is None:
            return None  # some stage can be hosted by no available option
        # Dispatch (module docstring): tiny unconstrained pools, where the
        # batched kernels cannot amortise their fixed NumPy cost, run the
        # recursion over int tuple states; every other solve runs on the
        # layered engine -- same fit order, byte-identical plans.
        self._engine = None
        self._mat_cache = {}
        self._budget_row_cache = {}
        if budget_per_iteration is None:
            state_space = 1
            for count in self._codec.root_state.tolist():
                state_space *= count + 1
            if state_space < ENGINE_MIN_STATES:
                return self._solve(0, tuple(state.tolist()), math.inf)
        engine = self._build_engine(state)
        # Every engine state counts as an explored node, and the forward
        # pass's deduplicated children as memo hits.
        self.stats.nodes_explored += engine.forward.states_computed
        self.stats.memo_hits += engine.forward.dedup_hits
        self._engine = engine
        if budget_per_iteration is None:
            if not engine.feasible(0, 0):
                return None
            return self._materialize(0, 0)
        return self._solve_budget(0, 0, budget_per_iteration, math.inf)

    def _prepare_root(self, resources: ResourceMap) -> np.ndarray | None:
        """Reset the per-solve state for ``resources``; the clamped root.

        Builds the codec, the clamp vectors and the admissible per-suffix
        bounds, and returns the root state clamped at stage 0's caps --
        ``None`` when some stage can be hosted by no available option.
        """
        num_stages = len(self.partitions)
        self._memo = [{} for _ in range(num_stages)]
        self._budget_memo = [{} for _ in range(num_stages)]
        self._combo_cache = [{} for _ in range(num_stages)]
        self._bounds = None
        root = tuple(sorted((key, count) for key, count in resources.items()
                            if count > 0))
        self._root = root
        codec = ResourceStateCodec(root)
        self._codec = codec
        self._tables = []
        self._pairs = [None] * num_stages
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
        self._caps_list = [tuple(caps.tolist()) for caps in self._caps_vec]
        if not self._prepare_bounds(root):
            return None
        state = codec.root_state
        if self._clamp_active[0]:
            state = codec.clamp(state, self._caps_vec[0])
        return state

    def _build_engine(self, root_state: np.ndarray) -> ResourceStateEngine:
        """Assemble the per-stage kernel tables and the layered engine.

        The kernel tables pair each stage's footprint matrix with eager
        per-combo scalar arrays (compute, sync, cost rate -- all served
        from the shared context's caches), and are installed into
        ``_tables`` for materialisation and the batched budget scan.  The
        forward reachability layers and the backward pass are computed
        for this solve alone.
        """
        tables: list[StageKernelTable] = []
        context = self.context
        for stage_index, partition in enumerate(self.partitions):
            master = self._master_combos(stage_index, self._root)
            tables.append(StageKernelTable(
                entries=master,
                req=self._codec.combo_req(master),
                compute=np.array([entry[4] for entry in master]),
                sync=np.array([context.stage_sync_time(
                    partition, self.data_parallel, entry[0])
                    for entry in master]),
                rate=np.array([context.stage_cost_rate(entry[0])
                               for entry in master]),
            ))
        self._tables = tables
        forward = compute_forward_layers(
            [table.req for table in tables], self._caps_vec,
            self._clamp_active, MAX_COMBOS_PER_STAGE, root_state,
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
        solution = self._combo_solution(stage_index, combo, child)
        self._mat_cache[(stage_index, row)] = solution
        return solution

    def _combo_solution(self, stage_index: int, combo: int,
                        child: int) -> DPSolution:
        """The DPSolution of one combo of a stage over its child engine row
        (``child`` is ignored at the last stage)."""
        entry = self._tables[stage_index].entries[combo]
        assignment = entry[2]
        if assignment is None:
            assignment = self._build_assignment(stage_index, entry)
        if stage_index == len(self.partitions) - 1:
            return DPSolution(
                assignments=[assignment],
                max_stage_time_s=assignment.compute_time_s,
                sum_stage_time_s=assignment.compute_time_s,
                max_sync_time_s=assignment.sync_time_s,
                cost_rate_usd_per_s=assignment.cost_rate_usd_per_s,
            )
        return self._combine(assignment,
                             self._materialize(stage_index + 1, child))

    def _build_assignment(self, stage_index: int,
                          entry: list) -> StageAssignment:
        """Build a master-combo entry's ``StageAssignment`` and store it in
        ``entry[2]``.

        Entries build their assignment lazily.  Callers test ``entry[2] is
        None`` themselves and call this only then, so the hot loops' common
        path stays one list index and one ``is None`` test.
        """
        assignment = self.context.build_stage_assignment(
            self.partitions[stage_index], self.microbatch_size,
            self.data_parallel, entry[0], nodes_used=entry[1],
            compute_time_s=entry[4])
        entry[2] = assignment
        return assignment

    # -- combo generation ---------------------------------------------------------

    def _master_combos(self, stage_index: int,
                       resources: ResourceKey) -> list:
        """Untruncated sorted combo list for a stage from ``resources``."""
        return self.context.stage_master_combos(
            self.partitions[stage_index], self.microbatch_size,
            self.data_parallel, self.tp_options_per_stage[stage_index],
            self._tp_keys[stage_index],
            self._clamp(resources, self._stage_clamp[stage_index]))

    def _combos_for_state(self, stage_index: int, state: tuple) -> list:
        """Combos of the root master list that fit one resource state.

        A combo generated from a resource subset is exactly a root combo
        whose whole-node footprint fits the subset, so a fit scan over the
        stage's root master list (already in ranking order) truncated at
        :data:`MAX_COMBOS_PER_STAGE` reproduces the per-state enumeration.
        Returns ``[(entry, ((slot, used), ...)), ...]``: *references* to
        the stage's shared footprint pairs, so no per-state allocation
        survives the scan (allocation churn here shows up as whole-solve
        GC pauses); the recursion subtracts children per visit.  Cached
        per ``(stage, state)``.
        """
        cache = self._combo_cache[stage_index]
        fitting = cache.get(state)
        if fitting is not None:
            return fitting
        pairs = self._pairs[stage_index]
        if pairs is None:
            pairs = self._codec.combo_pairs(
                self._master_combos(stage_index, self._root))
            self._pairs[stage_index] = pairs
        fitting = []
        found = 0
        for pair in pairs:
            for slot, used in pair[1]:
                if state[slot] < used:
                    break
            else:
                fitting.append(pair)
                found += 1
                if found >= MAX_COMBOS_PER_STAGE:
                    break
        cache[state] = fitting
        return fitting

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
        clamp used for context cache keys; the recursion clamps its int
        tuple states per slot inline.)
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

    def _budget_lookup(self, stage_index: int, row: int,
                       budget: float, upper_bound: float) -> tuple | None:
        """Interval entry answering ``budget`` under the caller's bound.

        An entry ``[lo, hi, solution, exact, bound]`` answers every budget
        in ``[lo, hi]`` (module docstring has the proof); a bound-limited
        entry additionally requires the caller's bound to be at least as
        strict, exactly like the unbudgeted memo.
        """
        entries = self._budget_memo[stage_index].get(row)
        if entries is None:
            return None
        for entry in entries:
            if (entry[0] <= budget <= entry[1]
                    and (entry[3] or upper_bound <= entry[4])):
                return entry
        return None

    def _budget_store(self, stage_index: int, row: int, lo: float,
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
        entries = memo.get(row)
        if entries is None:
            memo[row] = [[lo, hi, solution, exact, bound]]
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

    # -- recursion ------------------------------------------------------------------

    def _solve(self, stage_index: int, state: tuple,
               upper_bound: float) -> DPSolution | None:
        """Best unconstrained assignment of stages ``stage_index..P-1``.

        The tiny-pool recursion: ``state`` is an int tuple resource state
        already clamped at this stage's caps (the root by :meth:`solve`,
        children by the combo loop) and is its own memo key.
        """
        entry = self._memo[stage_index].get(state)
        if entry is not None:
            solution, exact, bound = entry
            # A bound-limited entry only proves "nothing beats `bound`"; it
            # can be reused when the caller's bound is at least as strict.
            if exact or upper_bound <= bound:
                self.stats.memo_hits += 1
                return solution
        self.stats.nodes_explored += 1
        guard = self.search_budget
        if guard is not None:
            guard.tick()

        stats = self.stats
        best: DPSolution | None = None
        best_value = math.inf
        combos = self._combos_for_state(stage_index, state)
        is_last = stage_index == len(self.partitions) - 1
        next_stage = stage_index + 1
        child_memo = None if is_last else self._memo[next_stage]
        child_caps = (self._caps_list[next_stage]
                      if not is_last and self._clamp_active[next_stage]
                      else None)
        # Hot-loop locals: the suffix bound and candidate scoring below are
        # the inlined, allocation-free forms of _suffix_lower_bound /
        # _combine + _value -- the exact same floating-point operations in
        # the same order, minus the per-combo call and DPSolution overhead.
        nb1 = self.num_microbatches - 1
        is_cost = self.goal is OptimizationGoal.MIN_COST
        sum_after = self._sfx_sum[next_stage]
        max_after = self._sfx_max[next_stage]
        rate_after = self._sfx_rate[next_stage]

        for combo_index, (entry, footprint) in enumerate(combos):
            assignment = entry[2]
            if assignment is None:
                assignment = self._build_assignment(stage_index, entry)
            t_a = assignment.compute_time_s
            sync_a = assignment.sync_time_s
            if is_last:
                time_v = t_a + nb1 * t_a + sync_a
                value = (assignment.cost_rate_usd_per_s * time_v if is_cost
                         else time_v)
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
                # Combos are sorted by stage compute time, and the sync-free
                # bound is monotone in it (IEEE-754 add/mul are monotone),
                # so every remaining combo's individual bound check would
                # also prune: cut the whole tail.
                stats.pruned_branches += len(combos) - combo_index
                break
            elif base_lb + sync_a >= cutoff:
                stats.pruned_branches += 1
                continue

            child = list(state)
            for slot, used in footprint:
                child[slot] -= used
            if child_caps is not None:
                child = [count if count <= cap else cap
                         for count, cap in zip(child, child_caps)]
            child_state = tuple(child)

            # Inlined fast path: memo probe on the child state without the
            # call overhead of _solve (the overwhelmingly common hit case);
            # the bound matches _child_bound exactly.
            if cutoff == math.inf:
                child_bound = math.inf
            elif is_cost:
                child_bound = cutoff
            else:
                child_bound = (cutoff - t_a) * (1.0 + 1e-12)
            child_entry = child_memo.get(child_state)
            if child_entry is not None and (
                    child_entry[1] or child_bound <= child_entry[2]):
                stats.memo_hits += 1
                suffix = child_entry[0]
            else:
                suffix = self._solve(next_stage, child_state, child_bound)
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

        # best_value < upper_bound proves optimality: every pruned branch had
        # a lower bound >= min(upper_bound, incumbent-at-the-time) and the
        # incumbent only improves, so nothing better was discarded.
        exact = best_value < upper_bound or upper_bound == math.inf
        self._memo[stage_index][state] = (best, exact, upper_bound)
        return best

    def _solve_budget(self, stage_index: int, row: int, budget: float,
                      upper_bound: float) -> DPSolution | None:
        """Best assignment of stages ``stage_index..P-1`` under ``budget``.

        One budget node of an engine-backed solve: ``row`` is the node's
        state in the engine layer of ``stage_index`` (rows and states are a
        bijection within one solve; the root is row 0) and its budgeted
        memo key.  Dominance and the cost certificate answer it from the
        engine layers in O(1); only a genuinely binding budget scans the
        node's combos (:meth:`_solve_budget_batched`).
        """
        hit = self._budget_lookup(stage_index, row, budget, upper_bound)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit[2]
        self.stats.nodes_explored += 1
        if self.search_budget is not None:
            self.search_budget.tick()
        # Budget dominance: the unconstrained optimum of this subproblem is
        # shared by every budget the straggler loop proposes.  When it fits
        # the remaining budget it is also the budgeted optimum (the
        # constraint is inactive at the optimum), valid for every budget
        # down to its own cost -- the interval [cost, +inf).  When the
        # subproblem is infeasible outright, so is every budgeted variant:
        # (-inf, +inf).  The engine answers the probe from its table
        # (including the projected cost, so binding probes materialise
        # nothing).
        engine = self._engine
        if not engine.feasible(stage_index, row):
            self._budget_store(stage_index, row, -math.inf, math.inf, None,
                               True, math.inf)
            return None
        cost = engine.projected_cost(stage_index, row)
        if cost <= budget:
            unconstrained = self._materialize(stage_index, row)
            self._budget_store(stage_index, row, cost, math.inf,
                               unconstrained, True, math.inf)
            return unconstrained
        if self._engine_bounds().cost_lb[stage_index][row] > budget:
            # Certificate: every solution in this node's search space costs
            # more than the budget (a budgeted scan only ever returns
            # budget-respecting solutions, so it would come back empty) --
            # true infeasibility, valid for every budget at or below this
            # one.
            self.stats.suffix_certified += 1
            self._budget_store(stage_index, row, -math.inf, budget, None,
                               True, math.inf)
            return None
        return self._solve_budget_batched(stage_index, row, budget,
                                          upper_bound)

    def _budget_row(self, stage_index: int, row: int, is_last: bool) -> tuple:
        """Per-(stage, row) scalars the batched budget scan threads through.

        One gather per engine row -- the combo columns plus this stage's
        ``(t, sync, rate)`` and the children's rows, unconstrained ``(sum,
        max, sync, rate, cost, feasible)`` and each combo's whole-solution
        cost bound (:func:`combo_cost_lb` over the children's bound rows)
        -- converted from the engine's layer arrays to plain Python floats
        once and reused by every budget the straggler search proposes for
        the row.  (A per-node NumPy variant was measured *slower*: the
        combo rows are capped at ``MAX_COMBOS_PER_STAGE``, far too short to
        amortise array-op overhead per node, while this gather-once +
        scalar-thread layout needs no per-combo call machinery.)
        """
        cached = self._budget_row_cache.get((stage_index, row))
        if cached is not None:
            return cached
        engine = self._engine
        table = self._tables[stage_index]
        cols, child = engine.forward.row_cols(stage_index, row, is_last)
        compute = table.compute[cols]
        sync = table.sync[cols]
        rate = table.rate[cols]
        head = (cols.tolist(), compute.tolist(), sync.tolist(), rate.tolist())
        if is_last:
            entry = head + (None,) * 8
        else:
            next_stage = stage_index + 1
            # Whole-layer dominance tables: one vectorized pass per layer,
            # per-element bit-identical to a per-row gather.
            cost_vec, feas_vec = engine.budget_tables(next_stage)
            bounds = self._engine_bounds()
            lb = combo_cost_lb(compute, sync, rate,
                               bounds.straggler_lb[next_stage][child],
                               bounds.sync_lb[next_stage][child],
                               bounds.rate_lb[next_stage][child],
                               bounds.sum_lb[next_stage][child],
                               bounds.cost_lb[next_stage][child],
                               self.num_microbatches - 1)
            entry = head + (child.tolist(),
                            engine.sum_t[next_stage][child].tolist(),
                            engine.max_t[next_stage][child].tolist(),
                            engine.sync_t[next_stage][child].tolist(),
                            engine.rate[next_stage][child].tolist(),
                            cost_vec[child].tolist(),
                            feas_vec[child].tolist(),
                            lb.tolist())
        self._budget_row_cache[(stage_index, row)] = entry
        return entry

    @hot_path
    def _solve_budget_batched(self, stage_index: int, row: int,
                              budget: float,
                              upper_bound: float) -> DPSolution | None:
        """One budget node's combo scan threaded through the engine layers.

        Every binding budget node runs here, and each combo's straggler
        loop starts here with iteration 1 -- assume this stage is the
        straggler, so the suffix gets ``rb1 = budget - rate * Nb * t`` --
        answered from the row's gathered engine scalars
        (:meth:`_budget_row`) without a per-combo call:

        * a combo whose whole-solution cost bound (:func:`combo_cost_lb`)
          exceeds ``budget`` is certified: every completion through it
          busts the budget, and the scan and the loop return only
          solutions within ``budget``, so it resolves to nothing without
          a suffix solve.  The bound covers the child's iteration-1
          certificate too: it is at least ``rate * Nb * t`` plus the
          child's cost lower bound;
        * a child whose unconstrained cost fits ``rb1`` takes its engine
          optimum as the suffix (budget dominance).  The combined
          quadruple/value is computed with the exact op order of
          ``_combine`` / ``_value`` (bit-identical floats, same first-min
          tie-break), and a combination within ``budget`` is the loop's
          answer: if its straggler exceeds the assumption, the suffix
          still fits the tightened budget (see :meth:`_solve_suffix`), so
          iteration 2 returns the same suffix;
        * only a genuinely binding suffix budget runs the loop
          (:meth:`_solve_suffix`, whose suffix solves land back here one
          stage down), threaded with the running-incumbent cutoff.

        The B&B bound checks of :meth:`_solve` (including the sorted-combo
        tail cut) guard every combo first.  Only the winning combo ever
        materialises ``StageAssignment`` / ``DPSolution`` objects.
        """
        nb = self.num_microbatches
        nb1 = nb - 1
        is_cost = self.goal is OptimizationGoal.MIN_COST
        is_last = stage_index == len(self.partitions) - 1
        next_stage = stage_index + 1
        stats = self.stats
        table = self._tables[stage_index]
        (cols, t_list, sync_list, rate_list, child_list, sum_list, max_list,
         sync_c_list, rate_c_list, cost_unc_list, feasible_list, lb_list) = \
            self._budget_row(stage_index, row, is_last)

        best: DPSolution | None = None
        best_value = math.inf
        best_idx = -1  # winning *resolved* combo, materialised after the scan
        sum_after = self._sfx_sum[next_stage]
        max_after = self._sfx_max[next_stage]
        rate_after = self._sfx_rate[next_stage]
        num_combos = len(cols)

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
            # Same admissible bounds (and tail cut) as _solve's loop; the
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
                continue  # infeasible suffix: no budget can fit it
            if lb_list[n] > budget:
                # Certificate: every completion through this combo costs
                # more than the budget.  Resolved in-layer.
                stats.suffix_certified += 1
                continue
            rb1 = budget - rate_s * nb * t_s
            if rb1 <= 0:
                continue
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
                value = cost_v if is_cost else time_v
                if value < best_value:
                    best_value = value
                    best_idx = n
                    best = None
                continue

            # Genuinely binding suffix budget: the straggler loop.
            entry = table.entries[cols[n]]
            assignment = entry[2]
            if assignment is None:
                assignment = self._build_assignment(stage_index, entry)
            candidate = self._solve_suffix(stage_index, assignment,
                                           child_list[n], budget, cutoff)
            if candidate is None:
                continue
            value = self._value(candidate)
            if value < best_value:
                best, best_value = candidate, value
                best_idx = -1

        if best is None and best_idx >= 0:
            best = self._combo_solution(
                stage_index, cols[best_idx],
                -1 if is_last else child_list[best_idx])

        exact = best_value < upper_bound or upper_bound == math.inf
        lo = best.projected_cost(nb) if best is not None else -math.inf
        self._budget_store(stage_index, row, lo, budget, best, exact,
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
                      row: int, budget: float,
                      cutoff: float) -> DPSolution | None:
        """Combine one stage assignment with the best budgeted suffix.

        The straggler-approximation loop of section 4.2.3: assume the
        current stage is the straggler, compute the remaining budget, solve
        the suffix (``row`` is its state in the next stage's engine layer),
        and retry with the discovered straggler when the assumption turns
        out wrong.  The batched scan calls it only for a genuinely binding
        iteration 1: the suffix is feasible, the combo's whole-solution
        cost bound (:func:`combo_cost_lb`) does not exceed ``budget``, and
        the suffix's unconstrained cost exceeds the iteration-1 budget.

        Iterations 2+ need no budget certificate.  A combination within
        ``budget`` costs at least ``rate_a * Nb * max_t`` plus its suffix's
        cost, because the combined time is at least ``Nb * max_t`` and at
        least the suffix's time; so the suffix still fits the next
        iteration's budget ``budget - rate_a * Nb * max_t``.  That budget
        can still pick a different suffix from the interval memo, so the
        loop runs on.  When an iteration's memo probe returns the same
        suffix object as the previous iteration, the recombined solution is
        field-identical and the discovered straggler equals the assumed one
        exactly: converged, no recombination needed.
        """
        nb = self.num_microbatches
        child_bound = self._child_bound(cutoff, assignment)
        next_stage = stage_index + 1
        stats = self.stats
        rate_a = assignment.cost_rate_usd_per_s
        combined: DPSolution | None = None
        prev_suffix: DPSolution | None = None
        assumed_straggler = assignment.compute_time_s
        guard = self.search_budget
        for _ in range(MAX_BUDGET_ITERATIONS):
            if guard is not None:
                guard.tick()
            remaining_budget = budget - rate_a * nb * assumed_straggler
            stats.suffix_iterations += 1
            hit = self._budget_lookup(next_stage, row, remaining_budget,
                                      child_bound)
            if hit is not None:
                stats.memo_hits += 1
                suffix = hit[2]
                if suffix is prev_suffix and suffix is not None:
                    return combined
            else:
                suffix = self._solve_budget(next_stage, row,
                                            remaining_budget, child_bound)
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
