"""Exhaustive reference for the DP solver and the planner.

Every prune in the production search is value-preserving: the tuple
recursion's branch-and-bound, the engine's batched budget scan with its
straggler/cost certificates, and the planner's tail kill and
dominated-family skip.  This module is what the equivalence suites and
the golden ``exhaustive`` config check them against:

* :class:`ExhaustiveSolver` -- an unpruned, memoised recursion over a
  :class:`~repro.core.dp_solver.DPSolver`'s search space (the solver's own
  root preparation, int tuple states and per-state combo lists).
  Unconstrained nodes scan every combo.  Budgeted nodes run the paper's
  straggler-approximation loop (section 4.2.3) with the two mechanisms
  that belong to the algorithm rather than to pruning -- the
  budget-dominance shortcut and the interval-keyed budget memo (see the
  ``repro.core.dp_solver`` module docstring) -- and no bounds or
  certificates.
* :func:`disarm_prunes` -- switches single planner prunes off with fakes.
* :func:`exhaustive_planning` -- every planner prune off and
  ``DPSolver.solve`` swapped for the oracle.
"""

from __future__ import annotations

import contextlib
import math

import pytest

from repro.core.dp_solver import (
    MAX_BUDGET_ITERATIONS,
    DPSolution,
    DPSolver,
    straggler_converged,
)
from repro.core.planner import SailorPlanner


class ExhaustiveSolver:
    """Unpruned solves over one solver's search space.

    Counts ``nodes_explored``, ``memo_hits`` and ``suffix_iterations`` on
    the solver's stats the way the production recursion does; it never
    prunes a branch or certifies a suffix.
    """

    def __init__(self, solver: DPSolver) -> None:
        self.solver = solver
        self.memo: list[dict] = []
        #: Per stage ``state -> [[lo, hi, solution], ...]``: a solution
        #: found under budget ``hi`` with cost ``lo`` answers every budget
        #: in ``[lo, hi]``.
        self.budget_memo: list[dict] = []

    def budget_memo_entries(self) -> int:
        return sum(len(entries) for per_stage in self.budget_memo
                   for entries in per_stage.values())

    def solve(self, resources, budget_per_iteration: float | None = None,
              ) -> DPSolution | None:
        solver = self.solver
        num_stages = len(solver.partitions)
        self.memo = [{} for _ in range(num_stages)]
        self.budget_memo = [{} for _ in range(num_stages)]
        state = solver._prepare_root(resources)
        if state is None:
            return None
        state = tuple(state.tolist())
        if budget_per_iteration is None:
            return self._solve(0, state)
        return self._solve_budget(0, state, budget_per_iteration)

    def _children(self, stage: int, state: tuple):
        """``(assignment, child state)`` per combo fitting ``state``, in
        ranking order; the child is ``None`` on the last stage."""
        solver = self.solver
        is_last = stage == len(solver.partitions) - 1
        caps = None
        if not is_last and solver._clamp_active[stage + 1]:
            caps = solver._caps_list[stage + 1]
        for entry, footprint in solver._combos_for_state(stage, state):
            if entry[2] is None:
                entry[2] = solver.context.build_stage_assignment(
                    solver.partitions[stage], solver.microbatch_size,
                    solver.data_parallel, entry[0], nodes_used=entry[1],
                    compute_time_s=entry[4])
            if is_last:
                yield entry[2], None
                continue
            child = list(state)
            for slot, used in footprint:
                child[slot] -= used
            if caps is not None:
                child = [min(count, cap) for count, cap in zip(child, caps)]
            yield entry[2], tuple(child)

    @staticmethod
    def _single(assignment) -> DPSolution:
        return DPSolution(
            assignments=[assignment],
            max_stage_time_s=assignment.compute_time_s,
            sum_stage_time_s=assignment.compute_time_s,
            max_sync_time_s=assignment.sync_time_s,
            cost_rate_usd_per_s=assignment.cost_rate_usd_per_s)

    def _solve(self, stage: int, state: tuple) -> DPSolution | None:
        """Unconstrained optimum of stages ``stage..P-1`` from ``state``."""
        solver = self.solver
        memo = self.memo[stage]
        if state in memo:
            solver.stats.memo_hits += 1
            return memo[state]
        solver.stats.nodes_explored += 1
        best = None
        for assignment, child in self._children(stage, state):
            if child is None:
                candidate = self._single(assignment)
            else:
                suffix = self._solve(stage + 1, child)
                if suffix is None:
                    continue
                candidate = solver._combine(assignment, suffix)
            if best is None or solver._value(candidate) < solver._value(best):
                best = candidate
        memo[state] = best
        return best

    def _solve_budget(self, stage: int, state: tuple,
                      budget: float) -> DPSolution | None:
        """Straggler-loop answer for stages ``stage..P-1`` under ``budget``."""
        solver = self.solver
        nb = solver.num_microbatches
        for entry in self.budget_memo[stage].get(state, ()):
            if entry[0] <= budget <= entry[1]:
                solver.stats.memo_hits += 1
                return entry[2]
        solver.stats.nodes_explored += 1
        # Budget dominance: an unconstrained optimum that fits the budget
        # is the budgeted optimum for every budget down to its own cost.
        unconstrained = self._solve(stage, state)
        if unconstrained is None:
            self._store(stage, state, -math.inf, math.inf, None)
            return None
        cost = unconstrained.projected_cost(nb)
        if cost <= budget:
            self._store(stage, state, cost, math.inf, unconstrained)
            return unconstrained
        best = None
        for assignment, child in self._children(stage, state):
            if child is None:
                candidate = self._single(assignment)
                if candidate.projected_cost(nb) > budget:
                    continue
            else:
                candidate = self._straggler_loop(stage, assignment, child,
                                                 budget)
                if candidate is None:
                    continue
            if best is None or solver._value(candidate) < solver._value(best):
                best = candidate
        lo = best.projected_cost(nb) if best is not None else -math.inf
        self._store(stage, state, lo, budget, best)
        return best

    def _straggler_loop(self, stage: int, assignment, remaining: tuple,
                        budget: float) -> DPSolution | None:
        """Section 4.2.3: assume this stage is the straggler, solve the
        suffix under the budget left, retry with the discovered one."""
        solver = self.solver
        nb = solver.num_microbatches
        rate = assignment.cost_rate_usd_per_s
        assumed = assignment.compute_time_s
        combined = None
        for _ in range(MAX_BUDGET_ITERATIONS):
            remaining_budget = budget - rate * nb * assumed
            if remaining_budget <= 0:
                return None
            solver.stats.suffix_iterations += 1
            suffix = self._solve_budget(stage + 1, remaining,
                                        remaining_budget)
            if suffix is None:
                return None
            combined = solver._combine(assignment, suffix)
            if combined.projected_cost(nb) > budget:
                return None
            actual = combined.max_stage_time_s
            if straggler_converged(actual, assumed):
                return combined
            assumed = actual
        return combined

    def _store(self, stage: int, state: tuple, lo: float, hi: float,
               solution: DPSolution | None) -> None:
        """Record an interval entry, widening one that holds the same
        solution from the same cost."""
        entries = self.budget_memo[stage].setdefault(state, [])
        for entry in entries:
            if entry[2] is solution and entry[0] == lo:
                entry[1] = max(entry[1], hi)
                return
        entries.append([lo, hi, solution])


def exhaustive_solve(solver: DPSolver, resources,
                     budget_per_iteration: float | None = None,
                     ) -> DPSolution | None:
    """``DPSolver.solve`` through the oracle (same signature)."""
    return ExhaustiveSolver(solver).solve(resources, budget_per_iteration)


@contextlib.contextmanager
def disarm_prunes(*, tail: bool = False, family: bool = False):
    """Switch single planner prunes off with test-side fakes.

    Plans inside the block never fire the chosen prunes.  ``tail`` zeroes
    the branch's one candidate-floor array, so it also zeroes the family
    floor (no family skip fires) and the anytime gap bound.
    """
    with pytest.MonkeyPatch.context() as mp:
        if tail:  # a zero tail floor never reaches the incumbent
            mp.setattr(SailorPlanner, "_candidate_floor_available",
                       staticmethod(lambda *args: 0.0))
        if family:
            mp.setattr(SailorPlanner, "_family_dominated",
                       staticmethod(lambda *args: False))
        yield


@contextlib.contextmanager
def exhaustive_planning():
    """Plan exhaustively inside the block: every planner prune disarmed
    and every DP solve answered by :class:`ExhaustiveSolver`.

    Plan on a fresh search context: the planner's whole-solve memo does
    not know which solver filled it.
    """
    with disarm_prunes(tail=True, family=True), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(DPSolver, "solve", exhaustive_solve)
        yield
