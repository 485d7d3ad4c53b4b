"""Cooperative search-budget enforcement for anytime planning.

A planning call that must honour a wall-clock deadline (or a deterministic
node budget, for tests) cannot rely on checks *between* candidates alone:
one deep budget suffix solve can blow past any deadline.  This module
provides the cheap cooperative check that the DP hot loops
(:meth:`~repro.core.dp_solver.DPSolver._solve`, ``_solve_budget``,
``_solve_suffix``, ``_solve_budget_batched``) and the :class:`~repro.core.resource_state
.ResourceStateEngine` layer sweeps call once per inner step:

* :class:`SearchBudget` -- a shared countdown over wall-clock time and/or an
  explored-node allowance.  ``tick()`` is a few attribute operations in the
  common case; the clock is only consulted every ``check_interval`` ticks,
  so a budget-carrying solve stays within a bounded number of inner
  iterations of its deadline without measurable overhead.
* :class:`SearchBudgetExhausted` -- the cooperative-cancellation signal.  It
  is *salvageable*: every caller up the stack keeps the incumbent found so
  far instead of discarding it (see
  :meth:`~repro.core.planner.SailorPlanner._plan_branch`), and the
  truncated search reports itself only through the result's ``complete``,
  ``optimality_gap_bound`` and ``incomplete_branches``.
* :class:`SearchClock` -- the wall clock of one planning call: the anytime
  deadline it hands to :class:`SearchBudget` and the ``search_time_s`` it
  reports.  This module is the only place in ``core`` that reads a clock.

When no budget is supplied (``time_limit_s=None`` and no node budget), no
``SearchBudget`` is created and every hot loop pays a single ``is None``
test -- unbounded searches stay byte-identical to the uncancellable ones.
"""

from __future__ import annotations

import time

__all__ = ["SearchBudget", "SearchBudgetExhausted", "SearchClock"]


class SearchBudgetExhausted(RuntimeError):
    """Raised by a cooperative cancellation point when the budget is spent.

    The exception is a *salvage* signal, not an error: catchers keep the
    best incumbent found before the interrupt and report the result as
    incomplete with a certified optimality-gap bound.  ``reason`` is
    ``"deadline"`` (wall clock) or ``"node_budget"`` (deterministic tick
    allowance); ``ticks`` counts cancellation-point visits at raise time.
    """

    def __init__(self, reason: str, ticks: int) -> None:
        super().__init__(f"search budget exhausted ({reason}) "
                         f"after {ticks} ticks")
        self.reason = reason
        self.ticks = ticks


class SearchBudget:
    """Shared deadline / node-budget countdown for one planning call.

    ``tick()`` is designed for hot loops: it increments an integer, compares
    it against the optional node allowance, and only reads the clock every
    ``check_interval`` ticks.  Once tripped the budget stays exhausted --
    every later ``tick()`` re-raises immediately, which lets deeply nested
    solves unwind without re-checking the clock.
    """

    __slots__ = ("deadline", "max_ticks", "check_interval", "ticks",
                 "exhausted_reason", "_next_clock_check")

    def __init__(self, deadline: float | None = None,
                 max_ticks: int | None = None,
                 check_interval: int = 64) -> None:
        if check_interval < 1:
            raise ValueError("check_interval must be positive")
        #: Absolute ``time.perf_counter()`` deadline, or None.
        self.deadline = deadline
        #: Deterministic tick allowance, or None.
        self.max_ticks = max_ticks
        self.check_interval = check_interval
        self.ticks = 0
        self.exhausted_reason: str | None = None
        self._next_clock_check = check_interval

    @classmethod
    def maybe(cls, deadline: float | None = None,
              max_ticks: int | None = None) -> "SearchBudget | None":
        """A budget if any constraint is set, else None (zero-cost path)."""
        if deadline is None and max_ticks is None:
            return None
        return cls(deadline=deadline, max_ticks=max_ticks)

    @property
    def exhausted(self) -> bool:
        """Whether the budget has tripped (sticky)."""
        return self.exhausted_reason is not None

    def _trip(self, reason: str) -> None:
        self.exhausted_reason = reason
        raise SearchBudgetExhausted(reason, self.ticks)

    def tick(self) -> None:
        """Cooperative cancellation point; raises once the budget is spent."""
        if self.exhausted_reason is not None:
            raise SearchBudgetExhausted(self.exhausted_reason, self.ticks)
        ticks = self.ticks + 1
        self.ticks = ticks
        if self.max_ticks is not None and ticks >= self.max_ticks:
            self._trip("node_budget")
        if ticks >= self._next_clock_check:
            self._next_clock_check = ticks + self.check_interval
            if self.deadline is not None \
                    and time.perf_counter() >= self.deadline:
                self._trip("deadline")

    def expired(self) -> bool:
        """Non-raising check (for between-candidate control flow)."""
        if self.exhausted_reason is not None:
            return True
        if self.deadline is not None \
                and time.perf_counter() >= self.deadline:
            self.exhausted_reason = "deadline"
            return True
        if self.max_ticks is not None and self.ticks >= self.max_ticks:
            self.exhausted_reason = "node_budget"
            return True
        return False


class SearchClock:
    """The wall clock of one planning call, started at construction.

    Neither reading branches the search: the deadline reaches it only
    through :class:`SearchBudget`, and the elapsed time is reporting.
    """

    __slots__ = ("start",)

    def __init__(self) -> None:
        self.start = time.perf_counter()

    def deadline(self, time_limit_s: float | None) -> float | None:
        """Absolute deadline ``time_limit_s`` after the start, or None."""
        return None if time_limit_s is None else self.start + time_limit_s

    def elapsed_s(self) -> float:
        """Seconds since the start."""
        return time.perf_counter() - self.start
