"""Span recording around the public entry points of each ``repro`` layer.

The traced run (``run.py --trace 1``) installs wrappers from the
benchmark's own files: nothing under ``src/`` is edited.  Each wrapper
records one span -- name, start, end and the index of the span that was
open when it started (its parent) -- into an in-memory list.  The list is
written out once, when the run ends.

A span's *self time* is its duration minus the part of its interval that
its direct children cover.  Per-layer metrics sum self time and calls per
span name.

Where a layer binds a function by name at import (``dp_solver`` imports
``compute_forward_layers`` and ``compute_budget_bounds`` from
``resource_state``), the wrapper replaces the name the caller looks up.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass, field

#: (span name, module, owner attribute or None for a module function,
#: function attribute).  The owner is a class for methods.
LAYER_ENTRY_POINTS = (
    ("resource_state.forward", "repro.core.dp_solver", None,
     "compute_forward_layers"),
    ("resource_state.backward", "repro.core.resource_state",
     "ResourceStateEngine", "run_backward"),
    ("resource_state.budget_bounds", "repro.core.dp_solver", None,
     "compute_budget_bounds"),
    ("dp_solver", "repro.core.dp_solver", "DPSolver", "solve"),
    ("planner", "repro.core.planner", "SailorPlanner", "plan"),
    ("simulator.evaluate", "repro.core.simulator.evaluator",
     "SailorSimulator", "evaluate"),
    ("simulator.floor", "repro.core.simulator.evaluator",
     "SailorSimulator", "iteration_time_floor"),
    ("simulator.floor", "repro.core.simulator.evaluator",
     "SailorSimulator", "cost_floor"),
    ("simulator.oom", "repro.core.simulator.evaluator",
     "SailorSimulator", "oom_stages"),
    ("serialization", "repro.core.serialization", None, "result_to_json"),
    ("controller", "repro.runtime.controller", "TrainingController",
     "handle_availability_change"),
    ("controller", "repro.runtime.controller", "TrainingController",
     "maybe_retry"),
    ("replay", "repro.runtime.replay", "ChurnReplayer", "run"),
)


@dataclass
class Tracer:
    """In-memory span recorder; one per traced process."""

    clock: object = time.perf_counter
    #: Spans are recorded only while True (the benchmark's own output
    #: checks run with it off).
    enabled: bool = True
    #: ``[name, start, end, parent]`` per span; ``parent`` is an index into
    #: this list or -1 for a root span.
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def wrap(self, name: str, func):
        """``func`` with one span recorded around every call."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around a ``with`` block."""
        if not self.enabled:
            yield
            return
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append([name, self.clock(), None, stack[-1] if stack else -1])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            spans[index][2] = self.clock()

    @contextlib.contextmanager
    def paused(self):
        """Record no spans inside a ``with`` block."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def install(self, entry_points=LAYER_ENTRY_POINTS) -> None:
        """Replace each entry point with its traced wrapper."""
        for name, module_name, owner_name, attr in entry_points:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module,
                                                              owner_name)
            self.patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until :meth:`uninstall` restores it."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every attribute :meth:`patch` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write every span as JSON (called once, when the run ends)."""
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, handle)


def self_times(spans: list) -> list[float]:
    """Self time of each span: duration minus its children's coverage.

    Children of one span never overlap in a single-threaded run, but the
    covered length is computed as the union of their intervals (clipped
    to the parent) so a misnested recording cannot drive self time below
    zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def layer_totals(spans: list) -> dict[str, dict[str, float]]:
    """Calls, self seconds and inclusive seconds per span name.

    Inclusive time counts only outermost spans of a name, so a recursive
    entry point is not counted twice.
    """
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0,
                                         "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["total_s"] += end - start
    return totals


def split_by_root(spans: list) -> dict[str, dict[str, float]]:
    """Self seconds per span name under each root span's name.

    A root is a span with no parent (a planning request or a replay), so
    this splits one workload's time by layer per kind of request.
    """
    roots: list[int] = []
    for index, (_, _, _, parent) in enumerate(spans):
        roots.append(index if parent < 0 else roots[parent])
    split: dict[str, dict[str, float]] = {}
    for index, own in enumerate(self_times(spans)):
        layers = split.setdefault(spans[roots[index]][0], {})
        name = spans[index][0]
        layers[name] = layers.get(name, 0.0) + own
    return split
