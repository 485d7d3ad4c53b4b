"""Rule ``determinism``: no wall-clock, unseeded RNG or set-order reads
in plan-affecting modules.

The planner's headline contract is byte-identical plans: same inputs,
same plan, across every toggle, across warm/cold contexts, across replay.
A replay is held to the same contract: same trace, same report, and so
are the baseline planners and the experiment tables built from them:
same inputs, same rows (apart from measured search times).  Anything
that injects wall-clock time, unseeded randomness or hash-order
iteration into the search spine, the replay loop, a baseline search or
an experiment harness can silently break that.  This rule forbids, in
every ``core/``, ``runtime/``, ``baselines/`` and ``experiments/``
module except the sanctioned ``core/budget.py`` (the *one* place
wall-clock deadlines are supposed to enter the search):

* wall-clock reads: ``time.time`` / ``perf_counter`` / ``monotonic`` /
  ``*_ns`` variants, ``datetime.now`` / ``utcnow`` / ``today`` -- whether
  module-qualified or imported bare;
* unseeded randomness: any ``random.*`` call, and ``np.random.*`` except
  explicitly seeded constructions (``default_rng`` / ``Generator`` /
  ``SeedSequence`` *with at least one argument*);
* set-order iteration: a ``set`` literal, set comprehension or
  ``set()`` / ``frozenset()`` call used directly as the iterable of a
  ``for`` / comprehension or as the argument of ``list`` / ``tuple`` /
  ``enumerate`` / ``iter`` / ``reversed`` / ``"".join`` -- iteration
  order is hash-order; wrap in ``sorted(...)``.  (Sets flowing through
  variables are not tracked; the convention is to sort at the point of
  construction, which is what the spine does.)

Any other clock read goes through ``core/budget.py`` (the planner's
and every baseline's ``search_time_s``, and the planner's anytime
deadline, come from its ``SearchClock``; the controller only reports
that measured time, it never charges or judges it, and a baseline search
is bounded by counts alone);
a sanctioned exception elsewhere is written as a justified line
suppression.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, ProjectIndex, SourceFile, attribute_chain
from repro.analysis.registry import Rule, register_rule

_CLOCK_MODULES = {
    ("time", "time"), ("time", "time_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
}
_CLOCK_BARE = {"perf_counter", "perf_counter_ns", "monotonic",
               "monotonic_ns", "time_ns"}
_SEEDED_NP_RANDOM = {"default_rng", "Generator", "SeedSequence"}
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "iter", "reversed",
                          "join"}
_SCOPED_PACKAGES = {"core", "runtime", "baselines", "experiments"}
_SANCTIONED_MODULE = ("core", "budget.py")


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in {"set", "frozenset"})


@register_rule
class DeterminismRule(Rule):
    name = "determinism"
    description = ("plan-affecting modules must not read wall clocks, "
                   "unseeded RNGs or set iteration order "
                   "in core/, runtime/, baselines/ and experiments/ "
                   "(core/budget.py is the sanctioned clock site)")

    def run(self, index: ProjectIndex) -> list[Finding]:
        findings: list[Finding] = []
        for source_file in index.src_files:
            if _SCOPED_PACKAGES.isdisjoint(source_file.path.parts):
                continue
            if source_file.path.parts[-2:] == _SANCTIONED_MODULE:
                continue
            findings.extend(self._check_file(source_file))
        return findings

    def _check_file(self, source_file: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        anchor = 0  # first line of the enclosing statement

        def flag(node: ast.AST, message: str) -> None:
            # Anchor to the statement start too, so one suppression above a
            # multi-line statement covers reads on its continuation lines.
            anchors = (anchor,) if anchor and anchor != node.lineno else ()
            findings.append(Finding(
                rule=self.name, path=source_file.rel, line=node.lineno,
                col=node.col_offset, message=message, anchor_lines=anchors))

        def check_expr(node: ast.AST) -> None:
            if isinstance(node, ast.Call):
                findings_before = len(findings)
                self._check_call(node, flag)
                if len(findings) > findings_before:
                    return
                # Order-sensitive consumption of a raw set.
                name = (node.func.attr if isinstance(node.func, ast.Attribute)
                        else node.func.id if isinstance(node.func, ast.Name)
                        else None)
                if (name in _ORDER_SENSITIVE_CALLS and node.args
                        and _is_set_expr(node.args[0])):
                    flag(node, f"{name}() over a raw set consumes "
                               "hash-iteration order; wrap the set in "
                               "sorted(...)")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    if _is_set_expr(generator.iter):
                        flag(generator.iter,
                             "comprehension over a raw set is "
                             "hash-order-dependent; wrap it in sorted(...)")

        for stmt in ast.walk(source_file.tree):
            if not isinstance(stmt, ast.stmt):
                continue
            anchor = stmt.lineno
            if (isinstance(stmt, (ast.For, ast.AsyncFor))
                    and _is_set_expr(stmt.iter)):
                flag(stmt, "iterating a raw set is hash-order-dependent; "
                           "wrap it in sorted(...)")
            # Walk only this statement's own expressions: nested statements
            # (and except handlers, which hold statements) get their own
            # anchor when the outer ast.walk reaches them.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, (ast.stmt, ast.excepthandler)):
                    continue
                for node in ast.walk(child):
                    check_expr(node)
        return findings

    def _check_call(self, node: ast.Call, flag) -> None:
        chain = attribute_chain(node.func)
        if chain is None:
            if (isinstance(node.func, ast.Name)
                    and node.func.id in _CLOCK_BARE):
                flag(node, f"wall-clock read {node.func.id}() in a "
                           "plan-affecting module; clocks may only enter "
                           "the search through core/budget.py SearchBudget")
            return
        if len(chain) >= 2:
            pair = (chain[-2], chain[-1])
            if pair in _CLOCK_MODULES:
                flag(node, f"wall-clock read {'.'.join(chain)}() in a "
                           "plan-affecting module; clocks may only enter "
                           "the search through core/budget.py SearchBudget")
                return
        if chain[0] == "random":
            flag(node, f"unseeded stdlib randomness {'.'.join(chain)}() "
                       "in a plan-affecting module")
            return
        if "random" in chain[:-1] and chain[0] in {"np", "numpy"}:
            terminal = chain[-1]
            if terminal not in _SEEDED_NP_RANDOM:
                flag(node, f"np.random.{terminal}() draws from global "
                           "(unseeded) state in a plan-affecting module; "
                           "construct a seeded default_rng instead")
            elif not node.args and not node.keywords:
                flag(node, f"np.random.{terminal}() without an explicit "
                           "seed is entropy-seeded; pass a seed")
