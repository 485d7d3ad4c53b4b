"""Rule ``swallowed-exceptions``: the planner and the controller may not
eat what they must surface.

Two modules own the planner's failure semantics: the planner
(``core/planner.py`` -- ``_plan_branch`` turns a ``SearchBudgetExhausted``
into a counted, priced branch cut) and the replanning controller
(``runtime/controller.py`` -- every degradation is a recorded decision,
never a silent ``pass``).  ``SearchBudgetExhausted`` is load-bearing: it
carries the anytime truncation signal, so a handler that swallows it
without bookkeeping silently converts "deadline hit" into "search
finished".  In those modules this rule flags:

* bare ``except:`` clauses (they also swallow ``KeyboardInterrupt``);
* ``except Exception`` / ``except BaseException`` /
  ``except SearchBudgetExhausted`` handlers whose body is *only*
  ``pass`` / ``continue`` / ``...`` -- a silent swallow.  Handlers that
  do bookkeeping (count the interrupt, record the salvage, re-raise)
  pass; genuinely-benign swallows carry a justified suppression.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, ProjectIndex, attribute_chain
from repro.analysis.registry import Rule, register_rule

TARGET_BASENAMES = ("planner.py", "controller.py")
_BROAD_TYPES = {"Exception", "BaseException", "SearchBudgetExhausted"}


def _handler_types(handler: ast.ExceptHandler) -> list[str]:
    node = handler.type
    if node is None:
        return []
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    names: list[str] = []
    for elt in elts:
        chain = attribute_chain(elt)
        if chain:
            names.append(chain[-1])
    return names


def _is_silent(body: list[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
            continue
        if (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)):
            continue  # docstring / ellipsis
        return False
    return True


@register_rule
class SwallowedExceptionsRule(Rule):
    name = "swallowed-exceptions"
    description = ("no bare except, and no silently-swallowed broad or "
                   "SearchBudgetExhausted handlers, in the planner and the "
                   "replanning controller")

    def run(self, index: ProjectIndex) -> list[Finding]:
        findings: list[Finding] = []
        for source_file in index.by_basename(*TARGET_BASENAMES):
            for node in ast.walk(source_file.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if node.type is None:
                    findings.append(Finding(
                        rule=self.name, path=source_file.rel,
                        line=node.lineno, col=node.col_offset,
                        message="bare 'except:' swallows everything "
                                "including KeyboardInterrupt; name the "
                                "exception types"))
                    continue
                caught = set(_handler_types(node)) & _BROAD_TYPES
                if caught and _is_silent(node.body):
                    names = ", ".join(sorted(caught))
                    findings.append(Finding(
                        rule=self.name, path=source_file.rel,
                        line=node.lineno, col=node.col_offset,
                        message=(f"handler for {names} silently swallows "
                                 "the exception (body is only "
                                 "pass/continue); record the event, "
                                 "re-raise, or justify with a "
                                 "suppression")))
        return findings
