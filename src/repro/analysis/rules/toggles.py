"""Rule ``toggle-coverage``: every boolean config toggle is exercised by
the equivalence tests.

The golden plan digests (``tests/golden/``: 12 scenarios x 3 solver
configs, plans byte-identical across the default, engine-forced and
exhaustive configs) and the equivalence suites are what let
value-preserving boolean fields exist at all.  A toggle the tests never
mention is a toggle whose off-path can rot unnoticed -- so every ``bool``
field of ``DPSolverConfig`` / ``PlannerConfig`` must appear somewhere in
``tests/`` (as a keyword argument, attribute, identifier or string --
comments do not count), or carry a justified suppression on its
definition line.  The live tree has no such field left (the solver has
no config class, and ``PlannerConfig`` holds no ``bool``), so the rule
guards against new ones; ``toggle_*`` fixtures keep it exercised.
"""

from __future__ import annotations

from repro.analysis.core import Finding, ProjectIndex, extract_config_fields
from repro.analysis.registry import Rule, register_rule
from repro.analysis.rules.cache_keys import CONFIG_CLASSES, CONFIG_FILES


@register_rule
class ToggleCoverageRule(Rule):
    name = "toggle-coverage"
    description = ("every boolean config field must appear in the tests/ "
                   "equivalence-matrix definitions (or carry a justified "
                   "suppression)")

    def run(self, index: ProjectIndex) -> list[Finding]:
        corpus = index.test_corpus()
        findings: list[Finding] = []
        for source_file in index.by_basename(*CONFIG_FILES):
            for config_field in extract_config_fields(source_file,
                                                      CONFIG_CLASSES):
                if not config_field.is_bool:
                    continue
                if config_field.name in corpus:
                    continue
                findings.append(Finding(
                    rule=self.name, path=config_field.file,
                    line=config_field.line, col=0,
                    message=(f"boolean toggle {config_field.cls_name}."
                             f"{config_field.name} appears nowhere in the "
                             "test suite: add it to the equivalence-matrix "
                             "definitions (plans must be byte-identical "
                             "on/off) or suppress with a justification")))
        return findings
