"""Framework and meta tests for the invariant linter (``repro.analysis``).

Three layers:

* framework unit tests -- suppression parsing (the mandatory
  justification), suppression scoping through comment blocks, the JSON
  reporter schema round-trip, the exit-code contract (a crashing rule is
  never a clean run);
* per-rule meta tests -- every registered rule must fire on its seeded-bad
  fixture under ``tests/analysis_fixtures/`` and stay silent on the clean
  twin;
* the live-tree gate -- the shipped repository lints clean, inside the
  CI time budget.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.core import Finding, SourceFile, parse_suppressions
from repro.analysis.driver import main, run_lint
from repro.analysis.registry import RULES, Rule, all_rules
from repro.analysis.report import (
    JSON_SCHEMA_VERSION,
    format_json,
    format_text,
    result_from_json,
)
from repro.analysis.rules import cache_keys
from repro.core.hotpath import hot_path

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"

#: rule id -> fixture directory prefix (``<prefix>_bad`` / ``<prefix>_good``).
RULE_FIXTURES = {
    "admissibility": "admissibility",
    "cache-key": "cache_key",
    "determinism": "determinism",
    "hot-loop-alloc": "hot_loop",
    "swallowed-exceptions": "exceptions",
    "toggle-coverage": "toggle",
}


# -- registry ------------------------------------------------------------------


def test_every_registered_rule_has_a_fixture_pair():
    assert set(all_rules()) == set(RULE_FIXTURES)
    for prefix in RULE_FIXTURES.values():
        assert (FIXTURES / f"{prefix}_bad").is_dir()
        assert (FIXTURES / f"{prefix}_good").is_dir()


# -- per-rule meta tests -------------------------------------------------------


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_rule_fires_on_its_seeded_violation(rule):
    result = run_lint(FIXTURES / f"{RULE_FIXTURES[rule]}_bad",
                      rule_names=[rule])
    assert not result.errors
    assert result.exit_code == 1
    assert any(f.rule == rule for f in result.findings), (
        f"rule {rule} missed its seeded violation; findings: "
        f"{[f.to_dict() for f in result.findings]}")


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_rule_is_silent_on_the_clean_twin(rule):
    result = run_lint(FIXTURES / f"{RULE_FIXTURES[rule]}_good",
                      rule_names=[rule])
    assert not result.errors
    assert result.findings == [], [f.to_dict() for f in result.findings]
    assert result.exit_code == 0


def test_cache_key_rule_separates_dead_from_unkeyed_fields():
    result = run_lint(FIXTURES / "cache_key_bad", rule_names=["cache-key"])
    messages = [f.message for f in result.findings]
    assert any("dead config field" in m for m in messages)
    assert any("folded into no cache key" in m for m in messages)
    # The properly-keyed field must not be flagged.
    assert not any("max_states" in m for m in messages)


def test_cache_key_rule_reads_the_solve_memo_key(monkeypatch):
    """``context.solution(key, build)`` is a key site: a config field only
    the solve reads is flagged on the bad tree, and the good tree's field
    is keyed *solely* through that call (unrecognised, it would fire)."""
    bad = run_lint(FIXTURES / "cache_key_bad", rule_names=["cache-key"])
    assert any("PlannerConfig.solve_depth" in f.message
               for f in bad.findings)
    good = run_lint(FIXTURES / "cache_key_good", rule_names=["cache-key"])
    assert good.findings == []
    monkeypatch.setattr(cache_keys, "KEY_CACHE_METHODS",
                        cache_keys.KEY_CACHE_METHODS - {"solution"})
    blind = run_lint(FIXTURES / "cache_key_good", rule_names=["cache-key"])
    assert [f.message for f in blind.findings if "solve_depth" in f.message]


_ASTUPLE_SOLVER = """
from dataclasses import dataclass


@dataclass
class DPSolverConfig:
    #: Read by the solve only; keyed solely through the planner's astuple.
    limit: int = 16


class DPSolver:
    def __init__(self, config):
        self.config = config

    def solve(self, root):
        return root[:self.config.limit]
"""

_ASTUPLE_PLANNER = """
from dataclasses import astuple, dataclass, field


@dataclass
class PlannerConfig:
    # lint: disable=cache-key -- composite; leaf fields linted on their own
    dp_config: DPSolverConfig = field(default_factory=DPSolverConfig)


class SailorPlanner:
    def __init__(self, config):
        self.config = config

    def plan(self, context, pool, budgeted):
        memo_config = (astuple(self.config.dp_config)
                       if not budgeted else None)
        return self._plan_branch(context, pool, memo_config=memo_config)

    def _plan_branch(self, context, pool, memo_config=None):
        key = (pool, {memo})
        return context.solution(key, lambda: pool)
"""


@pytest.mark.parametrize("memo", ["memo_config", "None"])
def test_cache_key_rule_follows_astuple_of_a_composite_config(tmp_path,
                                                              memo):
    """``astuple(self.config.dp_config)`` folds every leaf field of the
    composite into the key it reaches -- here through a conditional local
    alias and a call-site keyword, the shape the planner's solve memo
    uses.  Drop it from the key and the leaf field is flagged."""
    core = tmp_path / "src" / "repro" / "core"
    core.mkdir(parents=True)
    (core / "dp_solver.py").write_text(_ASTUPLE_SOLVER)
    (core / "planner.py").write_text(_ASTUPLE_PLANNER.format(memo=memo))
    result = run_lint(tmp_path, rule_names=["cache-key"])
    flagged = [f for f in result.findings
               if "DPSolverConfig.limit" in f.message]
    assert bool(flagged) == (memo == "None")


def test_determinism_rule_catches_every_seeded_category():
    result = run_lint(FIXTURES / "determinism_bad",
                      rule_names=["determinism"])
    messages = " | ".join(f.message for f in result.findings)
    assert "time.time" in messages
    assert "time.perf_counter" in messages
    assert "random" in messages
    assert "hash-order" in messages or "hash-iteration" in messages


_CLOCKED_SHRINK = """
import time


def shrink(plan):
    start = time.perf_counter()
    return plan, time.perf_counter() - start
"""


@pytest.mark.parametrize("package,flagged", [
    ("runtime", True), ("baselines", True), ("experiments", True),
    ("hardware", False)])
def test_determinism_rule_covers_the_replay_runtime(tmp_path, package,
                                                    flagged):
    """A replay is a pure function of its trace, and a baseline search or
    an experiment table of its inputs, so a clock read in a ``runtime/``,
    ``baselines/`` or ``experiments/`` module is flagged like one in
    ``core/``; packages outside those paths are not linted by this
    rule."""
    module = tmp_path / "src" / "repro" / package / "controller.py"
    module.parent.mkdir(parents=True)
    module.write_text(_CLOCKED_SHRINK)
    result = run_lint(tmp_path, rule_names=["determinism"])
    clock_reads = [f for f in result.findings
                   if "time.perf_counter" in f.message]
    assert len(clock_reads) == (2 if flagged else 0)


def test_clean_twins_keep_their_justified_suppressions():
    """The good fixtures exercise the waiver path: findings exist but are
    suppressed, and a suppressed finding never reaches the report."""
    result = run_lint(FIXTURES / "determinism_good",
                      rule_names=["determinism"])
    assert result.findings == []
    assert any(f.rule == "determinism" for f in result.suppressed)


def test_bad_suppression_is_a_finding_and_suppresses_nothing():
    result = run_lint(FIXTURES / "suppression_bad",
                      rule_names=["swallowed-exceptions"])
    rules_fired = {f.rule for f in result.findings}
    assert rules_fired == {"bad-suppression", "swallowed-exceptions"}
    assert result.exit_code == 1


# -- suppression parsing -------------------------------------------------------


def test_parse_suppressions_inline_and_multi_rule():
    by_line, file_scope, malformed = parse_suppressions(
        "x = 1  # lint: disable=rule-a,rule-b -- both are fine here\n",
        "mod.py")
    assert malformed == [] and file_scope == []
    (suppression,) = by_line[1]
    assert suppression.rules == ("rule-a", "rule-b")
    assert suppression.justification == "both are fine here"
    assert suppression.matches("rule-a") and suppression.matches("rule-b")
    assert not suppression.matches("rule-c")


def test_parse_suppressions_file_scope_and_all():
    _, file_scope, malformed = parse_suppressions(
        "# lint: disable-file=all -- generated file\n", "mod.py")
    assert malformed == []
    (suppression,) = file_scope
    assert suppression.file_scope and suppression.matches("anything")


def test_justification_is_mandatory():
    by_line, _, malformed = parse_suppressions(
        "x = 1  # lint: disable=rule-a\n", "mod.py")
    assert by_line == {}
    (finding,) = malformed
    assert finding.rule == "bad-suppression"
    assert "justification" in finding.message


def test_suppression_reaches_through_a_comment_block(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "# lint: disable=mock-rule -- the justification starts here\n"
        "# and continues over a second comment line\n"
        "value = 1\n")
    source_file = SourceFile.load(path, tmp_path)
    hit = Finding(rule="mock-rule", path="mod.py", line=3, col=0, message="m")
    assert source_file.is_suppressed(hit) is not None
    miss = Finding(rule="other-rule", path="mod.py", line=3, col=0,
                   message="m")
    assert source_file.is_suppressed(miss) is None


def test_suppression_covers_anchor_lines(tmp_path):
    """Whole-function rules anchor findings to the def line: a justified
    comment above the def covers a finding deep inside the body."""
    path = tmp_path / "mod.py"
    path.write_text(
        "# lint: disable=mock-rule -- whole function is waived\n"
        "def f():\n"
        "    return 1\n")
    source_file = SourceFile.load(path, tmp_path)
    finding = Finding(rule="mock-rule", path="mod.py", line=3, col=4,
                      message="m", anchor_lines=(2,))
    assert source_file.is_suppressed(finding) is not None


# -- reporters -----------------------------------------------------------------


def test_json_report_schema_round_trips():
    result = run_lint(FIXTURES / "cache_key_bad", rule_names=["cache-key"])
    findings, payload = result_from_json(format_json(result))
    assert payload["version"] == JSON_SCHEMA_VERSION
    assert payload["clean"] is False
    assert [f.to_dict() for f in findings] == \
        [f.to_dict() for f in result.findings]
    assert payload["rules"]["cache-key"]["findings"] == len(result.findings)
    assert payload["rules"]["cache-key"]["time_s"] >= 0.0


def test_json_report_rejects_unknown_versions():
    result = run_lint(FIXTURES / "cache_key_good", rule_names=["cache-key"])
    payload = json.loads(format_json(result))
    payload["version"] = 999
    with pytest.raises(ValueError, match="version"):
        result_from_json(json.dumps(payload))


def test_text_report_carries_locations_and_timings():
    result = run_lint(FIXTURES / "cache_key_bad", rule_names=["cache-key"])
    text = format_text(result)
    assert "dp_solver.py" in text
    assert "[cache-key]" in text
    assert "finding(s)" in text and "ms" in text


# -- exit-code contract --------------------------------------------------------


def test_unknown_rule_is_a_usage_error():
    result = run_lint(FIXTURES / "cache_key_good",
                      rule_names=["no-such-rule"])
    assert result.exit_code == 2
    assert result.errors and "no-such-rule" in result.errors[0]


def test_crashing_rule_never_passes_as_clean(monkeypatch):
    class BoomRule(Rule):
        name = "boom"
        description = "always crashes"

        def run(self, index):
            raise RuntimeError("kaboom")

    monkeypatch.setitem(RULES, "boom", BoomRule)
    result = run_lint(FIXTURES / "cache_key_good", rule_names=["boom"])
    assert result.exit_code == 2
    assert any("boom" in error for error in result.errors)


def test_main_cli_contract(capsys):
    assert main(["--list-rules"]) == 0
    assert "determinism" in capsys.readouterr().out
    assert main(["--root", str(FIXTURES / "does-not-exist")]) == 2
    capsys.readouterr()
    assert main(["--root", str(FIXTURES / "cache_key_bad"),
                 "--rules", "cache-key", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False


# -- the hot_path marker -------------------------------------------------------


def test_hot_path_marker_is_zero_cost_identity():
    def kernel():
        return 42

    marked = hot_path(kernel)
    assert marked is kernel
    assert kernel.__hot_path__ is True
    assert kernel() == 42


def test_production_kernels_are_marked_hot():
    from repro.core.dp_solver import DPSolver
    from repro.core.resource_state import ResourceStateEngine, \
        compute_forward_layers

    assert getattr(compute_forward_layers, "__hot_path__", False)
    assert getattr(ResourceStateEngine.run_backward, "__hot_path__", False)
    assert getattr(ResourceStateEngine._solve_layer, "__hot_path__", False)
    assert getattr(ResourceStateEngine._combine, "__hot_path__", False)
    assert getattr(DPSolver._solve_budget_batched, "__hot_path__", False)


# -- the live-tree gate --------------------------------------------------------


def test_live_tree_is_lint_clean():
    """The shipped repository passes its own lint, inside the CI budget."""
    result = run_lint(REPO_ROOT)
    assert not result.errors, result.errors
    assert result.findings == [], "\n".join(
        f"{f.location()}: [{f.rule}] {f.message}" for f in result.findings)
    assert result.exit_code == 0
    assert result.total_time_s < 10.0
    # Every live waiver carries its justification (parse-enforced), and the
    # suppression inventory stays intentional: waivers exist.
    assert result.suppressed, "expected justified suppressions in the tree"
