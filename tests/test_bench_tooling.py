"""Tests for the benchmark tooling: the A/B wall-time judge of
``benchmarks/ab.py`` (``make ab``)."""

import importlib.util
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

METRICS = [
    {"name": "plan_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "events_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location(
        "ab", REPO_ROOT / "benchmarks" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(plan_s=1.0, events=10.0, *, failed=0):
    """One perfbench result line of 10 operations."""
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"plan_p50_s": {"value": plan_s, "unit": "s"},
                        "events_per_s": {"value": events, "unit": "1/s"}}}


def test_compare_gates_on_median_not_mean_or_min(ab):
    """Two slow outlier pairs move the change's mean past the bound but
    not its median; a shifted median fails and names the metric."""
    outliers = [(run(), run(plan_s=5.0 if i < 2 else 1.0)) for i in range(10)]
    lines, failures = ab.judge(outliers, METRICS)
    assert failures == []
    assert any(line.startswith("plan_p50_s") and "won 0/10" in line
               for line in lines)

    slower = [(run(), run(plan_s=1.3)) for _ in range(10)]
    _, failures = ab.judge(slower, METRICS)
    assert len(failures) == 1 and failures[0].startswith("plan_p50_s")
    _, failures = ab.judge([(run(), run(plan_s=1.2)) for _ in range(10)],
                           METRICS)
    assert failures == []


def test_ab_reads_higher_is_better_metrics_upward(ab):
    _, failures = ab.judge([(run(), run(events=20.0))] * 10, METRICS)
    assert failures == []
    _, failures = ab.judge([(run(), run(events=7.0))] * 10, METRICS)
    assert len(failures) == 1 and failures[0].startswith("events_per_s")


def test_ab_fails_incorrect_runs_and_a_larger_failed_share(ab):
    crashed = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
               "error": "exit 1"}
    _, failures = ab.judge([(run(), crashed)] + [(run(), run())] * 9, METRICS)
    assert failures == ["a change run is not correct: exit 1"]

    _, failures = ab.judge([(run(failed=1), run(failed=2))], METRICS)
    assert failures[-1] == ("the change fails 20.00% of operations, "
                            "the parent 10.00%")
    _, failures = ab.judge([(run(failed=2), run(failed=1))], METRICS)
    assert not any(failure.startswith("the change fails")
                   for failure in failures)


def test_ab_counts_a_run_without_a_result_line_as_incorrect(ab, tmp_path):
    crashed = ab.run_once(str(tmp_path), [sys.executable, "-c",
                                          "import sys; sys.exit('boom')"],
                          "budget", 1.0)
    assert crashed["correct"] is False and crashed["error"] == "boom"
    result = ab.run_once(str(tmp_path), [
        sys.executable, "-c",
        "import json; print('log line'); print(json.dumps({'correct': 1}))"],
        "budget", 1.0)
    assert result == {"correct": 1}


def noisy_parent(change_plan_s):
    """Ten pairs whose parent ``plan_p50_s`` alternates 1.0 and 1.5 s: an
    interquartile spread of 40% of the median, wider than the 25% bound."""
    return [(run(plan_s=1.0 if i % 2 else 1.5), run(plan_s=change_plan_s))
            for i in range(10)]


def test_ab_reports_a_noisy_pass_as_unresolved(ab):
    """A change median inside the bound proves nothing when the parent's
    own runs spread wider than it."""
    lines, failures = ab.judge(noisy_parent(1.25), METRICS)
    assert len(failures) == 1
    assert failures[0].startswith("plan_p50_s: unresolved")
    assert any(line.startswith("plan_p50_s") and line.endswith("UNRESOLVED")
               and "iqr 40%" in line for line in lines)


def test_ab_resolves_a_clean_win_over_a_noisy_parent(ab):
    """Every change run beats every parent run: the spread cannot hide it."""
    lines, failures = ab.judge(noisy_parent(0.9), METRICS)
    assert failures == []
    assert any(line.startswith("plan_p50_s") and "won 10/10" in line
               for line in lines)


def test_ab_still_fails_a_noisy_regression_as_worse(ab):
    lines, failures = ab.judge(noisy_parent(2.0), METRICS)
    assert len(failures) == 1 and "is worse than" in failures[0]
    assert any(line.startswith("plan_p50_s") and line.endswith("WORSE")
               for line in lines)
