"""Shared helpers for the benchmark suite.

Every paper table/figure has one test that regenerates it via its
experiment harness and prints the resulting rows, so ``pytest benchmarks/
-s`` doubles as the reproduction run.  Experiments are executed once per
test (they are minutes-long at paper scale, so the tests default to the
scaled-down configurations described in ``repro.experiments.common``).

The planner and churn points pin their work exactly (``plan_work``): the
counters are deterministic, so they fail on any machine when a prune, a
certificate or a cache stops firing.  Wall time is judged separately, by
alternating A/B pairs of the perfbench workloads (``benchmarks/ab.py``).
"""

from __future__ import annotations

import hashlib
import importlib
import os

import pytest

from repro.core.serialization import plan_to_json


#: Scale used by the benchmark suite.  Override with
#: ``REPRO_BENCH_SCALE=paper pytest benchmarks/`` to run the full
#: paper-sized sweeps.
BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "tiny")

#: The 1024-8192-GPU planner points run only under ``BENCH_SCALE=full``.
full_scale_only = pytest.mark.skipif(
    os.environ.get("BENCH_SCALE", "smoke") != "full",
    reason="1024-8192-GPU points run only under BENCH_SCALE=full")

#: ``plan_work`` fields, in the order the pinned tuples list them.
WORK_FIELDS = ("digest", "nodes_explored", "memo_hits",
               "candidates_killed_unevaluated", "families_skipped",
               "suffix_iterations", "suffix_certified",
               "candidates_evaluated")


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """Experiment scale the benchmarks run at."""
    return BENCH_SCALE


def run_experiment(experiment_name: str, scale: str, **kwargs):
    """Run one experiment harness once and print its table."""
    module = importlib.import_module(f"repro.experiments.{experiment_name}")
    table = module.run(scale, **kwargs)
    print()
    print(table.to_text())
    return table


def plan_work(result) -> dict:
    """A planner result's plan digest (``sha256`` of ``plan_to_json``, 12
    hex digits) and exact search work, keyed by ``WORK_FIELDS``."""
    stats = result.search_stats
    return dict(zip(WORK_FIELDS, (
        hashlib.sha256(plan_to_json(result.plan).encode()).hexdigest()[:12],
        stats.nodes_explored, stats.memo_hits,
        stats.candidates_killed_unevaluated, stats.families_skipped,
        stats.suffix_iterations, stats.suffix_certified,
        result.candidates_evaluated)))


def pinned(*values) -> dict:
    """``WORK_FIELDS`` -> ``values``: the expected side of ``plan_work``."""
    return dict(zip(WORK_FIELDS, values, strict=True))
