"""Quality-vs-deadline curves for the anytime planner, plus a salvage smoke.

The anytime search (cooperative cancellation + certified optimality gaps)
turns the planner's deadline from a blunt between-branches check into a
contract: every call returns its best incumbent with an admissible bound on
what the truncated search might still have found.  These tests check that
contract two ways:

* **wall-clock deadlines** (10/50/200 ms on 128-1024-GPU mixed pools, each
  curve printed): whether a deadline truncates the search depends on the
  machine's speed, so these assert only the contract -- a feasible
  incumbent, a finite gap, and gap 0 with no cut branch when complete;
* **tick budgets** (``PlannerConfig(max_search_nodes=...)``): truncation
  itself is asserted without a clock, so it holds on any machine.
"""

from __future__ import annotations

import math

import pytest

from conftest import full_scale_only, pinned, plan_work

from repro.core.objectives import Objective
from repro.core.planner import PlannerConfig, SailorPlanner
from repro.core.simulator import build_environment
from repro.hardware.topology import ClusterTopology
from repro.models.catalog import get_model
from repro.models.spec import TrainingJobSpec

DEADLINES_MS = (10.0, 50.0, 200.0)


@pytest.fixture(scope="module")
def job():
    return TrainingJobSpec(model=get_model("OPT-350M"), global_batch_size=512)


def plan_limited(env, job, topology, **limits):
    planner = SailorPlanner(env, config=PlannerConfig(**limits))
    return planner.plan(job, topology, Objective.max_throughput())


def mixed_pool(job, nodes_per_type: int):
    """``nodes_per_type`` A100 and V100 4-GPU nodes in one zone, with its
    environment."""
    topology = ClusterTopology.single_zone("us-central1-a", {
        "a2-highgpu-4g": nodes_per_type,
        "n1-standard-v100-4": nodes_per_type})
    return topology, build_environment(job, topology)


def assert_anytime(result):
    """The anytime contract: a feasible incumbent and a finite certified
    gap, exact (0, nothing cut) when the search completed."""
    assert result.found
    assert math.isfinite(result.optimality_gap_bound)
    assert result.optimality_gap_bound >= 0.0
    if result.complete:
        assert result.optimality_gap_bound == 0.0
        assert not result.incomplete_branches
    else:
        assert result.incomplete_branches


def deadline_curve(job, topology, env):
    """Plan at every deadline of ``DEADLINES_MS``, print the curve and
    check the anytime contract at each point."""
    print()
    for ms in DEADLINES_MS:
        result = plan_limited(env, job, topology, time_limit_s=ms / 1e3)
        print(f"deadline {ms:5.0f} ms: found={result.found} "
              f"complete={result.complete} "
              f"gap={result.optimality_gap_bound:.4f} "
              f"cut_branches={len(result.incomplete_branches)} "
              f"search={result.search_time_s * 1e3:.1f} ms")
        assert_anytime(result)


def test_bench_planner_deadline_curve_128_gpus(job):
    """Certified-gap curve on 64 A100 + 64 V100 (Figure 8 mid point).

    The full search takes 552 cooperative ticks (an engine layer is one
    tick, so far fewer than its 15,711 nodes): a 553-tick budget completes
    it with the unlimited search's plan and work, a 552-tick one cuts it,
    and a 300-tick one salvages the same plan from about half the work."""
    topology, env = mixed_pool(job, nodes_per_type=16)
    deadline_curve(job, topology, env)
    cut_at = {ticks: plan_limited(build_environment(job, topology), job,
                                  topology, max_search_nodes=ticks)
              for ticks in (553, 552, 300)}
    assert cut_at[553].complete
    assert plan_work(cut_at[553]) == pinned(
        "5d01727e10d7", 15_711, 135_177, 130, 29, 0, 0, 42)
    assert not cut_at[552].complete
    cut = cut_at[300]
    assert not cut.complete
    assert_anytime(cut)
    assert plan_work(cut)["digest"] == "5d01727e10d7"
    assert cut.search_stats.nodes_explored == 7_283
    assert cut.candidates_evaluated == 30


def test_bench_planner_deadline_curve_512_gpus(job):
    """Certified-gap curve on 256 A100 + 256 V100 (Figure 8 max point)."""
    deadline_curve(job, *mixed_pool(job, nodes_per_type=64))


@full_scale_only
def test_bench_planner_deadline_curve_1024_gpus(job):
    """Certified-gap curve at the 1024-GPU scale point: the deadline must
    hold even when a *single* engine pass outweighs the whole budget, i.e.
    the in-loop cooperative cancellation (not just the between-candidate
    check) is what keeps the wall time bounded here."""
    deadline_curve(job, *mixed_pool(job, nodes_per_type=128))


def test_bench_planner_deadline_smoke_64_nodes(job):
    """Salvage smoke on 64 nodes x 4 GPUs (256 GPUs): a 50 ms deadline
    keeps the anytime contract, and a 100-tick budget (a small fraction of
    the full search) must return a feasible plan with a finite, nonzero
    certified gap.  A disarmed salvage path (no incumbent, or an infinite
    zero-information bound) fails here rather than just planning slow."""
    topology, env = mixed_pool(job, nodes_per_type=32)
    assert_anytime(plan_limited(env, job, topology, time_limit_s=0.050))
    cut = plan_limited(build_environment(job, topology), job, topology,
                       max_search_nodes=100)
    assert not cut.complete
    assert_anytime(cut)
    assert cut.optimality_gap_bound > 0.0
