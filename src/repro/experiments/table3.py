"""Table 3: Sailor search-time breakdown.

GPT-Neo-2.7B on one zone with 128 A100 and 128 V100.  The paper compares:

* dynamic programming alone (no pruning heuristics) -- hours;
* dynamic programming + heuristics H1-H3 -- a few seconds;
* the same search with an additional 1.5 USD/iteration budget constraint --
  a few times slower than without, because of the straggler-approximation
  iterations in the budget-constrained DP.

Running the heuristic-free configuration to completion is infeasible at
paper scale, so it is executed under a wall-clock cap; ``hit_time_cap`` is
True exactly when that search returned incomplete (``complete=False``), and
its time is then a lower bound, which is how one would document an "hours"
entry.
"""

from __future__ import annotations

from repro.core.heuristics import HeuristicConfig
from repro.core.objectives import Objective
from repro.core.planner import PlannerConfig, SailorPlanner
from repro.experiments.common import (
    ExperimentTable,
    gpt_neo_job,
    make_environment,
    mixed_a100_v100_topology,
    a100_topology,
    resolve_scale,
)


def _planner(env, heuristics_on: bool,
             time_limit_s: float | None = None) -> SailorPlanner:
    heuristics = HeuristicConfig()
    if not heuristics_on:
        heuristics.prune_oom_early = False
        heuristics.ordered_data_parallel = False
        heuristics.extra_tp_candidates = True
    config = PlannerConfig(heuristics=heuristics, time_limit_s=time_limit_s)
    return SailorPlanner(env, config=config)


def run(scale: str | object = "small", gpus_per_type: int = 128,
        budget_usd: float = 1.5,
        no_heuristics_cap_s: float = 60.0) -> ExperimentTable:
    """Reproduce Table 3 (search-time breakdown of the Sailor planner)."""
    scale = resolve_scale(scale)
    gpus = scale.scaled_gpus(gpus_per_type, minimum=16)
    job = gpt_neo_job()
    if scale.name != "paper":
        no_heuristics_cap_s = min(no_heuristics_cap_s, 15.0)

    table = ExperimentTable(
        title="Table 3: Sailor planner search-time breakdown (GPT-Neo-2.7B)",
        columns=["gpu_types", "configuration", "search_time_s", "hit_time_cap",
                 "found"])

    setups = {
        1: a100_topology(gpus),
        2: mixed_a100_v100_topology(gpus, gpus),
    }
    for num_types, topology in setups.items():
        env = make_environment(job, topology)

        # Dynamic programming without the pruning heuristics (capped).
        planner = _planner(env, heuristics_on=False,
                           time_limit_s=no_heuristics_cap_s)
        result = planner.plan(job, topology, Objective.max_throughput())
        table.add_row(gpu_types=num_types, configuration="dp_only",
                      search_time_s=result.search_time_s,
                      hit_time_cap=not result.complete,
                      found=result.found)

        # Dynamic programming + heuristics.
        planner = _planner(env, heuristics_on=True)
        result = planner.plan(job, topology, Objective.max_throughput())
        heuristics_time = result.search_time_s
        table.add_row(gpu_types=num_types, configuration="dp_plus_heuristics",
                      search_time_s=heuristics_time, hit_time_cap=False,
                      found=result.found)

        # Heuristics + budget constraint.
        planner = _planner(env, heuristics_on=True)
        result = planner.plan(job, topology,
                              Objective.max_throughput(
                                  max_cost_per_iteration_usd=budget_usd))
        table.add_row(gpu_types=num_types, configuration="heuristics_plus_budget",
                      search_time_s=result.search_time_s, hit_time_cap=False,
                      found=result.found)

    table.notes = ("expected shape: without heuristics the search hits its cap; "
                   "heuristics bring it to seconds; the budget constraint adds "
                   "a multiple on top")
    return table
