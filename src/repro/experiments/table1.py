"""Table 1: planner capability matrix and search time on 128 A100s.

For every planner the table records which degrees of parallelism it
searches, whether it recommends the resource allocation itself, whether it
supports heterogeneous GPU types and multi-zone placements, and its search
time for OPT-350M on a 128-A100 cluster.
"""

from __future__ import annotations

from repro.baselines import get_baseline, list_baselines
from repro.core.objectives import Objective
from repro.experiments.common import (
    ExperimentTable,
    a100_topology,
    make_environment,
    make_sailor,
    make_baseline,
    opt_350m_job,
    resolve_scale,
)


#: Planner order of the paper's Table 1.
TABLE1_PLANNERS = ("piper", "amp", "varuna", "oobleck", "metis", "flashflex",
                   "galvatron", "aceso", "dtfm", "sailor")


def run(scale: str | object = "small", num_gpus: int = 128) -> ExperimentTable:
    """Reproduce Table 1 (capabilities + search time, 128 A100, OPT-350M)."""
    scale = resolve_scale(scale)
    num_gpus = scale.scaled_gpus(num_gpus, minimum=16)
    job = opt_350m_job()
    topology = a100_topology(num_gpus)
    env = make_environment(job, topology)
    objective = Objective.max_throughput()

    table = ExperimentTable(
        title=f"Table 1: planner capabilities and search time ({num_gpus} A100, OPT-350M)",
        columns=["planner", "parallelism", "recommends_allocation",
                 "heterogeneous_gpus", "multi_zone", "search_time_s", "found"])

    for name in TABLE1_PLANNERS:
        if name == "sailor":
            planner = make_sailor(env)
            result = planner.plan(job, topology, objective)
            table.add_row(planner="sailor", parallelism="3D",
                          recommends_allocation=True, heterogeneous_gpus=True,
                          multi_zone=True, search_time_s=result.search_time_s,
                          found=result.found)
            continue
        baseline = make_baseline(name, env, scale)
        result = baseline.plan(job, topology, objective)
        table.add_row(planner=name, parallelism=baseline.parallelism,
                      recommends_allocation=baseline.recommends_allocation,
                      heterogeneous_gpus=baseline.supports_heterogeneous,
                      multi_zone=baseline.supports_multizone,
                      search_time_s=result.search_time_s, found=result.found)

    table.notes = ("expected shape: only Sailor combines allocation choice, "
                   "heterogeneous GPUs and multi-zone; Sailor stays in "
                   "seconds (the paper's Metis and Oobleck searches take "
                   "hours and were cut at 300 s; here they are bounded by "
                   "candidate counts)")
    return table
