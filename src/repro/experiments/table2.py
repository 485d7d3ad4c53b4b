"""Table 2: planner search times for the Figure 9b clusters.

Search time (seconds) of AMP, FlashFlex, Metis and Sailor for GPT-Neo-2.7B
on the 25%/75% A100/V100 mixes (32+96, 80+240, 128+384 GPUs).  In the paper
Metis always hits the 300-second cap, AMP and FlashFlex take tens to
hundreds of seconds at the largest size, and Sailor stays under a minute.
"""

from __future__ import annotations

from repro.core.objectives import Objective
from repro.experiments.common import (
    ExperimentTable,
    gpt_neo_job,
    make_environment,
    mixed_a100_v100_topology,
    resolve_scale,
    run_planner,
)


TABLE2_PLANNERS = ("amp", "flashflex", "metis", "sailor")
TABLE2_SETUPS = ((32, 96), (80, 240), (128, 384))


def run(scale: str | object = "small",
        setups: tuple[tuple[int, int], ...] = TABLE2_SETUPS,
        planners: tuple[str, ...] = TABLE2_PLANNERS) -> ExperimentTable:
    """Reproduce Table 2 (search times for the Figure 9b setups)."""
    scale = resolve_scale(scale)
    job = gpt_neo_job()
    objective = Objective.max_throughput()

    table = ExperimentTable(
        title="Table 2: search times (s) for the Figure 9b clusters (GPT-Neo-2.7B)",
        columns=["setup", "planner", "search_time_s", "found"])

    for num_a100, num_v100 in setups:
        a100 = scale.scaled_gpus(num_a100, minimum=8)
        v100 = scale.scaled_gpus(num_v100, minimum=8)
        setup = f"{a100}-{v100}"
        topology = mixed_a100_v100_topology(a100, v100)
        env = make_environment(job, topology)
        for name in planners:
            result = run_planner(name, env, job, topology, objective, scale)
            table.add_row(setup=setup, planner=name,
                          search_time_s=result.search_time_s,
                          found=result.found)

    table.notes = ("expected shape: Metis is the slowest search (the paper "
                   "cut it at 300 s; here it stops after max_candidates "
                   "feasible plans); Sailor's search is the fastest of the "
                   "heterogeneity-aware planners at scale")
    return table
