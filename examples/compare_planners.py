#!/usr/bin/env python3
"""Compare Sailor against the prior planners on a heterogeneous cluster.

Reproduces (a small version of) the paper's Figure 8 comparison: OPT-350M on
a mixed A100 + V100 cluster, planned by AMP, FlashFlex, Metis and Sailor.
Each planner's chosen plan is then "deployed" on the reference simulator,
counting plans that would crash with out-of-memory errors first -- exactly
the methodology of section 5.2.

Run with:  python examples/compare_planners.py
"""

from __future__ import annotations

from repro import Objective, TrainingJobSpec, build_environment, get_model
from repro.baselines import get_baseline
from repro.core.planner import SailorPlanner
from repro.core.simulator import ReferenceSimulator
from repro.hardware.topology import ClusterTopology


PLANNERS = ("amp", "flashflex", "metis", "sailor")


def main() -> None:
    job = TrainingJobSpec(model=get_model("OPT-350M"), global_batch_size=2048,
                          sequence_length=2048)
    topology = ClusterTopology.single_zone("us-central1-a", {
        "a2-highgpu-4g": 8,          # 32 A100
        "n1-standard-v100-4": 8,     # 32 V100
    })
    print("Cluster:")
    print(topology.describe())
    env = build_environment(job, topology)
    reference = ReferenceSimulator(env)
    objective = Objective.max_throughput()

    print(f"\n{'planner':<12} {'search (s)':>10} {'OOM plans':>10} "
          f"{'iters/s':>9} {'USD/iter':>9} {'GPUs':>5}  search stats")
    print("-" * 96)
    for name in PLANNERS:
        if name == "sailor":
            result = SailorPlanner(env).plan(job, topology, objective)
        else:
            result = get_baseline(name, env).plan(job, topology, objective)
        # The search-cost columns are what Table 3 compares across planners;
        # baselines that do not report DP-search counters show all zeros.
        stats = result.search_stats.describe()
        if not result.found:
            print(f"{name:<12} {result.search_time_s:>10.2f} "
                  f"{result.oom_plans_generated:>10} {'X':>9} {'X':>9} {'-':>5}  "
                  f"{stats}")
            continue
        measured = reference.measure(result.plan)
        print(f"{name:<12} {result.search_time_s:>10.2f} "
              f"{result.oom_plans_generated:>10} "
              f"{measured.throughput_iters_per_s:>9.3f} "
              f"{measured.cost_per_iteration_usd:>9.3f} "
              f"{result.plan.total_gpus:>5}  "
              f"{stats}")

    print("\n(The paper's Figure 8 runs the same comparison at 64-512 GPUs;")
    print(" use repro.experiments.figure8.run('paper') for the full sweep.)")


if __name__ == "__main__":
    main()
