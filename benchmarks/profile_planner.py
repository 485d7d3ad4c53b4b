#!/usr/bin/env python3
"""cProfile the planner hot path (``make profile``).

Runs the heterogeneous planner benchmark scenario (A100 + V100 mixed
cluster, OPT-350M, max-throughput objective) once to warm the profile
caches, then profiles a second planning call and prints the hottest
functions.  Use this to find the next optimisation target before reaching
for the micro-benchmarks::

    make profile                       # 64 GPUs, top 30 by cumulative time
    make profile PROFILE_ARGS="--gpus 256 --sort tottime --top 40"

The ``--top N`` / ``--sort`` pair is the regression-eyeballing interface:
``--sort tottime --top 10`` shows at a glance whether a new hot row crept
into the DP engine (``--limit`` is kept as an alias of ``--top``).
``--stats`` additionally dumps the profiled call's ``SearchStats``
counters as JSON next to the cProfile rows -- the straggler-certificate
counters (``suffix_iterations`` / ``suffix_certified``) live there, so a
profile and its iteration counts come from the same call.
``--phases`` splits the profiled call's wall time into the planner's five
coarse phases (forward-layer build / backward scoring / suffix solves /
plan evaluation / candidate enumeration + floor computation, derived from
the same cProfile capture), so the next scale wall is visible without
spelunking the row listing.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time

from repro.core.objectives import Objective
from repro.core.planner import SailorPlanner
from repro.core.simulator import build_environment
from repro.hardware.topology import ClusterTopology
from repro.models.catalog import get_model
from repro.models.spec import TrainingJobSpec


#: The planner's coarse phases, as (file suffix, function name) anchors in
#: the cProfile capture.  Cumulative times, so each bucket includes the
#: kernels it drives; nested calls *within* one bucket (the batched budget
#: threading falling back to scalar suffix solves) are de-duplicated via
#: the callers table, so a bucket never counts the same wall time twice.
_PHASES = {
    "forward_layer_build": (("resource_state.py", "compute_forward_layers"),),
    "backward_scoring": (("resource_state.py", "run_backward"),),
    "suffix_solves": (("dp_solver.py", "_solve_suffix"),
                      ("dp_solver.py", "_solve_budget_batched")),
    "evaluation": (("evaluator.py", "evaluate"),),
    # Candidate enumeration + bound computation: the (P, mbs, D) candidate
    # generators, the stage-combo master tables, and every admissible-floor
    # routine (the availability-aware candidate floors with their carrier,
    # pigeonhole and sync terms).  This is the branch-and-bound overhead that the kernels above don't see --
    # when its share grows with the pool, the next wall is enumeration, not
    # scoring.
    "enumeration": (("heuristics.py", "min_tp_per_stage"),
                    ("heuristics.py", "data_parallel_candidates"),
                    ("heuristics.py", "pipeline_parallel_candidates"),
                    ("heuristics.py", "microbatch_candidates"),
                    ("search_cache.py", "stage_master_combos"),
                    ("planner.py", "_branch_specs"),
                    ("planner.py", "_availability_tables"),
                    ("planner.py", "_sync_inputs"),
                    ("planner.py", "_knapsack_table"),
                    ("planner.py", "_bottleneck_table"),
                    ("planner.py", "_pipeline_time_lb"),
                    ("planner.py", "_sync_time_lb"),
                    ("planner.py", "_candidate_floor_available")),
}


def phase_wall_times(stats: pstats.Stats, search_time_s: float,
                     ) -> dict[str, float]:
    """Wall time per planner phase, from an existing cProfile capture.

    ``other`` is the remainder of the planning call (candidate
    enumeration, cache lookups, plan materialisation...), clamped at 0 --
    the buckets are cumulative over *distinct* subtrees, so their sum
    cannot meaningfully exceed the call's wall time beyond timer jitter.
    """
    raw = stats.stats
    phases: dict[str, float] = {}
    for phase, anchors in _PHASES.items():
        keys = {key for key in raw
                for suffix, func in anchors
                if key[2] == func and key[0].endswith(suffix)}
        total = 0.0
        for key in keys:
            ct, callers = raw[key][3], raw[key][4]
            nested = sum(entry[3] for caller, entry in callers.items()
                         if caller in keys and caller != key)
            total += ct - nested
        phases[phase] = total
    phases["other"] = max(0.0, search_time_s - sum(phases.values()))
    return phases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Profile one Sailor planner call on a mixed A100+V100 "
                    "cluster.")
    parser.add_argument("--gpus", type=int, default=64,
                        help="total GPUs, split evenly between A100 and V100 "
                             "4-GPU nodes (default: 64)")
    parser.add_argument("--batch-size", type=int, default=512,
                        help="global batch size (default: 512)")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"],
                        help="pstats sort order (default: cumulative)")
    parser.add_argument("--top", "--limit", dest="top", type=int, default=30,
                        help="rows to print (default: 30; --limit is an "
                             "alias)")
    parser.add_argument("--min-cost", action="store_true",
                        help="profile the cost objective instead of "
                             "max-throughput")
    parser.add_argument("--budget", type=float, default=None, metavar="USD",
                        help="profile a budget-constrained search (max "
                             "throughput under this per-iteration cost cap; "
                             "--budget 0.031 reproduces the single-zone "
                             "Table 3 bench scenario)")
    parser.add_argument("--stats", action="store_true",
                        help="dump the profiled call's SearchStats counters "
                             "as JSON next to the cProfile output")
    parser.add_argument("--phases", action="store_true",
                        help="split the profiled call's wall time into "
                             "forward-layer build / backward scoring / "
                             "suffix solves / evaluation / candidate "
                             "enumeration (JSON, from the same cProfile "
                             "capture)")
    args = parser.parse_args(argv)

    if args.gpus < 8 or args.gpus % 8:
        parser.error("--gpus must be a multiple of 8 (two 4-GPU node types)")
    nodes_per_type = args.gpus // 8

    job = TrainingJobSpec(model=get_model("OPT-350M"),
                          global_batch_size=args.batch_size)
    topology = ClusterTopology.single_zone("us-central1-a", {
        "a2-highgpu-4g": nodes_per_type, "n1-standard-v100-4": nodes_per_type})
    if args.budget is not None:
        if args.min_cost:
            parser.error("--budget profiles max-throughput under a cost cap; "
                         "it cannot be combined with --min-cost")
        objective = Objective.max_throughput(
            max_cost_per_iteration_usd=args.budget)
    elif args.min_cost:
        objective = Objective.min_cost()
    else:
        objective = Objective.max_throughput()

    budget_note = ("" if args.budget is None
                   else f", budget={args.budget} USD/iter")
    print(f"profiling: {args.gpus} GPUs ({nodes_per_type} A100 nodes + "
          f"{nodes_per_type} V100 nodes), goal={objective.goal.value}"
          f"{budget_note}")
    env = build_environment(job, topology)
    planner = SailorPlanner(env)

    warm_start = time.perf_counter()
    planner.plan(job, topology, objective)  # warm caches, like the benches
    print(f"warm-up call: {time.perf_counter() - warm_start:.3f}s")

    profiler = cProfile.Profile()
    profiler.enable()
    result = planner.plan(job, topology, objective)
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    print(f"search_time={result.search_time_s:.3f}s "
          f"candidates={result.candidates_evaluated} "
          f"stats=[{result.search_stats.describe()}]")
    if args.stats:
        print("search_stats_json="
              + json.dumps(result.search_stats.as_dict(), sort_keys=True))
    if args.phases:
        phases = phase_wall_times(stats, result.search_time_s)
        for phase, seconds in phases.items():
            share = (seconds / result.search_time_s * 100.0
                     if result.search_time_s > 0 else 0.0)
            print(f"phase {phase:<20s} {seconds:8.3f}s  {share:5.1f}%")
        print("phase_wall_times_json=" + json.dumps(
            {phase: round(seconds, 6) for phase, seconds in phases.items()},
            sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
