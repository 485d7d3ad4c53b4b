"""Ablations of Sailor's design choices.

Not a paper figure: this harness quantifies the design decisions worth
ablating:

* H2 (early OOM pruning) on/off -- OOM plans generated and search time;
* H3/H4 (ordered data-parallel exploration with early stop) on/off;
* H6 (zone consolidation) on/off in a geo-distributed setting;
* straggler-aware vs. straggler-oblivious timing in the estimator;
* per-stage vs. uniform-stage memory accounting.
"""

from __future__ import annotations

from repro.baselines.estimators import BaselineEstimator, EstimatorFlags
from repro.core.heuristics import HeuristicConfig
from repro.core.objectives import Objective
from repro.core.planner import PlannerConfig, SailorPlanner
from repro.core.simulator import ReferenceSimulator
from repro.experiments.common import (
    ExperimentTable,
    geo_topology,
    make_environment,
    mixed_a100_v100_topology,
    opt_350m_job,
    resolve_scale,
)
from repro.experiments.estimation import build_samples, error_summary, relative_error


def _sailor_with(env, **heuristic_overrides) -> SailorPlanner:
    heuristics = HeuristicConfig(**heuristic_overrides)
    return SailorPlanner(env, config=PlannerConfig(heuristics=heuristics))


def run(scale: str | object = "small", gpus_per_type: int = 32) -> ExperimentTable:
    """Run the ablation suite and report the effect of each design choice."""
    scale = resolve_scale(scale)
    job = opt_350m_job()
    objective = Objective.max_throughput()

    table = ExperimentTable(
        title="Ablations of Sailor design choices",
        columns=["ablation", "variant", "search_time_s",
                 "throughput_iters_per_s", "oom_plans", "metric"])

    gpus = scale.scaled_gpus(gpus_per_type, minimum=8)
    mixed = mixed_a100_v100_topology(gpus, gpus)
    env = make_environment(job, mixed)

    # H2: early OOM pruning.
    for variant, prune in (("on", True), ("off", False)):
        planner = _sailor_with(env, prune_oom_early=prune)
        result = planner.plan(job, mixed, objective)
        table.add_row(ablation="H2_oom_pruning", variant=variant,
                      search_time_s=result.search_time_s,
                      throughput_iters_per_s=(
                          result.evaluation.throughput_iters_per_s
                          if result.found else 0.0),
                      oom_plans=result.oom_plans_generated, metric=None)

    # H3/H4: ordered data-parallel exploration.
    for variant, ordered in (("on", True), ("off", False)):
        planner = _sailor_with(env, ordered_data_parallel=ordered)
        result = planner.plan(job, mixed, objective)
        table.add_row(ablation="H3_H4_dp_ordering", variant=variant,
                      search_time_s=result.search_time_s,
                      throughput_iters_per_s=(
                          result.evaluation.throughput_iters_per_s
                          if result.found else 0.0),
                      oom_plans=result.oom_plans_generated, metric=None)

    # H6: zone consolidation (geo-distributed setting).
    geo = geo_topology(gpus, ["us-central1-a", "us-central1-b", "us-west1-a"])
    geo_env = make_environment(job, geo)
    for variant, consolidate in (("on", True), ("off", False)):
        planner = _sailor_with(geo_env, consolidate_zones=consolidate)
        result = planner.plan(job, geo, objective)
        table.add_row(ablation="H6_zone_consolidation", variant=variant,
                      search_time_s=result.search_time_s,
                      throughput_iters_per_s=(
                          result.evaluation.throughput_iters_per_s
                          if result.found else 0.0),
                      oom_plans=result.oom_plans_generated, metric=None)

    # Estimator ablations: straggler-aware timing and per-stage memory.
    samples = build_samples(env, job, mixed, mixed_types=True, max_samples=6)
    reference = ReferenceSimulator(env)
    aware = BaselineEstimator(env, EstimatorFlags())
    oblivious = BaselineEstimator(env, EstimatorFlags(models_stragglers=False))
    uniform_mem = BaselineEstimator(env, EstimatorFlags(
        uniform_stage_memory=True, per_stage_in_flight=False))
    for label, estimator, metric in (
            ("straggler_aware", aware, "time"),
            ("straggler_oblivious", oblivious, "time"),
            ("per_stage_memory", aware, "memory"),
            ("uniform_stage_memory", uniform_mem, "memory")):
        errors = []
        for sample in samples:
            if metric == "time":
                estimate = estimator.estimate_iteration_time(sample.plan)
                errors.append(relative_error(estimate, sample.real_iteration_time_s))
            else:
                peaks = estimator.estimate_peak_memory(sample.plan)
                if peaks is None:
                    continue
                errors.append(relative_error(max(peaks),
                                             sample.real_peak_memory_bytes))
        summary = error_summary(errors)
        table.add_row(ablation=f"estimator_{metric}", variant=label,
                      search_time_s=0.0, throughput_iters_per_s=0.0,
                      oom_plans=0, metric=summary["mean"])

    table.notes = ("expected shape: disabling H2 produces OOM candidates and "
                   "slows the search; disabling H3/H4 or H6 increases search "
                   "time; straggler-oblivious timing and uniform-stage memory "
                   "increase estimator error")
    return table
