"""Figure 1: why heterogeneous / multi-zone configurations matter.

The paper's motivating figure trains OPT-350M on seven configurations:

* c0 -- 16 A100 (what is actually available in one zone);
* c1 -- 16 V100;
* c2 -- 32 A100 in one zone (the desired but unattainable allocation);
* c3 -- 16 A100 + 16 V100 in one zone, *well parallelised* (Sailor's plan);
* c4 -- 32 A100 spread over two zones of one region;
* c5 -- 16 A100 + 16 V100 with a *bad* parallelization plan;
* c6 -- 32 A100 spread over two regions (same plan as c4).

The claim: good heterogeneous/multi-zone configurations (c3, c4) beat the
attainable homogeneous ones (c0, c1) at moderate cost, but badly chosen
plans or placements (c5, c6) hurt throughput and/or cost.
"""

from __future__ import annotations

from repro.core.objectives import Objective
from repro.core.plan import ParallelizationPlan
from repro.experiments.common import (
    ExperimentTable,
    a100_topology,
    geo_topology,
    make_environment,
    make_sailor,
    measured_throughput,
    mixed_a100_v100_topology,
    opt_350m_job,
    resolve_scale,
    v100_topology,
)


CONFIG_LABELS = {
    "c0": "16 A100",
    "c1": "16 V100",
    "c2": "32 A100 (unattainable)",
    "c3": "16 A100 + 16 V100",
    "c4": "32 A100, 2 zones",
    "c5": "16 A100 + 16 V100 (bad plan)",
    "c6": "32 A100, 2 regions",
}


def _bad_heterogeneous_plan(job, env) -> ParallelizationPlan:
    """A deliberately poor parallelization of the mixed cluster (c5).

    It ignores the speed difference between the GPU types: a deep pipeline
    with tensor parallelism 1 everywhere and a tiny microbatch, so the V100
    stages straggle and communication dominates.
    """
    from repro.core.plan import StageConfig, StageReplica
    from repro.models.partition import uniform_partition

    pp, dp, mbs = 8, 8, 1
    partitions = uniform_partition(job.model, pp)
    stages = []
    for i, partition in enumerate(partitions):
        node_type = "a2-highgpu-4g" if i < pp // 2 else "n1-standard-v100-4"
        replicas = [StageReplica(node_type=node_type, tensor_parallel=1,
                                 zone="us-central1-a") for _ in range(dp)]
        stages.append(StageConfig(partition=partition, replicas=replicas))
    return ParallelizationPlan(job=job, stages=stages, microbatch_size=mbs)


def _respread_across_regions(plan: ParallelizationPlan, from_zone: str,
                             to_zone: str) -> ParallelizationPlan:
    """Move every replica placed in ``from_zone`` to ``to_zone`` (c4 -> c6)."""
    from repro.core.plan import StageConfig, StageReplica

    stages = []
    for stage in plan.stages:
        replicas = []
        for replica in stage.replicas:
            zone = to_zone if replica.zone == from_zone else replica.zone
            replicas.append(StageReplica(node_type=replica.node_type,
                                         tensor_parallel=replica.tensor_parallel,
                                         zone=zone))
        stages.append(StageConfig(partition=stage.partition, replicas=replicas))
    return ParallelizationPlan(job=plan.job, stages=stages,
                               microbatch_size=plan.microbatch_size)


def run(scale: str | object = "small") -> ExperimentTable:
    """Reproduce Figure 1 (throughput and cost per configuration)."""
    scale = resolve_scale(scale)
    job = opt_350m_job()
    objective = Objective.max_throughput()

    table = ExperimentTable(
        title="Figure 1: OPT-350M on homogeneous / heterogeneous / geo-distributed configs",
        columns=["config", "label", "throughput_iters_per_s",
                 "cost_per_iteration_usd", "kind"])

    setups = {
        "c0": (a100_topology(16), "homogeneous"),
        "c1": (v100_topology(16), "homogeneous"),
        "c2": (a100_topology(32), "homogeneous"),
        "c3": (mixed_a100_v100_topology(16, 16), "good-heterogeneous"),
        "c4": (geo_topology(16, ["us-central1-a", "us-central1-b"]), "good-heterogeneous"),
    }

    c4_plan = None
    c4_env = None
    for config, (topology, kind) in setups.items():
        env = make_environment(job, topology)
        result = make_sailor(env).plan(job, topology, objective)
        if result.found:
            throughput, cost = measured_throughput(env, result.plan)
        else:
            throughput, cost = 0.0, float("nan")
        if config == "c4":
            c4_plan, c4_env = result.plan, env
        table.add_row(config=config, label=CONFIG_LABELS[config],
                      throughput_iters_per_s=throughput,
                      cost_per_iteration_usd=cost, kind=kind)

    # c5: same resources as c3 but with a bad parallelization plan.
    topology = mixed_a100_v100_topology(16, 16)
    env = make_environment(job, topology)
    bad_plan = _bad_heterogeneous_plan(job, env)
    throughput, cost = measured_throughput(env, bad_plan)
    table.add_row(config="c5", label=CONFIG_LABELS["c5"],
                  throughput_iters_per_s=throughput,
                  cost_per_iteration_usd=cost, kind="bad-heterogeneous")

    # c6: the paper keeps c4's GPU count and parallelization but spreads it
    # across two *regions* instead of two zones.
    if c4_plan is not None:
        geo = geo_topology(16, ["us-central1-a", "us-west1-a"])
        env6 = make_environment(job, geo)
        c6_plan = _respread_across_regions(c4_plan, "us-central1-b", "us-west1-a")
        throughput, cost = measured_throughput(env6, c6_plan)
        table.add_row(config="c6", label=CONFIG_LABELS["c6"],
                      throughput_iters_per_s=throughput,
                      cost_per_iteration_usd=cost, kind="bad-heterogeneous")
    else:  # pragma: no cover - c4 always plans in practice
        table.add_row(config="c6", label=CONFIG_LABELS["c6"],
                      throughput_iters_per_s=0.0,
                      cost_per_iteration_usd=float("nan"),
                      kind="bad-heterogeneous")

    table.rows.sort(key=lambda row: row["config"])
    table.notes = ("expected shape: c3/c4 beat c0/c1; c5 is much slower than c3; "
                   "c6 costs more than c4")
    return table
