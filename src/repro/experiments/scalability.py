"""Section 5.3: Sailor planner scalability study.

Search time as a function of (a) the number of GPUs per zone with a single
homogeneous GPU type across several zones, and (b) the number of distinct
GPU types in a single zone.  The paper reports sub-1.5-second searches even
with 5 zones x 256 A100s, while adding GPU types is much more expensive
(0.3 s, 6.2 s, and ~4900 s for 1, 2 and 3 types at 256 GPUs/type).
"""

from __future__ import annotations

from repro.core.objectives import Objective
from repro.experiments.common import (
    ExperimentTable,
    geo_topology,
    gpt_neo_job,
    make_environment,
    make_sailor,
    resolve_scale,
)
from repro.hardware.topology import ClusterTopology


ALL_ZONES = ["us-central1-a", "us-central1-b", "us-central1-c",
             "us-west1-a", "us-west1-b"]

#: Node types used for the "number of GPU types" sweep.
TYPE_SWEEP = ("a2-highgpu-4g", "n1-standard-v100-4", "rtx-3090-8g")


def run(scale: str | object = "small", gpus_per_zone: int = 256,
        zone_counts: tuple[int, ...] = (1, 3, 5),
        type_counts: tuple[int, ...] = (1, 2, 3),
        gpus_per_type: int = 256) -> ExperimentTable:
    """Reproduce the section-5.3 scalability study."""
    scale = resolve_scale(scale)
    job = gpt_neo_job()
    objective = Objective.max_throughput()

    table = ExperimentTable(
        title="Section 5.3: Sailor planner scalability",
        columns=["sweep", "setting", "total_gpus", "search_time_s", "found"])

    # (a) zones sweep, homogeneous A100.
    per_zone = scale.scaled_gpus(gpus_per_zone, minimum=8)
    for zones in zone_counts:
        topology = geo_topology(per_zone, ALL_ZONES[:zones])
        env = make_environment(job, topology)
        result = make_sailor(env).plan(job, topology, objective)
        table.add_row(sweep="zones", setting=f"{zones} zones x {per_zone} A100",
                      total_gpus=topology.total_gpus(),
                      search_time_s=result.search_time_s, found=result.found)

    # (b) GPU-type sweep, single zone.
    per_type = scale.scaled_gpus(gpus_per_type, minimum=8)
    for types in type_counts:
        nodes: dict[str, int] = {}
        for node_type in TYPE_SWEEP[:types]:
            from repro.hardware.nodes import get_node_type
            per_node = get_node_type(node_type).gpus_per_node
            nodes[node_type] = max(1, per_type // per_node)
        topology = ClusterTopology.single_zone("us-central1-a", nodes)
        env = make_environment(job, topology)
        result = make_sailor(env).plan(job, topology, objective)
        table.add_row(sweep="gpu_types",
                      setting=f"{types} GPU types x {per_type} GPUs",
                      total_gpus=topology.total_gpus(),
                      search_time_s=result.search_time_s, found=result.found)

    table.notes = ("expected shape: search time grows mildly with zones/GPUs "
                   "but sharply with the number of distinct GPU types")
    return table
