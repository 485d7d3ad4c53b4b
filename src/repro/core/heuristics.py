"""Search-space pruning heuristics H1-H6 (paper section 4.2.1).

* **H1** Tensor parallelism stays within a node, so each stage replica uses a
  single GPU type and the candidate TP degrees are bounded by the node size.
* **H2** Configurations whose memory footprint cannot fit are pruned early by
  precomputing, per (stage, GPU type, microbatch size), the *minimum* TP
  degree that avoids OOM.
* **H3** When maximising throughput, data-parallel degrees are explored in
  decreasing order and the search stops once throughput stops improving.
* **H4** When minimising cost, data-parallel degrees are explored in
  increasing order and the search stops once cost stops improving.
* **H5** Data-parallel replicas of a stage stay within one region; only
  pipeline-parallel traffic may cross regions.  H5 is always enforced (it
  has no switch): ``PlannerSearchContext.stage_master_combos`` builds every
  stage combo inside a single region.
* **H6** Zones of the same region are consolidated into one pseudo-zone
  during the search (bandwidth within a region is roughly uniform), and the
  chosen plan is spread back over the real zones afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.simulator.environment import SimulationEnvironment
from repro.core.simulator.memory import MemoryEstimator
from repro.hardware.nodes import get_node_type
from repro.hardware.topology import ClusterTopology
from repro.models.partition import LayerPartition
from repro.models.spec import TrainingJobSpec


@dataclass
class HeuristicConfig:
    """Which heuristics are active (all on by default; ablations flip these)."""

    limit_tp_to_node: bool = True          # H1
    prune_oom_early: bool = True           # H2
    ordered_data_parallel: bool = True     # H3 / H4
    consolidate_zones: bool = True         # H6
    max_pipeline_parallel: int = 16
    max_microbatch_size: int = 8
    extra_tp_candidates: bool = True       # also consider full-node TP

    def describe(self) -> str:
        """Short summary of active heuristics (used in experiment logs)."""
        flags = {
            "H1": self.limit_tp_to_node,
            "H2": self.prune_oom_early,
            "H3/H4": self.ordered_data_parallel,
            "H6": self.consolidate_zones,
        }
        return ", ".join(f"{k}={'on' if v else 'off'}" for k, v in flags.items())


# ---------------------------------------------------------------------------
# H1 / H2: tensor-parallel candidates
# ---------------------------------------------------------------------------

def tp_candidates_for_node(node_type: str, config: HeuristicConfig) -> list[int]:
    """Candidate TP degrees on a node type (H1: bounded by the node size)."""
    spec = get_node_type(node_type)
    if config.limit_tp_to_node:
        return list(spec.valid_tp_degrees)
    # Without H1 we would consider multi-node tensor parallelism; cap at 2
    # nodes to keep the ablation finite.
    degrees = list(spec.valid_tp_degrees)
    degrees.append(spec.gpus_per_node * 2)
    return degrees


def min_tp_per_stage(job: TrainingJobSpec, partitions: list[LayerPartition],
                     node_types: list[str], microbatch_size: int,
                     num_microbatches_in_flight_cap: int,
                     env: SimulationEnvironment,
                     config: HeuristicConfig) -> list[dict[str, int]]:
    """H2: per stage, the minimum feasible TP degree for every node type.

    Returns a list with one dict per stage mapping node-type name to the
    minimum TP degree that fits in that node's GPU memory; node types that
    cannot fit the stage at any degree are omitted.  When H2 is disabled the
    smallest profiled degree is returned for every node type (OOM plans are
    then only discovered at evaluation time, like several baselines).
    """
    memory = MemoryEstimator(env)
    result: list[dict[str, int]] = []
    num_stages = len(partitions)
    for partition in partitions:
        in_flight = min(num_microbatches_in_flight_cap,
                        num_stages - partition.stage_index)
        in_flight = max(1, in_flight)
        per_stage: dict[str, int] = {}
        for node_type in node_types:
            spec = get_node_type(node_type)
            degrees = [d for d in tp_candidates_for_node(node_type, config)
                       if d <= spec.gpus_per_node]
            if not config.prune_oom_early:
                per_stage[node_type] = min(degrees)
                continue
            min_tp = memory.min_tensor_parallel(
                job, partition, spec.gpu.name, microbatch_size, in_flight, degrees)
            if min_tp is not None:
                per_stage[node_type] = min_tp
        result.append(per_stage)
    return result


def tp_options_for_stage(stage_min_tp: dict[str, int],
                         config: HeuristicConfig) -> dict[str, list[int]]:
    """Candidate TP degrees per node type for one stage.

    Includes the H2 minimum and, when ``extra_tp_candidates`` is on, the
    full-node degree (larger TP shortens the per-microbatch stage time, which
    the paper observes Sailor often prefers).
    """
    options: dict[str, list[int]] = {}
    for node_type, min_tp in stage_min_tp.items():
        spec = get_node_type(node_type)
        degrees = {min_tp}
        if config.extra_tp_candidates:
            degrees.add(spec.gpus_per_node)
        options[node_type] = sorted(d for d in degrees if d <= spec.gpus_per_node)
    return options


# ---------------------------------------------------------------------------
# H3 / H4: data-parallel orderings
# ---------------------------------------------------------------------------

def data_parallel_candidates(job: TrainingJobSpec, microbatch_size: int,
                             max_data_parallel: int,
                             *, maximize_throughput: bool,
                             config: HeuristicConfig) -> list[int]:
    """Feasible data-parallel degrees in the order the search explores them.

    Only degrees that split the global batch evenly (given the microbatch
    size) are considered.  H3 orders them decreasing for throughput, H4
    increasing for cost; without the heuristic the natural increasing order
    is used and no early stop is applied by the caller.
    """
    if max_data_parallel < 1:
        return []
    candidates = []
    for d in range(1, max_data_parallel + 1):
        per_pipeline = job.global_batch_size / d
        if per_pipeline < microbatch_size:
            continue
        if job.global_batch_size % d != 0:
            continue
        if (job.global_batch_size // d) % microbatch_size != 0:
            continue
        candidates.append(d)
    if config.ordered_data_parallel and maximize_throughput:
        candidates.sort(reverse=True)
    else:
        candidates.sort()
    return candidates


# ---------------------------------------------------------------------------
# H5 / H6: geography
# ---------------------------------------------------------------------------

@dataclass
class ConsolidatedTopology:
    """Result of H6: one pseudo-zone per region plus the spread-back map."""

    topology: ClusterTopology
    #: pseudo-zone -> list of (real zone, node_type, node count) in it.
    members: dict[str, list[tuple[str, str, int]]] = field(default_factory=dict)

    def real_zones(self, pseudo_zone: str, node_type: str) -> list[tuple[str, int]]:
        """Real zones (and node counts) backing a pseudo-zone for a node type."""
        return [(zone, count) for zone, ntype, count in self.members.get(pseudo_zone, [])
                if ntype == node_type]


def consolidate_zones(topology: ClusterTopology,
                      config: HeuristicConfig) -> ConsolidatedTopology:
    """H6: merge all zones of a region into the region's first zone.

    Bandwidth across zones of one region is close to intra-zone bandwidth
    (paper observation), so the search treats them as a single pool and the
    final plan is spread back across the real zones afterwards.
    """
    if not config.consolidate_zones:
        return ConsolidatedTopology(topology=topology, members={
            zone: [(zone, node_type, count)
                   for node_type, count in topology.nodes.get(zone, {}).items()]
            for zone in topology.zones})

    nodes: dict[str, dict[str, int]] = {}
    members: dict[str, list[tuple[str, str, int]]] = {}
    for region in topology.regions:
        zones = topology.zones_in_region(region)
        if not zones:
            continue
        pseudo = zones[0]
        merged: dict[str, int] = {}
        member_list: list[tuple[str, str, int]] = []
        for zone in zones:
            for node_type, count in topology.nodes.get(zone, {}).items():
                if count <= 0:
                    continue
                merged[node_type] = merged.get(node_type, 0) + count
                member_list.append((zone, node_type, count))
        nodes[pseudo] = merged
        members[pseudo] = member_list
    consolidated = ClusterTopology(nodes=nodes,
                                   zone_to_region=dict(topology.zone_to_region),
                                   network=topology.network)
    return ConsolidatedTopology(topology=consolidated, members=members)


# ---------------------------------------------------------------------------
# Pipeline-parallel and microbatch candidates
# ---------------------------------------------------------------------------

def pipeline_parallel_candidates(job: TrainingJobSpec, total_nodes: int,
                                 config: HeuristicConfig) -> list[int]:
    """Pipeline depths worth exploring: 1..min(layers, nodes, configured cap)."""
    limit = min(job.model.num_layers, max(1, total_nodes),
                config.max_pipeline_parallel)
    candidates = [p for p in range(1, limit + 1)
                  if job.model.num_layers >= p]
    # Prefer depths that divide the layer count evenly (balanced stages), but
    # keep the others as well -- heterogeneous clusters may want them.
    candidates.sort(key=lambda p: (job.model.num_layers % p != 0, p))
    return candidates


def microbatch_candidates(job: TrainingJobSpec,
                          config: HeuristicConfig) -> list[int]:
    """Microbatch sizes worth exploring (powers of two dividing the batch)."""
    return job.valid_microbatch_sizes(max_mbs=config.max_microbatch_size)
