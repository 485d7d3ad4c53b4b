"""Cloud layout (regions and zones) and cluster topologies.

A :class:`ClusterTopology` describes what the planner can currently allocate:
how many nodes of each node type are available in each zone.  It is the
"resource availability" input of Figure 4 in the paper, and changes over time
(driven by :mod:`repro.hardware.availability`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.network import LinkClass, NetworkModel
from repro.hardware.nodes import NodeSpec, get_node_type


@dataclass(frozen=True)
class Region:
    """One cloud region with its availability zones."""

    name: str
    zones: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.zones:
            raise ValueError("a region needs at least one zone")


#: Default cloud layout used by examples and experiments (GCP-style names).
DEFAULT_REGIONS: tuple[Region, ...] = (
    Region("us-central1", ("us-central1-a", "us-central1-b", "us-central1-c")),
    Region("us-west1", ("us-west1-a", "us-west1-b")),
    Region("europe-west4", ("europe-west4-a", "europe-west4-b")),
)


def default_cloud_layout() -> dict[str, str]:
    """Return the default zone-to-region mapping."""
    mapping: dict[str, str] = {}
    for region in DEFAULT_REGIONS:
        for zone in region.zones:
            mapping[zone] = region.name
    return mapping


@dataclass
class ClusterTopology:
    """Currently-available nodes, grouped by zone and node type.

    ``nodes[zone][node_type_name] = count`` gives the number of whole nodes of
    that type that can be allocated in that zone right now.

    The topology also carries the zone-to-region mapping and the network
    model so that consumers can classify links and estimate communication.
    """

    nodes: dict[str, dict[str, int]] = field(default_factory=dict)
    zone_to_region: dict[str, str] = field(default_factory=default_cloud_layout)
    network: NetworkModel = field(default_factory=NetworkModel)

    def __post_init__(self) -> None:
        for zone, per_type in self.nodes.items():
            for node_type, count in per_type.items():
                if count < 0:
                    raise ValueError(
                        f"negative node count for {node_type!r} in {zone!r}")
                get_node_type(node_type)  # validates the name
            if zone not in self.zone_to_region:
                # Derive region from the GCP-style zone name.
                self.zone_to_region[zone] = zone.rsplit("-", 1)[0]

    # -- queries -----------------------------------------------------------

    @property
    def zones(self) -> list[str]:
        """Zones with at least one available node, sorted."""
        return sorted(z for z, per_type in self.nodes.items()
                      if any(c > 0 for c in per_type.values()))

    @property
    def regions(self) -> list[str]:
        """Regions covering :attr:`zones`, sorted."""
        return sorted({self.zone_to_region[z] for z in self.zones})

    def zones_in_region(self, region: str) -> list[str]:
        """Zones of this topology that belong to ``region``."""
        return sorted(z for z in self.zones if self.zone_to_region[z] == region)

    def region_of(self, zone: str) -> str:
        """Region a zone belongs to."""
        return self.zone_to_region.get(zone, zone.rsplit("-", 1)[0])

    def node_types(self) -> list[str]:
        """All node type names present anywhere in the topology."""
        names: set[str] = set()
        for per_type in self.nodes.values():
            names.update(t for t, c in per_type.items() if c > 0)
        return sorted(names)

    def gpu_types(self) -> list[str]:
        """All GPU type names present anywhere in the topology."""
        return sorted({get_node_type(t).gpu.name for t in self.node_types()})

    def node_count(self, zone: str, node_type: str) -> int:
        """Available nodes of ``node_type`` in ``zone``."""
        return self.nodes.get(zone, {}).get(node_type, 0)

    def gpu_count(self, zone: str | None = None,
                  gpu_type: str | None = None) -> int:
        """Total available GPUs, optionally filtered by zone and GPU type."""
        total = 0
        for z, per_type in self.nodes.items():
            if zone is not None and z != zone:
                continue
            for node_type, count in per_type.items():
                spec = get_node_type(node_type)
                if gpu_type is not None and spec.gpu.name != gpu_type:
                    continue
                total += count * spec.gpus_per_node
        return total

    def total_gpus(self) -> int:
        """Total available GPUs across all zones and types."""
        return self.gpu_count()

    def gpus_by_type(self) -> dict[str, int]:
        """Total available GPUs keyed by GPU type name."""
        return {g: self.gpu_count(gpu_type=g) for g in self.gpu_types()}

    def link_class(self, zone_a: str, zone_b: str) -> LinkClass:
        """Locality class between two zones of this topology."""
        return self.network.classify(zone_a, zone_b,
                                     zone_to_region=self.zone_to_region)

    # -- construction helpers ----------------------------------------------

    @classmethod
    def single_zone(cls, zone: str, node_counts: dict[str, int],
                    network: NetworkModel | None = None) -> "ClusterTopology":
        """Build a topology with all nodes in one zone."""
        return cls(nodes={zone: dict(node_counts)},
                   network=network or NetworkModel())

    @classmethod
    def homogeneous(cls, node_type: str, num_nodes: int,
                    zone: str = "us-central1-a",
                    network: NetworkModel | None = None) -> "ClusterTopology":
        """Build a single-zone, single-node-type topology."""
        return cls.single_zone(zone, {node_type: num_nodes}, network=network)

    def with_nodes(self, zone: str, node_type: str, count: int) -> "ClusterTopology":
        """Return a copy with the node count of (zone, type) set to ``count``."""
        nodes = {z: dict(per_type) for z, per_type in self.nodes.items()}
        nodes.setdefault(zone, {})[node_type] = count
        return ClusterTopology(nodes=nodes,
                               zone_to_region=dict(self.zone_to_region),
                               network=self.network)

    def restricted_to_gpu(self, gpu_type: str) -> "ClusterTopology":
        """Return a copy containing only nodes with the given GPU type."""
        nodes: dict[str, dict[str, int]] = {}
        for zone, per_type in self.nodes.items():
            kept = {t: c for t, c in per_type.items()
                    if get_node_type(t).gpu.name == gpu_type}
            if kept:
                nodes[zone] = kept
        return ClusterTopology(nodes=nodes,
                               zone_to_region=dict(self.zone_to_region),
                               network=self.network)

    def restricted_to_zones(self, zones: list[str]) -> "ClusterTopology":
        """Return a copy containing only the given zones."""
        keep = set(zones)
        nodes = {z: dict(per_type) for z, per_type in self.nodes.items()
                 if z in keep}
        return ClusterTopology(nodes=nodes,
                               zone_to_region=dict(self.zone_to_region),
                               network=self.network)

    def merge(self, other: "ClusterTopology") -> "ClusterTopology":
        """Union of two topologies (node counts add up)."""
        nodes = {z: dict(per_type) for z, per_type in self.nodes.items()}
        for zone, per_type in other.nodes.items():
            dest = nodes.setdefault(zone, {})
            for node_type, count in per_type.items():
                dest[node_type] = dest.get(node_type, 0) + count
        zone_to_region = dict(self.zone_to_region)
        zone_to_region.update(other.zone_to_region)
        return ClusterTopology(nodes=nodes, zone_to_region=zone_to_region,
                               network=self.network)

    def describe(self) -> str:
        """Human-readable summary used by examples and logs."""
        lines = []
        for zone in self.zones:
            parts = []
            for node_type, count in sorted(self.nodes[zone].items()):
                if count <= 0:
                    continue
                spec = get_node_type(node_type)
                parts.append(f"{count}x {node_type} ({count * spec.gpus_per_node} {spec.gpu.name})")
            lines.append(f"{zone} [{self.region_of(zone)}]: " + ", ".join(parts))
        return "\n".join(lines) if lines else "(empty topology)"
