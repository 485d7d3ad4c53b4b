"""Network link classes and bandwidth models.

The Sailor profiler measures bandwidth between any pair of machine types as a
function of message size and fits a polynomial (paper section 4.1).  The
simulator then uses those fits to estimate point-to-point and collective
communication time (section 4.3).

This module provides the underlying *ground-truth* network model used both to
synthesise profiler measurements and to drive the reference simulator.  The
model is the classic alpha-beta (latency + bandwidth) model, with one
``LinkSpec`` per locality class:

* ``INTRA_NODE``  -- NVLink / PCIe between GPUs of one node.
* ``INTRA_ZONE``  -- NIC-to-NIC inside a single availability zone.
* ``INTER_ZONE``  -- across zones of the same cloud region.
* ``INTER_REGION`` -- across cloud regions (wide-area).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.hardware.nodes import NodeSpec


class LinkClass(enum.Enum):
    """Locality class of a network link."""

    INTRA_NODE = "intra_node"
    INTRA_ZONE = "intra_zone"
    INTER_ZONE = "inter_zone"
    INTER_REGION = "inter_region"

    @property
    def is_cross_zone(self) -> bool:
        """True when traffic on this link leaves the availability zone."""
        return self in (LinkClass.INTER_ZONE, LinkClass.INTER_REGION)


@dataclass(frozen=True)
class LinkSpec:
    """Alpha-beta description of one link class.

    Attributes
    ----------
    bandwidth_gbps:
        Peak per-direction bandwidth in gigabits per second.
    latency_s:
        One-way latency in seconds (the alpha term).
    """

    bandwidth_gbps: float
    latency_s: float

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ValueError("bandwidth_gbps must be positive")
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")

    @property
    def bandwidth_bytes_per_s(self) -> float:
        """Peak bandwidth in bytes per second."""
        return self.bandwidth_gbps * 1e9 / 8.0

    def transfer_time(self, message_bytes: float) -> float:
        """Time to move ``message_bytes`` over this link once."""
        if message_bytes < 0:
            raise ValueError("message_bytes must be non-negative")
        if message_bytes == 0:
            return 0.0
        return self.latency_s + message_bytes / self.bandwidth_bytes_per_s

    def effective_bandwidth(self, message_bytes: float) -> float:
        """Achieved bandwidth (bytes/s) for a given message size.

        Small messages are latency-bound, so the achieved bandwidth is well
        below peak; this is exactly the curve the Sailor profiler fits.
        """
        if message_bytes <= 0:
            return 0.0
        return message_bytes / self.transfer_time(message_bytes)


#: Default link parameters.  Bandwidths follow typical cloud values the paper
#: references: ~100 Gbit/s NIC inside a zone, tens of Gbit/s across zones of a
#: region (which is why H6 merges zones of a region), and well under a Gbit/s
#: of *effective per-flow* bandwidth across regions -- the reason the paper's
#: H5 keeps data-parallel groups inside one region; NVLink is hundreds of GB/s.
DEFAULT_LINKS: dict[LinkClass, LinkSpec] = {
    LinkClass.INTRA_NODE: LinkSpec(bandwidth_gbps=2400.0, latency_s=5e-6),
    LinkClass.INTRA_ZONE: LinkSpec(bandwidth_gbps=100.0, latency_s=50e-6),
    LinkClass.INTER_ZONE: LinkSpec(bandwidth_gbps=40.0, latency_s=500e-6),
    LinkClass.INTER_REGION: LinkSpec(bandwidth_gbps=0.4, latency_s=30e-3),
}


@dataclass
class NetworkModel:
    """Ground-truth network model used by the simulator and profiler.

    The model resolves the link class between two endpoints (identified by
    node type and zone), then answers time/bandwidth questions with an
    alpha-beta model.  Node-specific NIC limits are honoured: the achievable
    inter-node bandwidth is ``min(link bandwidth, both NICs)``.
    """

    links: dict[LinkClass, LinkSpec] = field(default_factory=lambda: dict(DEFAULT_LINKS))

    def classify(self, zone_a: str, zone_b: str, *, same_node: bool = False,
                 zone_to_region: dict[str, str] | None = None) -> LinkClass:
        """Determine the link class between two endpoints.

        ``zone_to_region`` maps zone names to region names; when omitted the
        region is derived from the zone name by dropping the trailing
        ``-<letter>`` suffix (GCP convention, e.g. ``us-central1-a``).
        """
        if same_node:
            return LinkClass.INTRA_NODE
        if zone_a == zone_b:
            return LinkClass.INTRA_ZONE
        region_a = _region_of(zone_a, zone_to_region)
        region_b = _region_of(zone_b, zone_to_region)
        if region_a == region_b:
            return LinkClass.INTER_ZONE
        return LinkClass.INTER_REGION

    def pair_link(self, node_a: NodeSpec, node_b: NodeSpec,
                  link_class: LinkClass) -> LinkSpec:
        """Effective link between two specific node types.

        For cross-node links the bandwidth is capped by the slower NIC; for
        intra-node links it is capped by the GPU interconnect.
        """
        base = self.links[link_class]
        if link_class is LinkClass.INTRA_NODE:
            gpu_bw = min(node_a.gpu.intra_node_bw_gbps, node_b.gpu.intra_node_bw_gbps) * 8.0
            return LinkSpec(bandwidth_gbps=min(base.bandwidth_gbps, gpu_bw),
                            latency_s=base.latency_s)
        nic_bw = min(node_a.nic_bw_gbps, node_b.nic_bw_gbps)
        return LinkSpec(bandwidth_gbps=min(base.bandwidth_gbps, nic_bw),
                        latency_s=base.latency_s)

    def p2p_time(self, message_bytes: float, node_a: NodeSpec, node_b: NodeSpec,
                 link_class: LinkClass) -> float:
        """Point-to-point transfer time for a message between two nodes."""
        return self.pair_link(node_a, node_b, link_class).transfer_time(message_bytes)

    def bandwidth_curve(self, node_a: NodeSpec, node_b: NodeSpec,
                        link_class: LinkClass,
                        message_sizes: list[float]) -> list[float]:
        """Achieved bandwidth (bytes/s) for each message size.

        This is what the network profiler "measures" (plus noise) and fits.
        """
        link = self.pair_link(node_a, node_b, link_class)
        return [link.effective_bandwidth(m) for m in message_sizes]


def _region_of(zone: str, zone_to_region: dict[str, str] | None) -> str:
    if zone_to_region is not None and zone in zone_to_region:
        return zone_to_region[zone]
    parts = zone.rsplit("-", 1)
    if len(parts) == 2 and len(parts[1]) <= 2:
        return parts[0]
    return zone
