"""Unit tests for the network link model."""

import pytest

from repro.hardware.network import (
    DEFAULT_LINKS,
    LinkClass,
    LinkSpec,
    NetworkModel,
)
from repro.hardware.nodes import get_node_type


def test_link_spec_transfer_time_includes_latency():
    link = LinkSpec(bandwidth_gbps=8.0, latency_s=0.001)  # 1 GB/s
    assert link.transfer_time(0) == 0.0
    assert link.transfer_time(1e9) == pytest.approx(0.001 + 1.0)


def test_link_spec_rejects_bad_values():
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_gbps=0, latency_s=0.001)
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_gbps=1, latency_s=-1)
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_gbps=1, latency_s=0).transfer_time(-5)


def test_effective_bandwidth_increases_with_message_size():
    link = DEFAULT_LINKS[LinkClass.INTER_ZONE]
    small = link.effective_bandwidth(4 * 1024)
    large = link.effective_bandwidth(256 * 1024 * 1024)
    assert small < large <= link.bandwidth_bytes_per_s


def test_default_link_classes_ordered_by_bandwidth():
    links = DEFAULT_LINKS
    assert (links[LinkClass.INTRA_NODE].bandwidth_gbps
            > links[LinkClass.INTRA_ZONE].bandwidth_gbps
            > links[LinkClass.INTER_ZONE].bandwidth_gbps
            > links[LinkClass.INTER_REGION].bandwidth_gbps)
    assert (links[LinkClass.INTRA_NODE].latency_s
            < links[LinkClass.INTER_REGION].latency_s)


def test_classify_zones():
    model = NetworkModel()
    assert model.classify("us-central1-a", "us-central1-a") is LinkClass.INTRA_ZONE
    assert model.classify("us-central1-a", "us-central1-b") is LinkClass.INTER_ZONE
    assert model.classify("us-central1-a", "us-west1-a") is LinkClass.INTER_REGION
    assert model.classify("us-central1-a", "us-central1-b",
                          same_node=True) is LinkClass.INTRA_NODE


def test_classify_with_explicit_region_map():
    model = NetworkModel()
    mapping = {"zoneA": "region1", "zoneB": "region1", "zoneC": "region2"}
    assert model.classify("zoneA", "zoneB", zone_to_region=mapping) is LinkClass.INTER_ZONE
    assert model.classify("zoneA", "zoneC", zone_to_region=mapping) is LinkClass.INTER_REGION


def test_pair_link_capped_by_nic():
    model = NetworkModel()
    a100 = get_node_type("a2-highgpu-4g")     # 100 Gbit NIC
    v100 = get_node_type("n1-standard-v100-4")  # 32 Gbit NIC
    link = model.pair_link(a100, v100, LinkClass.INTRA_ZONE)
    assert link.bandwidth_gbps == pytest.approx(32.0)
    same = model.pair_link(a100, a100, LinkClass.INTRA_ZONE)
    assert same.bandwidth_gbps == pytest.approx(100.0)


def test_intra_node_link_capped_by_gpu_interconnect():
    model = NetworkModel()
    a100 = get_node_type("a2-highgpu-4g")
    link = model.pair_link(a100, a100, LinkClass.INTRA_NODE)
    # 300 GB/s NVLink -> 2400 Gbit/s equals the default intra-node cap.
    assert link.bandwidth_gbps <= 2400.0


def test_p2p_time_and_bandwidth_curve():
    model = NetworkModel()
    a100 = get_node_type("a2-highgpu-4g")
    sizes = [2 ** i for i in range(12, 30, 2)]
    curve = model.bandwidth_curve(a100, a100, LinkClass.INTRA_ZONE, sizes)
    assert len(curve) == len(sizes)
    assert all(b > 0 for b in curve)
    assert curve == sorted(curve)  # monotone in message size
    assert model.p2p_time(0, a100, a100, LinkClass.INTRA_ZONE) == 0.0


def test_cross_zone_classes_flagged():
    assert LinkClass.INTER_ZONE.is_cross_zone
    assert LinkClass.INTER_REGION.is_cross_zone
    assert not LinkClass.INTRA_ZONE.is_cross_zone
    assert not LinkClass.INTRA_NODE.is_cross_zone
