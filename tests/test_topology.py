"""Unit tests for cluster topologies."""

import pytest

from repro.hardware.network import LinkClass
from repro.hardware.topology import ClusterTopology


def make_topology() -> ClusterTopology:
    return ClusterTopology(nodes={
        "us-central1-a": {"a2-highgpu-4g": 4, "n1-standard-v100-4": 2},
        "us-central1-b": {"a2-highgpu-4g": 2},
        "us-west1-a": {"a2-highgpu-4g": 1},
    })


def test_zone_and_region_queries():
    topo = make_topology()
    assert topo.zones == ["us-central1-a", "us-central1-b", "us-west1-a"]
    assert topo.regions == ["us-central1", "us-west1"]
    assert topo.zones_in_region("us-central1") == ["us-central1-a", "us-central1-b"]
    assert topo.region_of("us-west1-a") == "us-west1"


def test_gpu_counting():
    topo = make_topology()
    assert topo.node_count("us-central1-a", "a2-highgpu-4g") == 4
    assert topo.gpu_count(zone="us-central1-a") == 4 * 4 + 2 * 4
    assert topo.gpu_count(gpu_type="A100-40") == (4 + 2 + 1) * 4
    assert topo.total_gpus() == 36
    assert topo.gpus_by_type() == {"A100-40": 28, "V100-16": 8}
    assert topo.gpu_types() == ["A100-40", "V100-16"]


def test_link_class_between_zones():
    topo = make_topology()
    assert topo.link_class("us-central1-a", "us-central1-a") is LinkClass.INTRA_ZONE
    assert topo.link_class("us-central1-a", "us-central1-b") is LinkClass.INTER_ZONE
    assert topo.link_class("us-central1-a", "us-west1-a") is LinkClass.INTER_REGION


def test_restrict_and_merge():
    topo = make_topology()
    a100_only = topo.restricted_to_gpu("A100-40")
    assert a100_only.gpus_by_type() == {"A100-40": 28}
    central = topo.restricted_to_zones(["us-central1-a"])
    assert central.zones == ["us-central1-a"]
    merged = a100_only.merge(central)
    assert merged.node_count("us-central1-a", "a2-highgpu-4g") == 8


def test_with_nodes_and_homogeneous_constructors():
    topo = ClusterTopology.homogeneous("a2-highgpu-4g", 3, zone="us-central1-a")
    assert topo.total_gpus() == 12
    grown = topo.with_nodes("us-central1-a", "a2-highgpu-4g", 5)
    assert grown.total_gpus() == 20
    assert topo.total_gpus() == 12  # original untouched


def test_negative_node_count_rejected():
    with pytest.raises(ValueError):
        ClusterTopology(nodes={"us-central1-a": {"a2-highgpu-4g": -1}})


def test_unknown_node_type_rejected():
    with pytest.raises(KeyError):
        ClusterTopology(nodes={"us-central1-a": {"no-such-node": 1}})


def test_describe_mentions_every_zone():
    topo = make_topology()
    text = topo.describe()
    for zone in topo.zones:
        assert zone in text
    assert ClusterTopology().describe() == "(empty topology)"
