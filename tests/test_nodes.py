"""Unit tests for the node-type catalog."""

import pytest

from repro.hardware.gpus import get_gpu
from repro.hardware.nodes import (
    NodeSpec,
    get_node_type,
    list_node_types,
    register_node_type,
)


def test_catalog_contains_paper_node_types():
    for name in ("a2-highgpu-4g", "n1-standard-v100-4", "gh200-4g",
                 "titan-rtx-8g", "rtx-2080-8g", "rtx-3090-8g"):
        assert get_node_type(name).name == name


def test_a2_node_properties():
    node = get_node_type("a2-highgpu-4g")
    assert node.gpu.name == "A100-40"
    assert node.gpus_per_node == 4
    assert node.total_memory_gb == pytest.approx(160.0)
    assert node.valid_tp_degrees == (1, 2, 4)


def test_8gpu_node_tp_degrees_are_powers_of_two():
    node = get_node_type("titan-rtx-8g")
    assert node.valid_tp_degrees == (1, 2, 4, 8)


def test_invalid_node_specs_rejected():
    with pytest.raises(ValueError):
        NodeSpec(name="bad", gpu=get_gpu("A100-40"), gpus_per_node=0,
                 nic_bw_gbps=100)
    with pytest.raises(ValueError):
        NodeSpec(name="bad", gpu=get_gpu("A100-40"), gpus_per_node=4,
                 nic_bw_gbps=0)


def test_register_node_type_conflict():
    node = NodeSpec(name="test-node-1", gpu=get_gpu("T4-16"), gpus_per_node=2,
                    nic_bw_gbps=10)
    register_node_type(node)
    other = NodeSpec(name="test-node-1", gpu=get_gpu("T4-16"), gpus_per_node=4,
                     nic_bw_gbps=10)
    with pytest.raises(ValueError):
        register_node_type(other)


def test_list_node_types_sorted():
    names = [n.name for n in list_node_types()]
    assert names == sorted(names)
