"""Hardware and cloud substrate: GPUs, nodes, networks, pricing, topology.

This package models everything the Sailor planner treats as "the cluster":

* :mod:`repro.hardware.gpus` -- GPU spec catalog (A100, V100, GH200, ...).
* :mod:`repro.hardware.nodes` -- node (VM / machine) specs grouping GPUs.
* :mod:`repro.hardware.network` -- link classes and bandwidth models.
* :mod:`repro.hardware.pricing` -- per-GPU-hour and egress pricing.
* :mod:`repro.hardware.topology` -- regions and cluster topologies.
* :mod:`repro.hardware.availability` -- dynamic availability traces (Fig. 2).
"""

from repro.hardware.gpus import GPUSpec, get_gpu, list_gpus, register_gpu
from repro.hardware.nodes import NodeSpec, get_node_type, list_node_types, register_node_type
from repro.hardware.network import LinkClass, LinkSpec, NetworkModel
from repro.hardware.pricing import PriceCatalog, default_price_catalog
from repro.hardware.topology import Region, ClusterTopology, default_cloud_layout
from repro.hardware.availability import AvailabilityTrace, AvailabilityTraceGenerator

__all__ = [
    "GPUSpec",
    "get_gpu",
    "list_gpus",
    "register_gpu",
    "NodeSpec",
    "get_node_type",
    "list_node_types",
    "register_node_type",
    "LinkClass",
    "LinkSpec",
    "NetworkModel",
    "PriceCatalog",
    "default_price_catalog",
    "Region",
    "ClusterTopology",
    "default_cloud_layout",
    "AvailabilityTrace",
    "AvailabilityTraceGenerator",
]
