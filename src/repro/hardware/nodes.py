"""Node (VM / machine) type catalog.

A node groups several GPUs of one type behind a shared NIC.  The planner
allocates whole nodes (the paper evaluates with 4-GPU and 8-GPU VMs), so
the node type determines the tensor-parallel degrees available without
crossing node boundaries (heuristic H1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.gpus import GPUSpec, get_gpu


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one node (VM or bare-metal machine) type.

    Attributes
    ----------
    name:
        Canonical identifier, e.g. ``"a2-highgpu-4g"``.
    gpu:
        The GPU spec of every accelerator on the node.
    gpus_per_node:
        Number of GPUs per node (tensor parallelism is capped here by H1).
    nic_bw_gbps:
        Per-node NIC bandwidth in Gbit/s (converted by the network model).
    cpu_gpu_bw_gbps:
        Host-to-device bandwidth in GB/s; affects checkpoint and offload
        modelling in the runtime.
    """

    name: str
    gpu: GPUSpec
    gpus_per_node: int
    nic_bw_gbps: float
    cpu_gpu_bw_gbps: float = 16.0

    def __post_init__(self) -> None:
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")
        if self.nic_bw_gbps <= 0:
            raise ValueError("nic_bw_gbps must be positive")

    @property
    def total_memory_gb(self) -> float:
        """Aggregate GPU memory on the node in GiB."""
        return self.gpu.memory_gb * self.gpus_per_node

    @property
    def valid_tp_degrees(self) -> tuple[int, ...]:
        """Tensor-parallel degrees that fit on this node (powers of two)."""
        degrees = []
        d = 1
        while d <= self.gpus_per_node:
            degrees.append(d)
            d *= 2
        return tuple(degrees)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}({self.gpus_per_node}x{self.gpu.name})"


_REGISTRY: dict[str, NodeSpec] = {}


def register_node_type(spec: NodeSpec, *, overwrite: bool = False) -> NodeSpec:
    """Add a node type to the global catalog."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing != spec and not overwrite:
        raise ValueError(f"node type {spec.name!r} already registered with different spec")
    _REGISTRY[spec.name] = spec
    return spec


def get_node_type(name: str) -> NodeSpec:
    """Look up a node type by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown node type {name!r}; known types: {known}") from None


def list_node_types() -> list[NodeSpec]:
    """Return all registered node types, sorted by name."""
    return [spec for _, spec in sorted(_REGISTRY.items())]


# ---------------------------------------------------------------------------
# Built-in catalog mirroring the paper's evaluation machines.
# ---------------------------------------------------------------------------

A2_HIGHGPU_4G = register_node_type(NodeSpec(
    name="a2-highgpu-4g",
    gpu=get_gpu("A100-40"),
    gpus_per_node=4,
    nic_bw_gbps=100.0,
))

A2_HIGHGPU_8G = register_node_type(NodeSpec(
    name="a2-highgpu-8g",
    gpu=get_gpu("A100-40"),
    gpus_per_node=8,
    nic_bw_gbps=100.0,
))

N1_V100_4 = register_node_type(NodeSpec(
    name="n1-standard-v100-4",
    gpu=get_gpu("V100-16"),
    gpus_per_node=4,
    nic_bw_gbps=32.0,
))

N1_V100_8 = register_node_type(NodeSpec(
    name="n1-standard-v100-8",
    gpu=get_gpu("V100-16"),
    gpus_per_node=8,
    nic_bw_gbps=32.0,
))

GH200_NODE = register_node_type(NodeSpec(
    name="gh200-4g",
    gpu=get_gpu("GH200-96"),
    gpus_per_node=4,
    nic_bw_gbps=200.0,
    cpu_gpu_bw_gbps=450.0,
))

TITAN_RTX_NODE = register_node_type(NodeSpec(
    name="titan-rtx-8g",
    gpu=get_gpu("TitanRTX-24"),
    gpus_per_node=8,
    nic_bw_gbps=25.0,
))

RTX_2080_NODE = register_node_type(NodeSpec(
    name="rtx-2080-8g",
    gpu=get_gpu("RTX2080-11"),
    gpus_per_node=8,
    nic_bw_gbps=10.0,
))

RTX_3090_NODE = register_node_type(NodeSpec(
    name="rtx-3090-8g",
    gpu=get_gpu("RTX3090-24"),
    gpus_per_node=8,
    nic_bw_gbps=40.0,
))

H100_NODE = register_node_type(NodeSpec(
    name="h100-8g",
    gpu=get_gpu("H100-80"),
    gpus_per_node=8,
    nic_bw_gbps=400.0,
))
