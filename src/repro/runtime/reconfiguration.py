"""Kill-free reconfiguration latency model.

Section 5.5 of the paper breaks down Sailor's reconfiguration time on a
16-V100 cluster when 4 GPUs are added:

===========================  ========
planning                       0.10 s
process cleanup                3.00 s
topology broadcast (gRPC)      1.25 s
NCCL group re-initialisation   4.50 s
model + optimizer redefinition 2.00 s
dataloader redefinition        0.50 s
===========================  ========

The model below reproduces those constants at the reference scale (20
workers) and scales the collective-sensitive parts with the worker count
(NCCL initialisation is known to take minutes at thousands of GPUs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


#: Worker count of the paper's measurement (16 + 4 V100 GPUs).
REFERENCE_WORKERS = 20


@dataclass(frozen=True)
class ReconfigurationBreakdown:
    """Per-phase latency of one reconfiguration, in seconds."""

    planning_s: float
    cleanup_s: float
    broadcast_s: float
    nccl_init_s: float
    model_init_s: float
    dataloader_s: float

    @property
    def total_s(self) -> float:
        """End-to-end reconfiguration latency."""
        return (self.planning_s + self.cleanup_s + self.broadcast_s
                + self.nccl_init_s + self.model_init_s + self.dataloader_s)

    def as_dict(self) -> dict[str, float]:
        """Phase name -> seconds (used by the reconfiguration experiment)."""
        return {
            "planning": self.planning_s,
            "cleanup": self.cleanup_s,
            "broadcast": self.broadcast_s,
            "nccl_init": self.nccl_init_s,
            "model_init": self.model_init_s,
            "dataloader": self.dataloader_s,
        }


@dataclass
class ReconfigurationModel:
    """Scales the section-5.5 phase latencies with the cluster size."""

    planning_s: float = 0.1
    cleanup_s: float = 3.0
    broadcast_s: float = 1.25
    nccl_init_s: float = 4.5
    model_init_s: float = 2.0
    dataloader_s: float = 0.5
    #: Exponent controlling how NCCL/broadcast latency grows with workers.
    scale_exponent: float = 1.0

    def breakdown(self, num_workers: int) -> ReconfigurationBreakdown:
        """Latency breakdown for a cluster of ``num_workers`` GPUs.

        Planning is charged at the constant ``planning_s``, never the
        measured planner latency, so the same reconfiguration always costs
        the same pause.
        """
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        scale = (num_workers / REFERENCE_WORKERS) ** self.scale_exponent
        scale = max(scale, 0.25)
        log_scale = max(0.5, math.log2(max(2, num_workers))
                        / math.log2(REFERENCE_WORKERS))
        return ReconfigurationBreakdown(
            planning_s=self.planning_s,
            cleanup_s=self.cleanup_s,
            broadcast_s=self.broadcast_s * log_scale,
            nccl_init_s=self.nccl_init_s * scale,
            model_init_s=self.model_init_s,
            dataloader_s=self.dataloader_s,
        )
