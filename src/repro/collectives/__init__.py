"""Analytic timing models for collective communication.

Every function takes the message size, the number of participants and a
``transfer_time(message_bytes) -> seconds`` callable describing one
point-to-point transfer over the link the collective runs on (a
:class:`~repro.hardware.network.LinkSpec` bound method or a fitted
:class:`~repro.profiler.profiles.NetworkProfile`), so the same models work
for NVLink, intra-zone Ethernet and wide-area links.
"""

from repro.collectives.models import (
    TransferTimeFn,
    ring_allreduce_time,
    ring_allgather_time,
    ring_reduce_scatter_time,
    p2p_time,
    hierarchical_allreduce_time,
)

__all__ = [
    "TransferTimeFn",
    "ring_allreduce_time",
    "ring_allgather_time",
    "ring_reduce_scatter_time",
    "p2p_time",
    "hierarchical_allreduce_time",
]
