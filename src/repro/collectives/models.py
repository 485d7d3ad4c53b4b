"""Ring-based collective timing models (NCCL-style)."""

from __future__ import annotations

from typing import Callable


#: Signature of a point-to-point transfer time function.
TransferTimeFn = Callable[[float], float]


def _validate(message_bytes: float, participants: int) -> None:
    if message_bytes < 0:
        raise ValueError("message_bytes must be non-negative")
    if participants < 1:
        raise ValueError("participants must be >= 1")


def p2p_time(message_bytes: float, transfer_time: TransferTimeFn) -> float:
    """Time for a single point-to-point transfer."""
    if message_bytes < 0:
        raise ValueError("message_bytes must be non-negative")
    if message_bytes == 0:
        return 0.0
    return transfer_time(message_bytes)


def ring_allreduce_time(message_bytes: float, participants: int,
                        transfer_time: TransferTimeFn) -> float:
    """Ring all-reduce: reduce-scatter followed by all-gather.

    Each of the ``2 * (n - 1)`` steps moves a ``1/n`` chunk of the buffer, so
    the total bytes on the wire per rank are ``2 * (n-1)/n * message_bytes``.
    """
    _validate(message_bytes, participants)
    if participants == 1 or message_bytes == 0:
        return 0.0
    chunk = message_bytes / participants
    steps = 2 * (participants - 1)
    return steps * transfer_time(chunk)


def ring_reduce_scatter_time(message_bytes: float, participants: int,
                             transfer_time: TransferTimeFn) -> float:
    """Ring reduce-scatter: ``n - 1`` steps of ``1/n`` chunks."""
    _validate(message_bytes, participants)
    if participants == 1 or message_bytes == 0:
        return 0.0
    chunk = message_bytes / participants
    return (participants - 1) * transfer_time(chunk)


def ring_allgather_time(message_bytes: float, participants: int,
                        transfer_time: TransferTimeFn) -> float:
    """Ring all-gather: ``n - 1`` steps of ``1/n`` chunks."""
    _validate(message_bytes, participants)
    if participants == 1 or message_bytes == 0:
        return 0.0
    chunk = message_bytes / participants
    return (participants - 1) * transfer_time(chunk)


def hierarchical_allreduce_time(message_bytes: float,
                                groups: list[int],
                                intra_transfer_time: TransferTimeFn,
                                inter_transfer_time: TransferTimeFn) -> float:
    """Two-level all-reduce: reduce within groups, all-reduce across leaders.

    ``groups`` lists the number of ranks inside each group (e.g. GPUs per
    node for every participating node).  The slowest intra-group
    reduce-scatter/all-gather bounds the local phases, and the leaders run a
    ring all-reduce over the inter-group link.  This is how data-parallel
    gradient synchronisation behaves when replicas span multiple nodes or
    zones.
    """
    if message_bytes < 0:
        raise ValueError("message_bytes must be non-negative")
    if not groups or any(g < 1 for g in groups):
        raise ValueError("groups must be a non-empty list of positive sizes")
    if message_bytes == 0:
        return 0.0
    if len(groups) == 1:
        return ring_allreduce_time(message_bytes, groups[0], intra_transfer_time)

    local_rs = max(ring_reduce_scatter_time(message_bytes, g, intra_transfer_time)
                   for g in groups)
    leaders = ring_allreduce_time(message_bytes, len(groups), inter_transfer_time)
    local_ag = max(ring_allgather_time(message_bytes, g, intra_transfer_time)
                   for g in groups)
    return local_rs + leaders + local_ag
