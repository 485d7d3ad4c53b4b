"""Unit tests for the collective-communication timing models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import (
    hierarchical_allreduce_time,
    p2p_time,
    ring_allgather_time,
    ring_allreduce_time,
    ring_reduce_scatter_time,
)
from repro.hardware.network import LinkSpec


LINK = LinkSpec(bandwidth_gbps=80.0, latency_s=10e-6)  # 10 GB/s
SLOW = LinkSpec(bandwidth_gbps=8.0, latency_s=1e-3)    # 1 GB/s


def test_single_participant_costs_nothing():
    assert ring_allreduce_time(1e9, 1, LINK.transfer_time) == 0.0
    assert ring_allgather_time(1e9, 1, LINK.transfer_time) == 0.0
    assert ring_reduce_scatter_time(1e9, 1, LINK.transfer_time) == 0.0


def test_zero_bytes_costs_nothing():
    assert ring_allreduce_time(0, 8, LINK.transfer_time) == 0.0
    assert p2p_time(0, LINK.transfer_time) == 0.0


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        ring_allreduce_time(-1, 2, LINK.transfer_time)
    with pytest.raises(ValueError):
        ring_allreduce_time(10, 0, LINK.transfer_time)
    with pytest.raises(ValueError):
        p2p_time(-1, LINK.transfer_time)
    with pytest.raises(ValueError):
        hierarchical_allreduce_time(10, [], LINK.transfer_time, LINK.transfer_time)


def test_allreduce_close_to_2x_bandwidth_bound_for_large_messages():
    message = 1e9  # 1 GB over 10 GB/s: lower bound 0.2 s for the 2(n-1)/n factor
    t = ring_allreduce_time(message, 8, LINK.transfer_time)
    assert t == pytest.approx(2 * (8 - 1) / 8 * message / 10e9, rel=0.05)


def test_allreduce_equals_reduce_scatter_plus_allgather():
    message = 256e6
    total = ring_allreduce_time(message, 4, LINK.transfer_time)
    rs = ring_reduce_scatter_time(message, 4, LINK.transfer_time)
    ag = ring_allgather_time(message, 4, LINK.transfer_time)
    assert total == pytest.approx(rs + ag)


def test_slower_link_takes_longer():
    assert ring_allreduce_time(1e8, 4, SLOW.transfer_time) > \
        ring_allreduce_time(1e8, 4, LINK.transfer_time)


def test_hierarchical_reduces_to_flat_ring_for_one_group():
    message = 64e6
    flat = ring_allreduce_time(message, 8, LINK.transfer_time)
    hier = hierarchical_allreduce_time(message, [8], LINK.transfer_time,
                                       SLOW.transfer_time)
    assert hier == pytest.approx(flat)


def test_hierarchical_bounded_by_slow_inter_group_link():
    message = 64e6
    hier = hierarchical_allreduce_time(message, [4, 4], LINK.transfer_time,
                                       SLOW.transfer_time)
    leaders_only = ring_allreduce_time(message, 2, SLOW.transfer_time)
    assert hier > leaders_only  # includes the local phases too


@settings(max_examples=50, deadline=None)
@given(message=st.floats(1e3, 1e9), participants=st.integers(2, 64))
def test_allreduce_monotone_in_message_size(message, participants):
    """All-reduce time is positive and grows with the message size."""
    t1 = ring_allreduce_time(message, participants, LINK.transfer_time)
    t2 = ring_allreduce_time(message * 2, participants, LINK.transfer_time)
    assert t1 > 0
    assert t2 > t1


@settings(max_examples=50, deadline=None)
@given(groups=st.lists(st.integers(1, 8), min_size=1, max_size=6),
       message=st.floats(1e4, 1e8))
def test_hierarchical_allreduce_property(groups, message):
    """Hierarchical all-reduce over any grouping is non-negative and finite."""
    t = hierarchical_allreduce_time(message, groups, LINK.transfer_time,
                                    SLOW.transfer_time)
    assert t >= 0.0
    if sum(groups) > 1 and message > 0:
        assert t > 0.0
