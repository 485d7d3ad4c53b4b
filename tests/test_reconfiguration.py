"""Unit tests for the reconfiguration latency model."""

import pytest

from repro.runtime.reconfiguration import (
    REFERENCE_WORKERS,
    ReconfigurationModel,
    ReconfigurationBreakdown,
)


def test_reference_scale_matches_paper_numbers():
    model = ReconfigurationModel()
    breakdown = model.breakdown(REFERENCE_WORKERS)
    assert breakdown.planning_s == pytest.approx(0.1)
    assert breakdown.cleanup_s == pytest.approx(3.0)
    assert breakdown.broadcast_s == pytest.approx(1.25)
    assert breakdown.nccl_init_s == pytest.approx(4.5)
    assert breakdown.model_init_s == pytest.approx(2.0)
    assert breakdown.dataloader_s == pytest.approx(0.5)
    assert breakdown.total_s == pytest.approx(0.1 + 3.0 + 1.25 + 4.5 + 2.0 + 0.5)


def test_nccl_init_grows_with_cluster_size():
    model = ReconfigurationModel()
    small = model.breakdown(REFERENCE_WORKERS)
    large = model.breakdown(1024)
    assert large.nccl_init_s > 10 * small.nccl_init_s
    assert large.total_s > small.total_s
    assert large.cleanup_s == small.cleanup_s  # per-worker local work


def test_breakdown_as_dict_and_validation():
    model = ReconfigurationModel()
    breakdown = model.breakdown(40)
    phases = breakdown.as_dict()
    assert set(phases) == {"planning", "cleanup", "broadcast", "nccl_init",
                           "model_init", "dataloader"}
    assert breakdown.total_s == pytest.approx(sum(phases.values()))
    with pytest.raises(ValueError):
        model.breakdown(0)


def test_breakdown_total_property():
    breakdown = ReconfigurationBreakdown(1, 2, 3, 4, 5, 6)
    assert breakdown.total_s == 21
