"""Shared fixtures for the test suite.

Environment construction (profiling every GPU type and fitting network
curves) is the most expensive part of a test, so commonly-used environments
are session-scoped.
"""

from __future__ import annotations

import contextlib

import pytest

import exhaustive_oracle
from repro.core import dp_solver
from repro.core.simulator import build_environment
from repro.hardware.topology import ClusterTopology
from repro.models.catalog import get_model
from repro.models.spec import TrainingJobSpec


@pytest.fixture(scope="session")
def opt_job() -> TrainingJobSpec:
    """OPT-350M with a small global batch (fast simulations)."""
    return TrainingJobSpec(model=get_model("OPT-350M"), global_batch_size=256,
                           sequence_length=2048)


@pytest.fixture(scope="session")
def neo_job() -> TrainingJobSpec:
    """GPT-Neo-2.7B with a small global batch."""
    return TrainingJobSpec(model=get_model("GPT-Neo-2.7B"), global_batch_size=256,
                           sequence_length=2048)


@pytest.fixture(scope="session")
def a100_topology() -> ClusterTopology:
    """8 nodes x 4 A100 in one zone."""
    return ClusterTopology.homogeneous("a2-highgpu-4g", 8)


@pytest.fixture(scope="session")
def mixed_topology() -> ClusterTopology:
    """4 A100 nodes + 4 V100 nodes in one zone."""
    return ClusterTopology.single_zone(
        "us-central1-a", {"a2-highgpu-4g": 4, "n1-standard-v100-4": 4})


@pytest.fixture(scope="session")
def geo_topology_2regions() -> ClusterTopology:
    """A100 nodes spread over two zones of two regions."""
    return ClusterTopology(nodes={
        "us-central1-a": {"a2-highgpu-4g": 2},
        "us-central1-b": {"a2-highgpu-4g": 2},
        "us-west1-a": {"a2-highgpu-4g": 2},
    })


@pytest.fixture(scope="session")
def opt_env(opt_job, mixed_topology):
    """Environment profiled for OPT-350M over A100 + V100 node types."""
    return build_environment(opt_job, mixed_topology, seed=7)


@pytest.fixture(scope="session")
def opt_env_geo(opt_job, geo_topology_2regions):
    """Environment profiled for OPT-350M over the geo-distributed topology."""
    return build_environment(opt_job, geo_topology_2regions, seed=11)


@pytest.fixture(scope="session")
def neo_env(neo_job, mixed_topology):
    """Environment profiled for GPT-Neo-2.7B over A100 + V100 node types."""
    return build_environment(neo_job, mixed_topology, seed=13)


@pytest.fixture
def disarm_prunes():
    """``with disarm_prunes(tail=..., family=...):`` plans inside
    the block never fire the chosen prunes (``exhaustive_oracle``).  Every
    prune is value-preserving, so the equivalence tests compare plans with
    one prune off."""
    return exhaustive_oracle.disarm_prunes


@pytest.fixture
def engine_thresholds():
    """Move the DP solver's unconstrained engine dispatch threshold.

    ``with engine_thresholds(threshold):`` sets ``ENGINE_MIN_STATES``;
    ``0`` (the default) forces the layered engine on every pool.  Budgeted
    solves always run on the engine.  The threshold is pure latency
    policy, so tests move it to compare regimes on the same pool.
    """
    @contextlib.contextmanager
    def thresholds(threshold: int = 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dp_solver, "ENGINE_MIN_STATES", threshold)
            yield
    return thresholds


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running integration test")
