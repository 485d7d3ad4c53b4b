"""Shared fixtures for the test suite.

Environment construction (profiling every GPU type and fitting network
curves) is the most expensive part of a test, so commonly-used environments
are session-scoped.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.core import dp_solver
from repro.core.planner import SailorPlanner
from repro.core.simulator import SailorSimulator, build_environment
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
    """Switch single planner prunes off with test-side fakes.

    ``with disarm_prunes(gate=..., tail=..., family=...):`` plans inside the
    block never fire the chosen prunes.  ``DPSolverConfig.enable_pruning``
    is the only production switch; every prune is value-preserving, so the
    equivalence tests use these fakes to compare plans with one prune off.
    ``tail`` zeroes the branch's one candidate-floor array, so it also
    zeroes the family floor (no family skip fires) and the anytime gap
    bound.
    """
    @contextlib.contextmanager
    def disarm(*, gate: bool = False, tail: bool = False,
               family: bool = False):
        with pytest.MonkeyPatch.context() as mp:
            if gate:  # zero floors decide no constraint, beat no incumbent
                mp.setattr(SailorSimulator, "iteration_time_floor",
                           lambda self, plan: 0.0)
                mp.setattr(SailorSimulator, "cost_floor",
                           lambda self, plan: 0.0)
            if tail:  # a zero tail floor never reaches the incumbent
                mp.setattr(SailorPlanner, "_candidate_floor_available",
                           staticmethod(lambda *args: 0.0))
            if family:
                mp.setattr(SailorPlanner, "_family_dominated",
                           staticmethod(lambda *args: False))
            yield
    return disarm


@pytest.fixture
def engine_thresholds():
    """Move the DP solver's engine dispatch thresholds inside a block.

    ``with engine_thresholds(unconstrained, budget):`` sets
    ``ENGINE_MIN_STATES`` / ``ENGINE_MIN_STATES_BUDGET``; ``0`` forces the
    layered engine on every pool, ``None`` keeps the module default.  The
    thresholds are pure latency policy, so tests move them to compare
    regimes on the same pool.
    """
    @contextlib.contextmanager
    def thresholds(unconstrained: int | None = 0, budget: int | None = 0):
        with pytest.MonkeyPatch.context() as mp:
            if unconstrained is not None:
                mp.setattr(dp_solver, "ENGINE_MIN_STATES", unconstrained)
            if budget is not None:
                mp.setattr(dp_solver, "ENGINE_MIN_STATES_BUDGET", budget)
            yield
    return thresholds


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running integration test")
