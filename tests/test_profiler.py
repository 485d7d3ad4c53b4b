"""Unit tests for the simulated job and network profilers."""

import pytest

from repro.hardware.gpus import get_gpu
from repro.hardware.network import LinkClass, NetworkModel
from repro.hardware.nodes import get_node_type
from repro.models.catalog import get_model
from repro.models.spec import TrainingJobSpec
from repro.profiler.compute import ComputeProfiler, GPUEfficiencyModel
from repro.profiler.network import NetworkProfiler, fit_bandwidth_polynomial
from repro.profiler.profiles import ProfileStore


@pytest.fixture(scope="module")
def job():
    return TrainingJobSpec(model=get_model("OPT-350M"), global_batch_size=256)


@pytest.fixture(scope="module")
def a100_profile(job):
    return ComputeProfiler().profile(job, get_gpu("A100-40"),
                                     microbatch_sizes=[1, 2, 4],
                                     tensor_parallel_degrees=[1, 2, 4])


def test_profile_covers_requested_grid(a100_profile):
    assert a100_profile.microbatch_sizes() == [1, 2, 4]
    assert a100_profile.tensor_parallel_degrees() == [1, 2, 4]
    assert a100_profile.has(2, 2)
    assert not a100_profile.has(8, 1)
    with pytest.raises(KeyError):
        a100_profile.layer(8, 1)


def test_layer_times_positive_and_backward_longer(a100_profile):
    layer = a100_profile.layer(2, 1)
    assert layer.forward_s > 0
    assert layer.backward_s > layer.forward_s
    assert layer.update_s > 0
    assert layer.fwd_bwd_s == pytest.approx(layer.forward_s + layer.backward_s)


def test_larger_microbatch_takes_longer(a100_profile):
    assert a100_profile.layer(4, 1).forward_s > a100_profile.layer(1, 1).forward_s


def test_tensor_parallelism_reduces_time_but_not_linearly(a100_profile):
    tp1 = a100_profile.layer(4, 1).forward_s
    tp4 = a100_profile.layer(4, 4).forward_s
    assert tp4 < tp1
    assert tp4 > tp1 / 4  # collectives + efficiency loss


def test_faster_gpu_is_faster(job):
    profiler = ComputeProfiler()
    a100 = profiler.profile(job, get_gpu("A100-40"), [2], [1])
    v100 = profiler.profile(job, get_gpu("V100-16"), [2], [1])
    assert a100.layer(2, 1).fwd_bwd_s < v100.layer(2, 1).fwd_bwd_s


def test_activation_and_boundary_bytes_recorded(a100_profile, job):
    act = a100_profile.activations(2, 1)
    assert act > 0
    assert a100_profile.activations(2, 2) == pytest.approx(act / 2)
    assert a100_profile.boundary_bytes[2] == \
        job.model.boundary_activation_bytes(2, job.sequence_length)


def test_profiler_noise_changes_measurements_deterministically(job):
    noisy_a = ComputeProfiler(noise_std=0.05, seed=1).profile(
        job, get_gpu("A100-40"), [2], [1])
    noisy_b = ComputeProfiler(noise_std=0.05, seed=1).profile(
        job, get_gpu("A100-40"), [2], [1])
    clean = ComputeProfiler().profile(job, get_gpu("A100-40"), [2], [1])
    assert noisy_a.layer(2, 1).forward_s == noisy_b.layer(2, 1).forward_s
    assert noisy_a.layer(2, 1).forward_s != clean.layer(2, 1).forward_s


def test_efficiency_model_monotone_in_work():
    model = GPUEfficiencyModel()
    gpu = get_gpu("A100-40")
    small = model.achieved_flops(gpu, 1e6)
    large = model.achieved_flops(gpu, 1e12)
    assert small < large <= gpu.peak_flops
    assert model.compute_time(gpu, 0) == 0.0
    with pytest.raises(ValueError):
        model.achieved_flops(gpu, 1e9, tensor_parallel=0)


# -- network profiler --------------------------------------------------------------

def test_fit_bandwidth_polynomial_validation():
    with pytest.raises(ValueError):
        fit_bandwidth_polynomial([1.0, 2.0], [1.0], degree=1)
    with pytest.raises(ValueError):
        fit_bandwidth_polynomial([1.0, 2.0], [1.0, 2.0], degree=3)
    with pytest.raises(ValueError):
        fit_bandwidth_polynomial([0.0, 2.0, 4.0, 8.0, 16.0],
                                 [1.0, 2.0, 3.0, 4.0, 5.0], degree=2)


def test_network_profile_fit_matches_ground_truth():
    network = NetworkModel()
    profiler = NetworkProfiler(network)
    a100 = get_node_type("a2-highgpu-4g")
    profile = profiler.profile_pair(a100, a100, LinkClass.INTRA_ZONE)
    link = network.pair_link(a100, a100, LinkClass.INTRA_ZONE)
    # The fit is tight for the message sizes training actually uses (>= 1 MiB
    # activation/gradient tensors); the latency-bound tail is looser.
    for message in (1e6, 16e6, 64e6, 5e8):
        predicted = profile.transfer_time(message)
        truth = link.transfer_time(message)
        assert predicted == pytest.approx(truth, rel=0.1)
    assert profile.transfer_time(1e5) == pytest.approx(link.transfer_time(1e5),
                                                       rel=0.4)
    assert profile.transfer_time(0) == 0.0


def test_profile_all_pairs_populates_store():
    network = NetworkModel()
    profiler = NetworkProfiler(network)
    nodes = [get_node_type("a2-highgpu-4g"), get_node_type("n1-standard-v100-4")]
    store = profiler.profile_all_pairs(nodes)
    assert isinstance(store, ProfileStore)
    # Cross-type pair exists for every cross-node link class, both orderings.
    for link_class in (LinkClass.INTRA_ZONE, LinkClass.INTER_ZONE,
                       LinkClass.INTER_REGION):
        profile = store.network_profile("a2-highgpu-4g", "n1-standard-v100-4",
                                        link_class)
        reverse = store.network_profile("n1-standard-v100-4", "a2-highgpu-4g",
                                        link_class)
        assert profile is reverse
    with pytest.raises(KeyError):
        store.network_profile("a2-highgpu-4g", "gh200-4g", LinkClass.INTRA_ZONE)


def test_inter_region_slower_than_intra_zone_in_fitted_profiles():
    network = NetworkModel()
    profiler = NetworkProfiler(network)
    a100 = get_node_type("a2-highgpu-4g")
    intra = profiler.profile_pair(a100, a100, LinkClass.INTRA_ZONE)
    inter = profiler.profile_pair(a100, a100, LinkClass.INTER_REGION)
    assert inter.transfer_time(64e6) > intra.transfer_time(64e6)
