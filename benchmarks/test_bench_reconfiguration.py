"""Benchmark regenerating Section 5.5: reconfiguration overhead breakdown.

Runs the corresponding experiment harness (``repro.experiments.reconfiguration``) once
and prints the table the paper reports.  See EXPERIMENTS.md for the recorded
paper-vs-measured comparison.

Also benchmarks the churn replay loop end-to-end: a seeded fault trace is
replayed through the replanning controller, measuring sustained replanning
throughput (plans/s), tail replan latency, and how much of the solve work
the incremental search context absorbs.
"""

from conftest import run_experiment

from repro.core.objectives import Objective
from repro.core.simulator import build_environment
from repro.hardware.topology import ClusterTopology
from repro.models.catalog import get_model
from repro.models.spec import TrainingJobSpec
from repro.runtime.faults import FaultScenarioGenerator
from repro.runtime.replay import ChurnReplayer

CHURN_POOLS = {("us-central1-a", "a2-highgpu-4g"): 4,
               ("us-central1-a", "n1-standard-v100-4"): 4,
               ("us-central1-b", "a2-highgpu-4g"): 2}


def churn_setup():
    job = TrainingJobSpec(model=get_model("OPT-350M"), global_batch_size=256)
    base = ClusterTopology(nodes={
        "us-central1-a": {"a2-highgpu-4g": 4, "n1-standard-v100-4": 4},
        "us-central1-b": {"a2-highgpu-4g": 2},
    })
    env = build_environment(job, base, seed=7)
    return job, base, env


def replay_churn(env, job, base, num_events, duration_s, seed=0):
    trace = FaultScenarioGenerator(seed=seed).churn_trace(
        CHURN_POOLS, duration_s=duration_s, num_events=num_events)
    replayer = ChurnReplayer(env, job, Objective.max_throughput())
    return replayer.run(trace, base_topology=base)


def test_bench_reconfiguration(benchmark, bench_scale):
    table = run_experiment(benchmark, "reconfiguration", bench_scale)
    assert table.rows


def test_bench_churn_replay_smoke(benchmark):
    """`make ci` acceptance bar: a short seeded churn trace must replay with
    zero dropped events and the incremental context must actually get hits."""
    job, base, env = churn_setup()
    report = benchmark.pedantic(
        lambda: replay_churn(env, job, base, num_events=120,
                             duration_s=2 * 3600.0),
        rounds=1, iterations=1)
    assert report.events_dropped == 0
    assert report.cache_hits > 0
    assert report.replans_warm > 0


def test_bench_planner_churn_1000_events(benchmark):
    """Sustained replanning under heavy churn: 1000 events over three pools.

    The recorded metric is the whole replay's wall time; the derived
    replanning throughput, tail replan latency, and warm-replan fraction
    are printed alongside so BENCH_history picks up a comparable point.
    "bench_planner" in the name puts this under compare_bench's default
    regression gate; `make ci`'s smoke filter excludes it (``not 1000``).
    """
    job, base, env = churn_setup()
    report = benchmark.pedantic(
        lambda: replay_churn(env, job, base, num_events=1000,
                             duration_s=8 * 3600.0),
        rounds=1, iterations=1)
    assert report.events_total == 1000
    assert report.events_dropped == 0
    assert report.replans_warm > 0
    print()
    print(f"replans:            {report.replans}")
    print(f"plans/s:            {report.plans_per_s:.1f}")
    print(f"replan p50 latency: {report.p50_replan_latency_s * 1e3:.1f} ms")
    print(f"replan p99 latency: {report.p99_replan_latency_s * 1e3:.1f} ms")
    print(f"warm replans:       {report.percent_replans_warm:.0%}"
          f" ({report.cache_hits} cache hits)")
    print(f"shrinks/parks:      {report.shrinks}/{report.parks}")
    print(f"reconfig overhead:  "
          f"{report.reconfiguration_overhead_fraction:.2%} of productive "
          f"time ({report.reconfiguration_time_s:.0f}s pauses + "
          f"{report.rollback_lost_time_s:.0f}s redone after rollback)")
    # Steady-state acceptance bar: under heavy churn (1000 events / 8h is
    # one fault every ~29s, far past realistic spot churn) the replanning
    # stack must keep the throughput lost to reconfiguration -- pauses plus
    # training redone after rollbacks -- bounded.  The deterministic replay
    # measures ~37% on this trace; a thrashing policy (switching on every
    # flap) or a rollback storm blows well past this loose bound.
    assert report.reconfiguration_overhead_fraction < 0.50
