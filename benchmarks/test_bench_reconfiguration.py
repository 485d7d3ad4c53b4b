"""Benchmark regenerating Section 5.5: reconfiguration overhead breakdown.

Runs the corresponding experiment harness (``repro.experiments.reconfiguration``) once
and prints the table the paper reports.

Also replays seeded fault traces through the replanning controller and
pins each replay's decisions and reuse exactly: a replay is a
deterministic function of its trace, so a cold search context, a
thrashing policy or a rollback storm fails here on any machine.
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


#: ``ChurnReport`` counters the replay tests pin, in pin order.
CHURN_FIELDS = ("events_dropped", "replans", "replans_warm", "shrinks",
                "parks", "keeps", "switches", "cache_hits", "solve_memo_hits",
                "iterations_completed", "iterations_lost_to_rollback")


def replay_churn(env, job, base, num_events, duration_s, seed=0):
    trace = FaultScenarioGenerator(seed=seed).churn_trace(
        CHURN_POOLS, duration_s=duration_s, num_events=num_events)
    replayer = ChurnReplayer(env, job, Objective.max_throughput())
    return replayer.run(trace, base_topology=base)


def test_bench_reconfiguration(bench_scale):
    table = run_experiment("reconfiguration", bench_scale)
    assert table.rows


def churn_work(report) -> dict:
    """The pinned counters of one replay, plus its reconfiguration
    overhead to four decimals."""
    work = {name: getattr(report, name) for name in CHURN_FIELDS}
    work["overhead"] = round(report.reconfiguration_overhead_fraction, 4)
    return work


def pinned_churn(*values) -> dict:
    return dict(zip(CHURN_FIELDS + ("overhead",), values, strict=True))


def test_bench_churn_replay_smoke():
    """120 events over 2 h: no event is dropped and the incremental
    search context answers replans warm."""
    job, base, env = churn_setup()
    report = replay_churn(env, job, base, num_events=120,
                          duration_s=2 * 3600.0)
    assert report.events_dropped == 0
    assert report.cache_hits > 0
    assert report.replans_warm > 0
    assert churn_work(report) == pinned_churn(
        0, 89, 88, 22, 1, 22, 51, 55_763, 1_389, 4_986, 245, 0.1857)


def test_bench_planner_churn_1000_events():
    """Sustained replanning under heavy churn: 1000 events over 8 h.

    1000 events in 8 h is one fault every ~29 s, far past realistic spot
    churn; the throughput lost to reconfiguration -- pauses plus training
    redone after rollbacks -- must stay bounded.  A thrashing policy
    (switching on every flap) or a rollback storm blows well past 0.50."""
    job, base, env = churn_setup()
    report = replay_churn(env, job, base, num_events=1000,
                          duration_s=8 * 3600.0)
    print()
    print(report.describe())
    assert report.events_total == 1000
    assert report.reconfiguration_overhead_fraction < 0.50
    assert churn_work(report) == pinned_churn(
        0, 767, 757, 177, 10, 217, 416, 193_921, 22_246, 18_031, 2_425,
        0.3724)
