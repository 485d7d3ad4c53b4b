#!/usr/bin/env python3
"""Elastic training on spot capacity.

Scenario: you train OPT-350M on spot V100 nodes whose availability changes
every few minutes (Figure 2 / section 4.4 of the paper).  The Sailor
controller re-plans on every availability change, reconfigures the job
kill-free, and resumes from the latest asynchronous checkpoint after
preemptions.  This example replays a 4-hour spot trace and reports goodput,
time lost to reconfiguration, and rolled-back work.

Run with:  python examples/elastic_spot_training.py
"""

from __future__ import annotations

from repro import (
    AvailabilityTraceGenerator,
    ChurnReplayer,
    ClusterTopology,
    FaultTrace,
    Objective,
    TrainingJobSpec,
    build_environment,
    get_model,
)
from repro.hardware.availability import AvailabilityTrace
from repro.runtime.checkpoint import CheckpointConfig


def main() -> None:
    job = TrainingJobSpec(model=get_model("OPT-350M"), global_batch_size=2048,
                          sequence_length=2048)
    base = ClusterTopology.homogeneous("n1-standard-v100-4", 8,
                                       zone="us-central1-a")
    env = build_environment(job, base)

    # A 4-hour spot trace: the pool starts full and loses / regains capacity.
    generator = AvailabilityTraceGenerator(seed=42)
    events = generator.spot_preemptions("us-central1-a", "n1-standard-v100-4",
                                        base_nodes=8, duration_s=4 * 3600,
                                        mean_time_between_events_s=1200.0)
    trace = AvailabilityTrace(events=events, duration_s=4 * 3600)

    print("Spot availability (nodes over time):")
    for event in trace.events[:12]:
        print(f"  t={event.time_s / 60:6.1f} min  -> {event.available_nodes} nodes")
    if len(trace.events) > 12:
        print(f"  ... {len(trace.events) - 12} more changes")

    replayer = ChurnReplayer(
        env, job, objective=Objective.max_throughput(),
        checkpoint_config=CheckpointConfig(interval_iterations=25))
    report = replayer.run(FaultTrace.from_availability(trace),
                          base_topology=base)

    print("\n=== 4-hour elastic run ===")
    print(f"iterations completed      : {report.iterations_completed}")
    print(f"goodput                   : {report.goodput_iters_per_s:.4f} iters/s")
    print(f"reconfigurations          : {len(report.plan_history)}")
    print(f"time training             : {report.training_time_s:.1f} s")
    print(f"time reconfiguring        : {report.reconfiguration_time_s:.1f} s")
    print(f"time idle (no resources)  : {report.idle_time_s:.1f} s")
    print(f"checkpoint stalls         : {report.checkpoint_stall_s:.1f} s")
    print(f"iterations lost to rollback: {report.iterations_lost_to_rollback}")

    print("\nDecisions (one per availability change):")
    for record in report.records:
        print(f"  t={record.time_s / 60:6.1f} min  {record.pool_gpus:3d} GPUs "
              f"available -> plan on {record.plan_gpus:3d} GPUs  "
              f"{record.action:<20s} lost {record.iterations_lost} iterations")

    for event in replayer.controller.events:
        phases = event.breakdown
        print(f"\nReconfiguration at t={event.time_s / 60:.1f} min "
              f"({event.old_gpus} -> {event.new_gpus} GPUs): "
              f"total {phases.total_s:.1f}s "
              f"[plan {phases.planning_s:.2f}, cleanup {phases.cleanup_s:.1f}, "
              f"nccl {phases.nccl_init_s:.1f}]")
        break  # one detailed breakdown is enough for the demo


if __name__ == "__main__":
    main()
