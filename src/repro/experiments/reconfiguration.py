"""Section 5.5: reconfiguration overheads.

The paper measures Sailor's kill-free reconfiguration on a 16-V100 cluster
when 4 more GPUs become available: planning 0.1 s, process cleanup 3 s,
topology broadcast 1.25 s, NCCL group re-initialisation 4.5 s, model and
optimizer redefinition 2 s, dataloader redefinition 0.5 s.  This experiment
replays the same scale-up event through the controller and reports the
per-phase breakdown (planning is charged at the model's constant 0.1 s; the
``planning_measured`` row shows the planner's measured search time), plus
the goodput of a one-hour spot-style availability trace replayed through
the controller by :class:`~repro.runtime.replay.ChurnReplayer`.
"""

from __future__ import annotations

from repro.core.objectives import Objective
from repro.experiments.common import (
    ExperimentTable,
    make_environment,
    opt_350m_job,
    resolve_scale,
    v100_topology,
)
from repro.hardware.availability import AvailabilityTrace, AvailabilityTraceGenerator
from repro.hardware.topology import ClusterTopology
from repro.runtime.controller import TrainingController
from repro.runtime.faults import FaultTrace
from repro.runtime.replay import ChurnReplayer


def run(scale: str | object = "small", base_gpus: int = 16,
        added_gpus: int = 4) -> ExperimentTable:
    """Reproduce the section-5.5 reconfiguration-overhead breakdown."""
    scale = resolve_scale(scale)
    job = opt_350m_job()
    objective = Objective.max_throughput()

    table = ExperimentTable(
        title="Section 5.5: reconfiguration overhead breakdown (16 -> 20 V100)",
        columns=["phase", "seconds"])

    before = v100_topology(base_gpus)
    after = ClusterTopology.single_zone(
        "us-central1-a", {"n1-standard-v100-4": (base_gpus + added_gpus) // 4})
    env = make_environment(job, before)

    controller = TrainingController(env=env, job=job, objective=objective)
    controller.start(before, time_s=0.0)
    event = controller.handle_availability_change(after, time_s=600.0)
    if event is None:
        raise RuntimeError("expected the controller to reconfigure on scale-up")

    for phase, seconds in event.breakdown.as_dict().items():
        table.add_row(phase=phase, seconds=seconds)
    table.add_row(phase="total", seconds=event.total_s)
    table.add_row(phase="planning_measured",
                  seconds=event.planner_result.search_time_s)

    # Goodput over a spot trace (context for the same cluster).
    generator = AvailabilityTraceGenerator(seed=3)
    events = generator.spot_preemptions(
        "us-central1-a", "n1-standard-v100-4",
        base_nodes=(base_gpus + added_gpus) // 4, duration_s=3600.0)
    trace = AvailabilityTrace(events=events, duration_s=3600.0)
    report = ChurnReplayer(env, job, objective=objective).run(
        FaultTrace.from_availability(trace), base_topology=after)
    table.columns.append("detail")
    table.add_row(phase="session_goodput_iters_per_s",
                  seconds=report.goodput_iters_per_s,
                  detail=f"{len(report.plan_history)} reconfigurations, "
                         f"{report.iterations_completed} iterations")

    table.notes = ("expected shape: cleanup + NCCL re-initialisation dominate; "
                   "total is around 10 seconds at this scale")
    return table
