"""JSON (de)serialisation of plans, evaluations and planner results.

The Sailor controller broadcasts the chosen plan and rank topology to every
worker over gRPC (paper section 5.5), and operators want to archive what was
deployed and why.  This module provides a stable, versioned JSON encoding
for the plan datatypes so they can cross process boundaries, be stored next
to checkpoints, and be diffed between reconfigurations.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.plan import (
    ParallelizationPlan,
    PlanEvaluation,
    PlannerResult,
    SearchStats,
    StageConfig,
    StageReplica,
)
from repro.models.catalog import get_model
from repro.models.partition import LayerPartition
from repro.models.spec import TrainingJobSpec


#: Format version written into every document; bump on breaking changes.
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def job_to_dict(job: TrainingJobSpec) -> dict[str, Any]:
    """Encode a training-job spec (the model is referenced by name)."""
    return {
        "model": job.model.name,
        "global_batch_size": job.global_batch_size,
        "sequence_length": job.sequence_length,
        "optimizer": job.optimizer,
        "dtype": job.dtype,
        "activation_checkpointing": job.activation_checkpointing,
    }


def replica_to_dict(replica: StageReplica) -> dict[str, Any]:
    """Encode one stage replica."""
    return {
        "node_type": replica.node_type,
        "tensor_parallel": replica.tensor_parallel,
        "zone": replica.zone,
    }


def stage_to_dict(stage: StageConfig) -> dict[str, Any]:
    """Encode one pipeline stage (partition + replicas)."""
    partition = stage.partition
    return {
        "stage_index": partition.stage_index,
        "num_stages": partition.num_stages,
        "first_layer": partition.first_layer,
        "num_layers": partition.num_layers,
        "has_embedding": partition.has_embedding,
        "has_lm_head": partition.has_lm_head,
        "replicas": [replica_to_dict(r) for r in stage.replicas],
    }


def plan_to_dict(plan: ParallelizationPlan) -> dict[str, Any]:
    """Encode a full parallelization plan."""
    return {
        "format_version": FORMAT_VERSION,
        "job": job_to_dict(plan.job),
        "microbatch_size": plan.microbatch_size,
        "stages": [stage_to_dict(s) for s in plan.stages],
    }


def evaluation_to_dict(evaluation: PlanEvaluation) -> dict[str, Any]:
    """Encode a simulator evaluation."""
    return {
        "iteration_time_s": evaluation.iteration_time_s,
        "throughput_iters_per_s": evaluation.throughput_iters_per_s,
        "cost_per_iteration_usd": evaluation.cost_per_iteration_usd,
        "compute_cost_usd": evaluation.compute_cost_usd,
        "communication_cost_usd": evaluation.communication_cost_usd,
        "peak_memory_bytes_per_stage": list(evaluation.peak_memory_bytes_per_stage),
        "is_valid": evaluation.is_valid,
        "oom_stages": list(evaluation.oom_stages),
        "pipeline_time_s": evaluation.pipeline_time_s,
        "sync_time_s": evaluation.sync_time_s,
        "update_time_s": evaluation.update_time_s,
        "straggler_stage": evaluation.straggler_stage,
    }


def result_to_dict(result: PlannerResult) -> dict[str, Any]:
    """Encode a planner result (plan may be absent when nothing was found)."""
    return {
        "format_version": FORMAT_VERSION,
        "planner_name": result.planner_name,
        "search_time_s": result.search_time_s,
        "candidates_evaluated": result.candidates_evaluated,
        "oom_plans_generated": result.oom_plans_generated,
        "complete": result.complete,
        "optimality_gap_bound": result.optimality_gap_bound,
        "incomplete_branches": list(result.incomplete_branches),
        "search_stats": result.search_stats.as_dict(),
        "plan": plan_to_dict(result.plan) if result.plan is not None else None,
        "evaluation": (evaluation_to_dict(result.evaluation)
                       if result.evaluation is not None else None),
    }


def plan_to_json(plan: ParallelizationPlan, *, indent: int | None = 2) -> str:
    """Encode a plan as a JSON string."""
    return json.dumps(plan_to_dict(plan), indent=indent, sort_keys=True)


def result_to_json(result: PlannerResult, *, indent: int | None = 2) -> str:
    """Encode a planner result as a JSON string."""
    return json.dumps(result_to_dict(result), indent=indent, sort_keys=True)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def job_from_dict(data: dict[str, Any]) -> TrainingJobSpec:
    """Decode a training-job spec (the model must exist in the catalog)."""
    return TrainingJobSpec(
        model=get_model(data["model"]),
        global_batch_size=int(data["global_batch_size"]),
        sequence_length=int(data["sequence_length"]),
        optimizer=data.get("optimizer", "adam"),
        dtype=data.get("dtype", "fp16"),
        activation_checkpointing=bool(data.get("activation_checkpointing", False)),
    )


def replica_from_dict(data: dict[str, Any]) -> StageReplica:
    """Decode one stage replica."""
    return StageReplica(node_type=data["node_type"],
                        tensor_parallel=int(data["tensor_parallel"]),
                        zone=data["zone"])


def stage_from_dict(data: dict[str, Any]) -> StageConfig:
    """Decode one pipeline stage."""
    partition = LayerPartition(
        stage_index=int(data["stage_index"]),
        num_stages=int(data["num_stages"]),
        first_layer=int(data["first_layer"]),
        num_layers=int(data["num_layers"]),
        has_embedding=bool(data["has_embedding"]),
        has_lm_head=bool(data["has_lm_head"]),
    )
    replicas = [replica_from_dict(r) for r in data["replicas"]]
    return StageConfig(partition=partition, replicas=replicas)


def _check_version(data: dict[str, Any]) -> None:
    version = data.get("format_version", FORMAT_VERSION)
    if version > FORMAT_VERSION:
        raise ValueError(
            f"document format version {version} is newer than supported "
            f"({FORMAT_VERSION})")


def plan_from_dict(data: dict[str, Any]) -> ParallelizationPlan:
    """Decode a plan; validation of the plan invariants happens on build."""
    _check_version(data)
    job = job_from_dict(data["job"])
    stages = [stage_from_dict(s) for s in data["stages"]]
    return ParallelizationPlan(job=job, stages=stages,
                               microbatch_size=int(data["microbatch_size"]))


def plan_from_json(text: str) -> ParallelizationPlan:
    """Decode a plan from a JSON string."""
    return plan_from_dict(json.loads(text))


def evaluation_from_dict(data: dict[str, Any]) -> PlanEvaluation:
    """Decode a simulator evaluation."""
    return PlanEvaluation(
        iteration_time_s=float(data["iteration_time_s"]),
        throughput_iters_per_s=float(data["throughput_iters_per_s"]),
        cost_per_iteration_usd=float(data["cost_per_iteration_usd"]),
        peak_memory_bytes_per_stage=[float(x) for x in
                                     data["peak_memory_bytes_per_stage"]],
        is_valid=bool(data["is_valid"]),
        oom_stages=[int(x) for x in data.get("oom_stages", [])],
        compute_cost_usd=float(data.get("compute_cost_usd", 0.0)),
        communication_cost_usd=float(data.get("communication_cost_usd", 0.0)),
        pipeline_time_s=float(data.get("pipeline_time_s", 0.0)),
        sync_time_s=float(data.get("sync_time_s", 0.0)),
        update_time_s=float(data.get("update_time_s", 0.0)),
        straggler_stage=int(data.get("straggler_stage", 0)),
    )


def result_from_dict(data: dict[str, Any]) -> PlannerResult:
    """Decode a planner result."""
    _check_version(data)
    plan = plan_from_dict(data["plan"]) if data.get("plan") else None
    evaluation = (evaluation_from_dict(data["evaluation"])
                  if data.get("evaluation") else None)
    return PlannerResult(
        plan=plan,
        evaluation=evaluation,
        search_time_s=float(data["search_time_s"]),
        planner_name=data.get("planner_name", "unknown"),
        candidates_evaluated=int(data.get("candidates_evaluated", 0)),
        oom_plans_generated=int(data.get("oom_plans_generated", 0)),
        search_stats=SearchStats.from_dict(data.get("search_stats", {})),
        complete=bool(data.get("complete", True)),
        optimality_gap_bound=float(data.get("optimality_gap_bound", 0.0)),
        incomplete_branches=[str(b) for b in
                             data.get("incomplete_branches", [])],
    )


def result_from_json(text: str) -> PlannerResult:
    """Decode a planner result from a JSON string."""
    return result_from_dict(json.loads(text))
