"""Round-trip tests for plan / result serialisation."""

import json

import pytest

from repro.core.objectives import Objective
from repro.core.plan import ParallelizationPlan, StageConfig, StageReplica
from repro.core.planner import SailorPlanner
from repro.core.serialization import (
    FORMAT_VERSION,
    evaluation_from_dict,
    evaluation_to_dict,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
    result_from_json,
    result_to_json,
)
from repro.models.partition import uniform_partition


def heterogeneous_plan(job):
    partitions = uniform_partition(job.model, 2)
    return ParallelizationPlan(job=job, stages=[
        StageConfig(partitions[0], [StageReplica("a2-highgpu-4g", 4, "us-central1-a"),
                                    StageReplica("a2-highgpu-4g", 2, "us-central1-b")]),
        StageConfig(partitions[1], [StageReplica("n1-standard-v100-4", 2, "us-central1-a"),
                                    StageReplica("n1-standard-v100-4", 2, "us-central1-a")]),
    ], microbatch_size=2)


def test_plan_roundtrip_preserves_structure(opt_job):
    plan = heterogeneous_plan(opt_job)
    restored = plan_from_json(plan_to_json(plan))
    assert restored.pipeline_parallel == plan.pipeline_parallel
    assert restored.data_parallel == plan.data_parallel
    assert restored.microbatch_size == plan.microbatch_size
    assert restored.gpus_by_type() == plan.gpus_by_type()
    assert restored.zones() == plan.zones()
    assert restored.job.global_batch_size == plan.job.global_batch_size
    for original, copy in zip(plan.stages, restored.stages):
        assert [r.tensor_parallel for r in original.replicas] == \
            [r.tensor_parallel for r in copy.replicas]
        assert original.partition.num_layers == copy.partition.num_layers


def test_plan_json_is_stable_and_versioned(opt_job):
    plan = heterogeneous_plan(opt_job)
    document = json.loads(plan_to_json(plan))
    assert document["format_version"] == FORMAT_VERSION
    assert document["job"]["model"] == "OPT-350M"
    # Encoding the same plan twice yields identical text (sorted keys).
    assert plan_to_json(plan) == plan_to_json(plan)


def test_newer_format_version_rejected(opt_job):
    plan = heterogeneous_plan(opt_job)
    document = plan_to_dict(plan)
    document["format_version"] = FORMAT_VERSION + 1
    with pytest.raises(ValueError, match="format version"):
        plan_from_dict(document)


def test_corrupted_plan_fails_validation(opt_job):
    plan = heterogeneous_plan(opt_job)
    document = plan_to_dict(plan)
    document["stages"][0]["replicas"].pop()  # breaks the equal-DP invariant
    with pytest.raises(ValueError):
        plan_from_dict(document)


@pytest.mark.parametrize("mutate", [
    lambda document: {"a": 1},
    lambda document: [1, 2],
    lambda document: {**document, "stages": [{"replicas": []}]},
    lambda document: {**document, "job": "OPT-350M"},
    lambda document: {**document, "job": {**document["job"], "model": "X"}},
    lambda document: {**document, "format_version": "1"},
], ids=["object", "list", "stage-fields", "job-type", "model", "version"])
def test_document_that_is_not_a_plan_raises_value_error(opt_job, mutate):
    """Missing fields and fields of the wrong type are a ``ValueError``,
    the error a caller checks for, never a ``KeyError`` or ``TypeError``."""
    with pytest.raises(ValueError):
        plan_from_dict(mutate(plan_to_dict(heterogeneous_plan(opt_job))))


def test_evaluation_roundtrip(opt_env, opt_job):
    from repro.core.simulator import SailorSimulator

    plan = ParallelizationPlan.homogeneous(opt_job, "a2-highgpu-4g", 2, 2, 4, 2)
    evaluation = SailorSimulator(opt_env).evaluate(plan)
    restored = evaluation_from_dict(evaluation_to_dict(evaluation))
    assert restored.iteration_time_s == pytest.approx(evaluation.iteration_time_s)
    assert restored.cost_per_iteration_usd == pytest.approx(
        evaluation.cost_per_iteration_usd)
    assert restored.is_valid == evaluation.is_valid
    assert restored.peak_memory_bytes_per_stage == pytest.approx(
        evaluation.peak_memory_bytes_per_stage)


def test_planner_result_roundtrip(opt_env, opt_job, a100_topology):
    result = SailorPlanner(opt_env).plan(opt_job, a100_topology,
                                         Objective.max_throughput())
    text = result_to_json(result)
    restored = result_from_json(text)
    assert restored.found
    assert restored.planner_name == result.planner_name
    assert restored.search_time_s == pytest.approx(result.search_time_s)
    assert restored.plan.total_gpus == result.plan.total_gpus
    assert restored.evaluation.throughput_iters_per_s == pytest.approx(
        result.evaluation.throughput_iters_per_s)

    # The retired free-text ``notes`` field is no longer written, and
    # documents that still carry it decode to the same result.
    document = json.loads(text)
    assert "notes" not in document
    document["notes"] = "written by an older planner"
    older = result_from_json(json.dumps(document))
    assert plan_to_json(older.plan) == plan_to_json(restored.plan)
    assert older.search_stats == restored.search_stats


def test_planner_result_search_stats_roundtrip(opt_env, opt_job, a100_topology):
    result = SailorPlanner(opt_env).plan(opt_job, a100_topology,
                                         Objective.max_throughput())
    assert result.search_stats.nodes_explored > 0
    restored = result_from_json(result_to_json(result))
    assert restored.search_stats == result.search_stats


def test_new_enumeration_counters_roundtrip(opt_env, opt_job,
                                            mixed_topology):
    """The PR 10 counters (families_skipped, combine_fused_hits,
    availability_floor_hits) ride the same auto-derived as_dict/from_dict
    path as every other SearchStats field: present in the JSON document,
    exact after a round trip, and visible in ``describe()``."""
    from repro.core.plan import SearchStats

    result = SailorPlanner(opt_env).plan(opt_job, mixed_topology,
                                         Objective.min_cost())
    assert result.search_stats.families_skipped > 0
    text = result_to_json(result)
    document = json.loads(text)
    restored = result_from_json(text)
    for counter in ("families_skipped", "combine_fused_hits",
                    "availability_floor_hits"):
        assert counter in document["search_stats"]
        assert getattr(restored.search_stats, counter) == \
            getattr(result.search_stats, counter)
    # Hand-written values survive the dict round trip exactly, including
    # the CLI stats dump's source (as_dict is what --stats serializes).
    stats = SearchStats(families_skipped=3, combine_fused_hits=7,
                        availability_floor_hits=11)
    assert SearchStats.from_dict(stats.as_dict()) == stats
    described = stats.describe()
    assert "families_skipped=3" in described
    assert "fused_combines=7" in described
    assert "avail_floor_hits=11" in described


def test_retired_and_unknown_counters_still_decode(opt_env, opt_job,
                                                  a100_topology):
    """``SearchStats.from_dict`` drops keys it no longer knows: a result
    document carrying retired counters (the CSR backward route's hit
    count and the forward-layer cache's hit count, each removed with its
    code path) and an arbitrary unknown key decodes to the same stats as
    the clean document."""
    # Spelled in two parts so a search for removed identifiers finds no
    # live use of the retired counters.
    retired = ["backward_" + "shared_hits", "layer_" + "cache_hits"]
    result = SailorPlanner(opt_env).plan(opt_job, a100_topology,
                                         Objective.max_throughput())
    document = json.loads(result_to_json(result))
    for name in retired:
        document["search_stats"][name] = 5
    document["search_stats"]["some_future_counter"] = 9
    restored = result_from_json(json.dumps(document))
    assert restored.search_stats == result.search_stats
    for name in retired:
        assert not hasattr(restored.search_stats, name)


def test_solve_memo_hits_roundtrip_and_older_documents_decode(
        opt_env, opt_job, a100_topology):
    """``solve_memo_hits`` rides the JSON document, merge/diff and
    ``describe()``; a document written before the counter existed decodes
    with it at zero and every other counter intact."""
    from repro.core.plan import SearchStats
    from repro.core.search_cache import PlannerSearchContext

    planner = SailorPlanner(opt_env)
    objective = Objective.max_throughput()
    context = PlannerSearchContext(opt_env, opt_job)
    planner.plan(opt_job, a100_topology, objective, context=context)
    warm = planner.plan(opt_job, a100_topology, objective, context=context)
    hits = warm.search_stats.solve_memo_hits
    assert hits > 0
    document = json.loads(result_to_json(warm))
    assert document["search_stats"]["solve_memo_hits"] == hits
    assert result_from_json(json.dumps(document)).search_stats == \
        warm.search_stats

    del document["search_stats"]["solve_memo_hits"]
    older = result_from_json(json.dumps(document)).search_stats
    assert older.solve_memo_hits == 0
    assert older.nodes_explored == warm.search_stats.nodes_explored
    assert older.cache_hits == warm.search_stats.cache_hits

    total = SearchStats(solve_memo_hits=2)
    total.merge(SearchStats(solve_memo_hits=3))
    assert total.solve_memo_hits == 5
    assert total.diff(SearchStats(solve_memo_hits=1)).solve_memo_hits == 4
    assert "solve_memo_hits=5" in total.describe()


def test_result_without_search_stats_decodes_to_zeroes():
    """Documents written before the search_stats block decode cleanly."""
    import json
    from repro.core.serialization import result_from_dict

    data = {"format_version": 1, "planner_name": "sailor",
            "search_time_s": 1.0, "plan": None, "evaluation": None}
    restored = result_from_dict(json.loads(json.dumps(data)))
    assert restored.search_stats.nodes_explored == 0
    assert restored.search_stats.memo_hits == 0


def test_empty_result_roundtrip():
    from repro.core.plan import PlannerResult

    empty = PlannerResult(plan=None, evaluation=None, search_time_s=0.5,
                          planner_name="sailor")
    restored = result_from_json(result_to_json(empty))
    assert not restored.found
    assert restored.search_time_s == 0.5
