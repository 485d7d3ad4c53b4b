"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main, parse_nodes


def test_catalog_lists_everything(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "A100-40" in out
    assert "a2-highgpu-4g" in out
    assert "OPT-350M" in out


def test_catalog_kind_filter(capsys):
    assert main(["catalog", "--kind", "models"]) == 0
    out = capsys.readouterr().out
    assert "OPT-350M" in out
    assert "a2-highgpu-4g" not in out


def test_parse_nodes_builds_topology():
    topology = parse_nodes(["us-central1-a:a2-highgpu-4g:2",
                            "us-central1-a:n1-standard-v100-4:1",
                            "us-west1-a:a2-highgpu-4g:1"])
    assert topology.node_count("us-central1-a", "a2-highgpu-4g") == 2
    assert topology.total_gpus() == 16
    with pytest.raises(SystemExit):
        parse_nodes(["bad-spec"])
    with pytest.raises(SystemExit):
        parse_nodes(["zone:no-such-node:2"])
    with pytest.raises(SystemExit):
        parse_nodes(["zone:a2-highgpu-4g:two"])


def test_plan_and_simulate_roundtrip(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    result_path = tmp_path / "result.json"
    code = main([
        "plan", "--model", "OPT-350M", "--global-batch-size", "256",
        "--nodes", "us-central1-a:a2-highgpu-4g:4",
        "--objective", "throughput",
        "--output", str(plan_path), "--result-output", str(result_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "estimated throughput" in out
    assert plan_path.exists() and result_path.exists()
    document = json.loads(plan_path.read_text())
    assert document["job"]["model"] == "OPT-350M"

    code = main(["simulate", "--plan", str(plan_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "iterations" in out or "iters/s" in out


def test_plan_reports_search_stats(capsys):
    code = main([
        "plan", "--model", "OPT-350M", "--global-batch-size", "256",
        "--nodes", "us-central1-a:a2-highgpu-4g:2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "search stats" in out
    assert "nodes=" in out


def test_plan_result_output_carries_search_stats(tmp_path, capsys):
    result_path = tmp_path / "result.json"
    code = main([
        "plan", "--model", "OPT-350M", "--global-batch-size", "256",
        "--nodes", "us-central1-a:a2-highgpu-4g:2",
        "--result-output", str(result_path),
    ])
    assert code == 0
    document = json.loads(result_path.read_text())
    assert document["complete"] is True
    assert document["search_stats"]["nodes_explored"] > 0


def test_plan_with_impossible_constraint_fails(capsys):
    code = main([
        "plan", "--model", "OPT-350M", "--global-batch-size", "256",
        "--nodes", "us-central1-a:a2-highgpu-4g:1",
        "--objective", "cost", "--min-throughput", "1000",
    ])
    assert code == 1
    assert "no valid plan" in capsys.readouterr().out


#: Files that are not traces or not plans, written to a file when an argv
#: names them as ``@<name>``.
BAD_FILES = {name: json.dumps(document) for name, document in {
    "object-without-fields": {"x": 1},
    "list": [],
    "event-without-zone": {
        "format_version": 1, "duration_s": 60.0,
        "events": [{"time_s": 0.0, "kind": "initial",
                    "node_type": "a2-highgpu-4g", "available_nodes": 4}]},
    "event-with-null-count": {
        "format_version": 1, "duration_s": 60.0,
        "events": [{"time_s": 0.0, "kind": "initial", "zone": "us-central1-a",
                    "node_type": "a2-highgpu-4g", "available_nodes": None}]},
    "object-not-a-plan": {"a": 1},
    "list-not-a-plan": [1, 2],
}.items()}
BAD_FILES["not-json"] = "{not json"


@pytest.mark.parametrize("argv", [
    ["plan", "--time-limit", "nan"],
    ["plan", "--time-limit", "-1"],
    ["plan", "--time-limit", "0"],
    ["plan", "--time-limit", "inf"],
    ["plan", "--max-cost", "-5"],
    ["plan", "--max-cost", "nan"],
    ["plan", "--max-cost", "inf"],
    ["plan", "--objective", "cost", "--min-throughput", "nan"],
    ["plan", "--min-throughput", "1000"],
    ["plan", "--max-cost", "0.000001", "--objective", "cost"],
    ["plan", "--global-batch-size", "0"],
    ["churn", "--deadline", "nan", "--events", "2"],
    ["churn", "--deadline", "-1", "--events", "2"],
    ["churn", "--events", "1"],
    ["churn", "--duration", "0"],
    ["churn", "--duration", "-5"],
    ["churn", "--debounce", "nan", "--events", "2"],
    ["churn", "--debounce", "-5", "--events", "2"],
    ["churn", "--debounce", "inf", "--events", "2"],
    ["churn", "--trace-in", "no-such-dir/trace.json"],
    ["churn", "--trace-in", "@object-without-fields"],
    ["churn", "--trace-in", "@list"],
    ["churn", "--trace-in", "@event-without-zone"],
    ["churn", "--trace-in", "@event-with-null-count"],
    ["simulate", "--plan", "no-such-dir/plan.json"],
    ["simulate", "--plan", "@not-json"],
    ["simulate", "--plan", "@object-not-a-plan"],
    ["simulate", "--plan", "@list-not-a-plan"],
    ["plan", "--output", "no-such-dir/plan.json"],
    ["plan", "--result-output", "no-such-dir/result.json"],
    ["churn", "--trace-out", "no-such-dir/trace.json", "--events", "2"],
    ["plan", "--nodes", "us-central1-a:a2-highgpu-4g:-2"],
    ["churn", "--pools", "us-central1-a:a2-highgpu-4g:-2"],
], ids=lambda argv: " ".join(argv[:3]))
def test_bad_limits_exit_with_one_line_message(argv, tmp_path):
    """A NaN or non-positive search limit, an invalid job, objective or
    node count, a trace or plan file that cannot be read or is not a trace
    or plan, or an output path that cannot be written exits non-zero with
    a one-line message instead of mis-planning (an empty replay) or dying
    with a traceback: ``SystemExit`` with a string code prints it to
    stderr and exits 1."""
    if argv[0] == "plan":
        argv = argv + ["--nodes", "us-central1-a:a2-highgpu-4g:1"]
    if argv[-1].startswith("@"):
        path = tmp_path / "input.json"
        path.write_text(BAD_FILES[argv[-1][1:]])
        argv = argv[:-1] + [str(path)]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    message = excinfo.value.code
    assert isinstance(message, str) and message
    assert "\n" not in message


def test_unknown_model_rejected():
    with pytest.raises(SystemExit):
        main(["plan", "--model", "GPT-17T",
              "--nodes", "us-central1-a:a2-highgpu-4g:1"])


def test_experiment_subcommand_runs(capsys):
    assert main(["experiment", "figure2", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out


def test_parser_requires_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])
