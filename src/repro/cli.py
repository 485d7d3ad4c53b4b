"""Command-line interface.

Installs as ``sailor-repro`` and exposes the library's main workflows:

* ``sailor-repro catalog``     -- list known GPUs, node types and models;
* ``sailor-repro plan``        -- plan a job on a described topology and
  optionally write the chosen plan to JSON;
* ``sailor-repro simulate``    -- evaluate a saved plan (memory, time, cost);
* ``sailor-repro experiment``  -- regenerate one of the paper's tables/figures;
* ``sailor-repro churn``       -- replay a seeded fault trace against the
  replanning controller loop and report degradation/reuse statistics;
* ``sailor-repro lint``        -- run the project-invariant static analysis
  (cache-key completeness, determinism, bound admissibility hygiene, ...;
  see CONTRACTS.md).

Examples::

    sailor-repro plan --model OPT-350M \
        --nodes us-central1-a:a2-highgpu-4g:4 \
        --nodes us-central1-a:n1-standard-v100-4:8 \
        --objective throughput --output plan.json

    sailor-repro simulate --plan plan.json

    sailor-repro experiment figure8 --scale small

    sailor-repro churn --model OPT-350M \
        --pools us-central1-a:a2-highgpu-4g:4 \
        --pools us-central1-a:n1-standard-v100-4:4 \
        --events 200 --seed 0 --trace-out churn.json

    sailor-repro churn --model OPT-350M --trace-in churn.json
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

from repro.core.objectives import Objective
from repro.core.planner import PlannerConfig, SailorPlanner
from repro.core.serialization import plan_from_json, plan_to_json, result_to_json
from repro.core.simulator import SailorSimulator, build_environment
from repro.hardware.gpus import list_gpus
from repro.hardware.nodes import get_node_type, list_node_types
from repro.hardware.topology import ClusterTopology
from repro.models.catalog import get_model, list_models
from repro.models.spec import TrainingJobSpec


EXPERIMENT_NAMES = (
    "figure1", "figure2", "figure3", "table1", "figure5", "figure6",
    "figure7", "figure8", "figure9", "figure10", "figure11", "figure12",
    "figure13", "figure14", "table2", "table3", "scalability",
    "reconfiguration", "ablations",
)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="sailor-repro",
        description="Sailor reproduction: plan, simulate and reproduce experiments.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    catalog = subparsers.add_parser(
        "catalog", help="list known GPUs, node types and models")
    catalog.add_argument("--kind", choices=["gpus", "nodes", "models", "all"],
                         default="all")

    plan = subparsers.add_parser("plan", help="plan a training job")
    plan.add_argument("--model", default="OPT-350M",
                      help="model name from the catalog (default: OPT-350M)")
    plan.add_argument("--global-batch-size", type=int, default=2048)
    plan.add_argument("--sequence-length", type=int, default=2048)
    plan.add_argument("--nodes", action="append", required=True,
                      metavar="ZONE:NODE_TYPE:COUNT",
                      help="available nodes, e.g. us-central1-a:a2-highgpu-4g:4 "
                           "(repeatable)")
    plan.add_argument("--objective", choices=["throughput", "cost"],
                      default="throughput")
    plan.add_argument("--max-cost", type=float, default=None,
                      help="budget ceiling in USD per iteration "
                           "(--objective throughput only)")
    plan.add_argument("--min-throughput", type=float, default=None,
                      help="throughput floor in iterations per second "
                           "(--objective cost only)")
    plan.add_argument("--time-limit", type=float, default=None,
                      metavar="SECONDS",
                      help="wall deadline for the search; the anytime planner "
                           "returns its incumbent with a certified optimality "
                           "gap bound (default: unbounded)")
    plan.add_argument("--output", default=None,
                      help="write the chosen plan (JSON) to this file")
    plan.add_argument("--result-output", default=None,
                      help="write the full planner result (JSON) to this file")

    simulate = subparsers.add_parser("simulate", help="evaluate a saved plan")
    simulate.add_argument("--plan", required=True, help="plan JSON file")

    experiment = subparsers.add_parser(
        "experiment", help="regenerate a paper table/figure")
    experiment.add_argument("name", choices=EXPERIMENT_NAMES)
    experiment.add_argument("--scale", choices=["tiny", "small", "paper"],
                            default="small")

    churn = subparsers.add_parser(
        "churn", help="replay a seeded fault trace against the controller")
    churn.add_argument("--model", default="OPT-350M",
                       help="model name from the catalog (default: OPT-350M)")
    churn.add_argument("--global-batch-size", type=int, default=256)
    churn.add_argument("--sequence-length", type=int, default=2048)
    churn.add_argument("--pools", action="append", default=None,
                       metavar="ZONE:NODE_TYPE:COUNT",
                       help="base capacity of one pool, e.g. "
                            "us-central1-a:a2-highgpu-4g:4 (repeatable; "
                            "default: 4 A100 + 4 V100 nodes in one zone)")
    churn.add_argument("--events", type=int, default=200,
                       help="number of fault events to generate (default: 200)")
    churn.add_argument("--seed", type=int, default=0,
                       help="scenario-generator seed (default: 0)")
    churn.add_argument("--duration", type=float, default=4 * 3600.0,
                       help="trace duration in seconds (default: 4h)")
    churn.add_argument("--objective", choices=["throughput", "cost"],
                       default="throughput")
    churn.add_argument("--replan-ticks", type=int, default=None,
                       metavar="N",
                       help="bound each replan's search to N ticks; a "
                            "truncated search keeps the incumbent, degraded "
                            "(default: unbounded)")
    churn.add_argument("--debounce", type=float, default=0.0,
                       help="minimum seconds between voluntary replans")
    churn.add_argument("--checkpoint-interval", type=int, default=20,
                       help="checkpoint every N iterations (default: 20)")
    churn.add_argument("--trace-in", default=None,
                       help="replay this fault-trace JSON instead of "
                            "generating one")
    churn.add_argument("--trace-out", default=None,
                       help="write the (generated or loaded) fault trace "
                            "to this JSON file")

    lint = subparsers.add_parser(
        "lint", help="run the project-invariant static analysis "
                     "(see CONTRACTS.md)")
    lint.add_argument("--root", default=".",
                      help="repo root to lint (default: cwd)")
    lint.add_argument("--rules", default=None,
                      help="comma-separated subset of rule ids to run")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the machine-readable JSON report")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the registered rules and exit")
    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def parse_nodes(specs: list[str]) -> ClusterTopology:
    """Parse repeated ``zone:node_type:count`` arguments into a topology."""
    nodes: dict[str, dict[str, int]] = {}
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            raise SystemExit(f"invalid --nodes value {spec!r}; "
                             "expected ZONE:NODE_TYPE:COUNT")
        zone, node_type, count_text = parts
        try:
            get_node_type(node_type)
        except KeyError as exc:
            raise SystemExit(str(exc)) from None
        try:
            count = int(count_text)
        except ValueError:
            raise SystemExit(f"invalid node count {count_text!r}") from None
        nodes.setdefault(zone, {})[node_type] = \
            nodes.get(zone, {}).get(node_type, 0) + count
    try:
        return ClusterTopology(nodes=nodes)
    except ValueError as exc:  # a negative count
        raise SystemExit(str(exc)) from None


def check_writable(path: str, what: str) -> None:
    """Exit with a one-line error now, before any work, when ``path``
    cannot be opened for writing; leaves no file behind."""
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise SystemExit(f"cannot write {what} to {path}: {exc}") from None
    if not existed:
        os.remove(path)


def write_output(path: str, text: str, what: str) -> None:
    """Write ``text`` to ``path``; an unwritable path is a one-line error."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise SystemExit(f"cannot write {what} to {path}: {exc}") from None
    print(f"{what} written to {path}")


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.kind in ("gpus", "all"):
        print("GPUs:")
        for gpu in list_gpus():
            print(f"  {gpu.name:<14} {gpu.memory_gb:5.0f} GiB  "
                  f"{gpu.peak_tflops:6.0f} TFLOP/s  ({gpu.generation})")
    if args.kind in ("nodes", "all"):
        print("Node types:")
        for node in list_node_types():
            print(f"  {node.name:<22} {node.gpus_per_node}x {node.gpu.name:<12} "
                  f"{node.nic_bw_gbps:5.0f} Gbit/s NIC")
    if args.kind in ("models", "all"):
        print("Models:")
        for model in list_models():
            print(f"  {model.name:<16} {model.num_layers:3d} layers  "
                  f"hidden {model.hidden_size:5d}  "
                  f"{model.total_params / 1e6:8.0f}M params")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    # An unknown model or an invalid job, objective or search limit is a
    # usage error: one line on stderr, not a traceback.
    try:
        job = TrainingJobSpec(model=get_model(args.model),
                              global_batch_size=args.global_batch_size,
                              sequence_length=args.sequence_length)
        if args.objective == "throughput":
            if args.min_throughput is not None:
                raise ValueError("--min-throughput needs --objective cost; "
                                 "the throughput objective takes --max-cost")
            objective = Objective.max_throughput(
                max_cost_per_iteration_usd=args.max_cost)
        else:
            if args.max_cost is not None:
                raise ValueError("--max-cost needs --objective throughput; "
                                 "the cost objective takes --min-throughput")
            objective = Objective.min_cost(
                min_throughput_iters_per_s=args.min_throughput)
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc)) from None
    try:
        config = PlannerConfig(time_limit_s=args.time_limit)
    except ValueError:
        raise SystemExit("--time-limit must be a finite number of seconds "
                         f"> 0, got {args.time_limit}") from None
    topology = parse_nodes(args.nodes)
    if args.output:
        check_writable(args.output, "plan")
    if args.result_output:
        check_writable(args.result_output, "planner result")
    print("Planning for topology:")
    print(topology.describe())

    env = build_environment(job, topology)
    result = SailorPlanner(env, config=config).plan(job, topology, objective)
    print(f"\nsearch time: {result.search_time_s:.2f}s  "
          f"candidates: {result.candidates_evaluated}")
    print(f"search stats: {result.search_stats.describe()}")
    if result.complete:
        print("search: complete (certified optimal over the search space)")
    else:
        gap = result.optimality_gap_bound
        bound = ("no bound (no incumbent)" if gap == float("inf")
                 else f"within {100 * gap:.2f}% of optimal")
        cut = ", ".join(result.incomplete_branches)
        print(f"search: anytime result, {bound}; cut branches: {cut or 'none'}")
    if not result.found:
        print("no valid plan found within the constraints")
        return 1

    print(result.plan.describe())
    evaluation = result.evaluation
    print(f"\nestimated throughput: {evaluation.throughput_iters_per_s:.3f} iters/s")
    print(f"estimated cost      : {evaluation.cost_per_iteration_usd:.3f} USD/iteration")

    if args.output:
        write_output(args.output, plan_to_json(result.plan), "plan")
    if args.result_output:
        write_output(args.result_output, result_to_json(result),
                     "planner result")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        with open(args.plan, encoding="utf-8") as handle:
            plan = plan_from_json(handle.read())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read plan {args.plan}: {exc}") from None
    topology = _topology_for_plan(plan)
    env = build_environment(plan.job, topology)
    evaluation = SailorSimulator(env).evaluate(plan)
    print(plan.describe())
    print(f"\niteration time : {evaluation.iteration_time_s:.2f} s")
    print(f"throughput     : {evaluation.throughput_iters_per_s:.3f} iters/s")
    print(f"cost           : {evaluation.cost_per_iteration_usd:.3f} USD/iteration")
    print(f"valid (no OOM) : {evaluation.is_valid}")
    print("peak memory    : " + ", ".join(
        f"{m / 2**30:.1f} GiB" for m in evaluation.peak_memory_bytes_per_stage))
    return 0 if evaluation.is_valid else 1


def _topology_for_plan(plan) -> ClusterTopology:
    """Smallest topology that contains the plan (for profiling purposes)."""
    allocation = plan.resource_allocation()
    nodes: dict[str, dict[str, int]] = {}
    for (zone, node_type), count in allocation.nodes.items():
        nodes.setdefault(zone, {})[node_type] = count
    return ClusterTopology(nodes=nodes)


def cmd_experiment(args: argparse.Namespace) -> int:
    module = importlib.import_module(f"repro.experiments.{args.name}")
    table = module.run(args.scale)
    print(table.to_text())
    return 0


def cmd_churn(args: argparse.Namespace) -> int:
    from repro.runtime.checkpoint import CheckpointConfig
    from repro.runtime.controller import ReplanPolicy, TrainingController
    from repro.runtime.faults import FaultScenarioGenerator, FaultTrace
    from repro.runtime.replay import ChurnReplayer

    try:
        job = TrainingJobSpec(model=get_model(args.model),
                              global_batch_size=args.global_batch_size,
                              sequence_length=args.sequence_length)
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc)) from None

    if args.trace_in:
        try:
            with open(args.trace_in, encoding="utf-8") as handle:
                trace = FaultTrace.from_json(handle.read())
        except (OSError, ValueError, TypeError) as exc:
            # TypeError: a trace field of the wrong type (e.g. a null count).
            raise SystemExit(f"cannot read trace {args.trace_in}: {exc}") \
                from None
        pools = {pool: max((e.available_nodes for e in trace.events
                            if (e.zone, e.node_type) == pool), default=0)
                 for pool in trace.pools}
    else:
        pool_specs = args.pools or ["us-central1-a:a2-highgpu-4g:4",
                                    "us-central1-a:n1-standard-v100-4:4"]
        topology = parse_nodes(pool_specs)
        pools = {(zone, node_type): count
                 for zone, per_type in topology.nodes.items()
                 for node_type, count in per_type.items()}
        generator = FaultScenarioGenerator(seed=args.seed)
        try:
            trace = generator.churn_trace(pools, duration_s=args.duration,
                                          num_events=args.events)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    if args.trace_out:
        write_output(args.trace_out, trace.to_json(), "fault trace")

    base_nodes: dict[str, dict[str, int]] = {}
    for (zone, node_type), count in pools.items():
        base_nodes.setdefault(zone, {})[node_type] = count
    base = ClusterTopology(nodes=base_nodes)
    env = build_environment(job, base)
    objective = (Objective.max_throughput() if args.objective == "throughput"
                 else Objective.min_cost())
    # ``--replan-ticks`` becomes the controller planner's
    # ``max_search_nodes``, which ``PlannerConfig`` validates.
    try:
        config = PlannerConfig(max_search_nodes=args.replan_ticks)
    except ValueError:
        raise SystemExit("--replan-ticks must be an integer >= 1, got "
                         f"{args.replan_ticks}") from None
    try:
        controller = TrainingController(
            env=env, job=job, objective=objective,
            planner=SailorPlanner(env, config=config),
            policy=ReplanPolicy(debounce_s=args.debounce))
        replayer = ChurnReplayer(
            env, job, controller=controller,
            checkpoint_config=CheckpointConfig(
                interval_iterations=args.checkpoint_interval))
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    print(f"replaying {len(trace.events)} events over "
          f"{trace.duration_s / 3600:.1f}h on:")
    print(base.describe())
    report = replayer.run(trace, base_topology=base)
    print()
    print(report.describe())
    return 0 if report.events_dropped == 0 else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.driver import run_lint
    from repro.analysis.registry import all_rules
    from repro.analysis.report import format_json, format_text

    if args.list_rules:
        for name, cls in sorted(all_rules().items()):
            print(f"{name}: {cls.description}")
        return 0
    root = Path(args.root)
    if not root.exists():
        print(f"error: no such root: {root}", file=sys.stderr)
        return 2
    rule_names = ([part.strip() for part in args.rules.split(",")
                   if part.strip()] if args.rules else None)
    result = run_lint(root, rule_names=rule_names)
    print(format_json(result) if args.as_json else format_text(result))
    for error in result.errors:
        print(f"error: {error}", file=sys.stderr)
    return result.exit_code


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "catalog": cmd_catalog,
        "plan": cmd_plan,
        "simulate": cmd_simulate,
        "experiment": cmd_experiment,
        "churn": cmd_churn,
        "lint": cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
