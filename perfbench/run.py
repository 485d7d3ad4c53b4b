"""Planner benchmark: one command, timed end to end or traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload large-pool --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``large-pool``,
``budget`` and ``churn``.  Each runs in its own single-threaded process on
the serial planner.

``--trace 0`` times the program untraced.  It first starts the set-up
probe (a fresh process that imports the planner and builds the workload's
environment) several times and keeps the median as ``setup_s``; then one
workload process runs whole operations for ``--seconds``.  ``--trace 1``
runs the workload untraced for half the time, then the same number of
operations again with spans recorded around every layer's entry point
(``tracing.py``); it reports per-layer metrics and the tracing overhead.
Spans are written to ``.perfbench/``.

Every planner output is checked (``workloads.check_plan``); a failed
check, a plan not found, a raising call or a dropped event counts in
``failed``.  With ``--seed 0`` the first operation's plan digests must
also match ``digests.json``; a change that alters the chosen plans on
purpose copies the printed digests there.  Human-readable lines come
first (metrics with their sample counts, ``fail_frac``, the exact
``SearchStats`` / ``ChurnReport`` counters and a machine stamp); the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
WORKLOAD_NAMES = ("large-pool", "budget", "churn")

#: Set-up probes per timed run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Whole-run wall limit; children are killed past it.
RUN_LIMIT_S = 170.0


# -- statistics ---------------------------------------------------------------


def tail_percentile(samples: list[float], target: int = 90,
                    beyond: int = 10) -> tuple[int, float]:
    """``(p, value)``: the ``target`` percentile, lowered to the highest
    percentile that still has at least ``beyond`` samples above it.

    Nearest-rank percentiles.  When even the median would have fewer than
    ``beyond`` samples above it, the maximum is reported as ``p = 100``.
    """
    ordered = sorted(samples)
    n = len(ordered)
    highest = 100 * (n - beyond) // n if n > beyond else 0
    p = min(target, highest)
    if p < 50:
        return 100, ordered[-1]
    rank = -(-p * n // 100)
    return p, ordered[rank - 1]


def keep_going(ops: int, elapsed: float, seconds: float) -> bool:
    """Start another operation unless it would end past ``seconds`` by
    more than half an average operation (at least one always runs)."""
    return ops == 0 or elapsed + 0.5 * elapsed / ops < seconds


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


# -- child processes ------------------------------------------------------------


def child_env() -> dict[str, str]:
    """Environment of every child: the source tree, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _command(role: str, args, **extra) -> list[str]:
    command = [sys.executable, os.path.abspath(__file__), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed)]
    for key, value in extra.items():
        command += [f"--{key}", str(value)]
    return command


def time_setup(args, deadline: float) -> float:
    """Process start until the environment is built, in a fresh process."""
    start = time.perf_counter()
    with subprocess.Popen(_command("setup", args), cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_workload(args, deadline: float, **extra) -> dict:
    """One workload process; returns the JSON object it printed last."""
    with subprocess.Popen(_command("workload", args, **extra), cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("workload process ran past the time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed (exit {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


# -- roles ----------------------------------------------------------------------


def setup_role(args) -> int:
    """Import the planner, build the workload's environment, say so."""
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed).environment()
    print("ready", flush=True)
    return 0


def workload_role(args) -> int:
    """Run whole operations, check them, print one JSON object."""
    import numpy

    from tracing import layer_totals, split_by_root
    from workloads import DEFAULT_SEED, WORKLOADS, RunLog

    workload = WORKLOADS[args.workload](args.seed)
    log = RunLog()
    tracer = plan_results = None
    if args.trace:
        tracer, plan_results = install_tracer(workload)
    with workload.untraced():
        workload.prepare(log)

    ops = 0
    start = time.perf_counter()
    while ops < args.ops if args.ops else keep_going(
            ops, time.perf_counter() - start, args.seconds):
        workload.operation(log)
        if ops == 0:
            first = {key: values[0] for key, values in log.digests.items()}
        ops += 1
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    checks = log.checks
    for key, digests in log.digests.items():
        checks.record(len(set(digests)) == 1,
                      f"{key}: plans differ between repetitions")
    if args.seed == DEFAULT_SEED:
        with open(DIGESTS) as handle:
            committed = json.load(handle).get(args.workload)
        checks.record(first == committed,
                      "default-seed plan digests differ from digests.json")
    out = {
        "ops": ops, "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": checks.attempted, "failed": checks.failed,
        "failures": checks.failures[:20],
        "plan_s": log.plan_s, "decision_s": log.decision_s,
        "events": log.events, "event_wall_s": log.event_wall_s,
        "plan_iter_s": log.plan_iter_s, "plan_usd": log.plan_usd,
        "goodput": log.goodput, "digests": first,
        "counters": log.counters, "churn_tally": log.churn_tally,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        out["layers"] = layer_totals(tracer.spans)
        out["split"] = split_by_root(tracer.spans)
        out["spans"] = len(tracer.spans)
        out["search"] = sum_search_stats(plan_results)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(out))
    return 0


def install_tracer(workload):
    """Trace every layer entry point; collect every planner result."""
    from tracing import Tracer

    from repro.core.planner import SailorPlanner

    tracer = Tracer()
    tracer.install()
    workload.build = tracer.wrap("environment", workload.build)
    workload.tracer = tracer
    results: list = []
    traced_plan = SailorPlanner.plan

    def plan(self, *args, **kwargs):
        result = traced_plan(self, *args, **kwargs)
        if tracer.enabled:
            results.append(result)
        return result

    tracer.patch(SailorPlanner, "plan", plan)
    return tracer, results


def sum_search_stats(results: list) -> dict[str, int]:
    """SearchStats summed over planner results, plus candidates evaluated."""
    total: dict[str, int] = {"candidates_evaluated": 0}
    for result in results:
        total["candidates_evaluated"] += result.candidates_evaluated
        for name, value in result.search_stats.as_dict().items():
            total[name] = total.get(name, 0) + value
    return total


# -- metrics --------------------------------------------------------------------


def end_to_end(child: dict, setup: list[float]) -> dict[str, tuple]:
    """Every end-to-end metric: ``name -> (value, unit, note)``.

    ``plan_max_s`` is the median time of the slowest planning input (the
    budget sweep's slowest ceiling); with one input it equals
    ``plan_p50_s``.  On the plan-only workloads a decision is a cold
    planning call: ``decision_p50_s`` is ``plan_p50_s``, and since a run
    holds too few calls for any percentile to have ten beyond it,
    ``decision_p90_s`` is ``plan_max_s``.  There ``events_per_s`` counts
    planning requests answered per second of planning time.
    """
    by_input = child["plan_s"]
    plan_s = [t for samples in by_input.values() for t in samples]
    plan_p50 = statistics.median(plan_s)
    slowest, plan_max = max(((name, statistics.median(samples))
                             for name, samples in by_input.items()),
                            key=lambda item: item[1])
    max_note = f"median of {len(by_input[slowest])} at {slowest!r}"
    decision_s = child["decision_s"]
    if decision_s:
        p, tail = tail_percentile(decision_s)
        decisions = (statistics.median(decision_s), f"n={len(decision_s)}",
                     tail, f"p{p} of n={len(decision_s)}")
        events_per_s = child["events"] / child["event_wall_s"]
        events_note = f"{child['events']} fault events"
    else:
        decisions = (plan_p50, "planning calls", plan_max, max_note)
        events_per_s = len(plan_s) / sum(plan_s)
        events_note = f"{len(plan_s)} planning requests"
    iterations = sum(i for i, _ in child["goodput"])
    simulated = sum(s for _, s in child["goodput"])
    return {
        "setup_s": (statistics.median(setup), "s",
                    f"median of n={len(setup)}, "
                    f"range {min(setup):.3f}-{max(setup):.3f}"),
        "plan_p50_s": (plan_p50, "s", f"n={len(plan_s)}"),
        "plan_max_s": (plan_max, "s", max_note),
        "decision_p50_s": (decisions[0], "s", decisions[1]),
        "decision_p90_s": (decisions[2], "s", decisions[3]),
        "events_per_s": (events_per_s, "1/s", events_note),
        "plan_iter_s": (statistics.fmean(child["plan_iter_s"]), "s/iter",
                        f"mean of {len(child['plan_iter_s'])} plans"),
        "plan_usd_per_iter": (statistics.fmean(child["plan_usd"]),
                              "USD/iter",
                              f"mean of {len(child['plan_usd'])} plans"),
        "goodput_iter_per_s": (iterations / simulated, "iter/s",
                               f"{iterations:.0f} iterations"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB", "ru_maxrss"),
    }


#: Per-layer metric -> (span name, field) for span-derived metrics.
#:
#: Which end-to-end metric each layer should move, and where:
#:
#: - ``resource_state.forward_*`` / ``backward_*``: ``plan_p50_s`` and
#:   ``peak_rss_mb`` on large-pool; nothing on churn (0 calls there).
#: - ``resource_state.budget_bounds_*``: ``plan_p50_s`` on budget only.
#: - ``dp_solver.self_s`` (scalar recursion + straggler loop) and its
#:   exact counters: ``plan_max_s`` on budget, ``decision_p50_s`` on churn.
#: - ``planner.self_s`` (enumeration, plan building, gates),
#:   ``simulator.*``, ``search_cache.hit_ratio`` and
#:   ``controller.warm_ratio``: ``decision_p50_s`` on churn.
#: - ``environment.build_s``: ``setup_s`` (imports dominate it).
#: - ``controller.*`` / ``replay.*`` and the tier tallies: ``events_per_s``
#:   and ``goodput_iter_per_s`` on churn.
SPAN_METRICS = {
    "resource_state.forward_calls": ("resource_state.forward", "calls"),
    "resource_state.forward_self_s": ("resource_state.forward", "self_s"),
    "resource_state.backward_calls": ("resource_state.backward", "calls"),
    "resource_state.backward_self_s": ("resource_state.backward", "self_s"),
    "resource_state.budget_bounds_calls": ("resource_state.budget_bounds",
                                           "calls"),
    "resource_state.budget_bounds_self_s": ("resource_state.budget_bounds",
                                            "self_s"),
    "dp_solver.calls": ("dp_solver", "calls"),
    "dp_solver.self_s": ("dp_solver", "self_s"),
    "planner.calls": ("planner", "calls"),
    "planner.self_s": ("planner", "self_s"),
    "simulator.evaluate_calls": ("simulator.evaluate", "calls"),
    "simulator.evaluate_self_s": ("simulator.evaluate", "self_s"),
    "simulator.floor_calls": ("simulator.floor", "calls"),
    "simulator.floor_self_s": ("simulator.floor", "self_s"),
    "simulator.oom_calls": ("simulator.oom", "calls"),
    "simulator.oom_self_s": ("simulator.oom", "self_s"),
    "serialization.self_s": ("serialization", "self_s"),
    "environment.calls": ("environment", "calls"),
    "environment.build_s": ("environment", "self_s"),
    "controller.calls": ("controller", "calls"),
    "controller.self_s": ("controller", "self_s"),
    "replay.calls": ("replay", "calls"),
    "replay.self_s": ("replay", "self_s"),
}

#: Decision-tier tallies: per-layer metric -> ChurnReport counter.
TIER_METRICS = {
    "controller.replans": "replans",
    "controller.shrinks": "shrinks",
    "controller.switches": "switches",
    "controller.keeps": "keeps",
    "controller.debounces": "debounces",
    "controller.parks": "parks",
    "controller.retries": "retries",
}


def per_layer(traced: dict, untraced: dict) -> dict[str, tuple]:
    """Every per-layer metric: ``name -> (value, unit, note)``."""
    layers, search = traced["layers"], traced["search"]
    metrics: dict[str, tuple] = {}
    for name, (span, field) in SPAN_METRICS.items():
        value = layers.get(span, {}).get(field, 0)
        metrics[name] = ((value, "count", "calls") if field == "calls"
                         else (value, "s", "self time"))
    certified = search.get("suffix_certified", 0)
    iterations = search.get("suffix_iterations", 0)
    skips = search.get("gate_skips", 0)
    hits, misses = search.get("cache_hits", 0), search.get("cache_misses", 0)
    tally = traced["churn_tally"]
    metrics.update({
        "dp_solver.nodes_explored": (search.get("nodes_explored", 0), "count",
                                     "SearchStats"),
        "dp_solver.suffix_iterations": (iterations, "count", "SearchStats"),
        "dp_solver.suffix_certified_ratio": (
            ratio(certified, certified + iterations), "ratio",
            "certified / (certified + iterations)"),
        "planner.candidates_killed": (
            search.get("candidates_killed_unevaluated", 0), "count",
            "SearchStats"),
        "planner.families_skipped": (search.get("families_skipped", 0),
                                     "count", "SearchStats"),
        "simulator.gate_skip_ratio": (
            ratio(skips, skips + search.get("candidates_evaluated", 0)),
            "ratio", "gate skips / (skips + candidates evaluated)"),
        "search_cache.hit_ratio": (ratio(hits, hits + misses), "ratio",
                                   "SearchStats hits / (hits + misses)"),
        "search_cache.layer_cache_hits": (search.get("layer_cache_hits", 0),
                                          "count", "SearchStats"),
        "controller.warm_ratio": (
            ratio(tally.get("replans_warm", 0), tally.get("replans", 0)),
            "ratio", "warm replans / replans"),
    })
    for name, counter in TIER_METRICS.items():
        metrics[name] = (tally.get(counter, 0), "count", "ChurnReport")
    metrics["trace.overhead_frac"] = (
        traced["wall_s"] / untraced["wall_s"] - 1.0, "ratio",
        f"traced {traced['wall_s']:.3f}s / untraced "
        f"{untraced['wall_s']:.3f}s over {traced['ops']} ops, minus 1")
    metrics["trace.spans"] = (traced["spans"], "count", "spans recorded")
    return metrics


# -- report ---------------------------------------------------------------------


def machine_stamp(numpy_version: str) -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"cpu={model!r} nproc={os.cpu_count()} numpy={numpy_version} "
            f"python={platform.python_version()}")


def report(args, metrics: dict[str, tuple], child: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    attempted, failed = child["attempted"], child["failed"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={child['ops']} wall={child['wall_s']:.3f}s")
    print(f"# machine: {machine_stamp(child['numpy'])}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:38s} {value:>16.6g} {unit:6s} ({note})")
    print(f"{'fail_frac':38s} {ratio(failed, attempted):>16.6g} ratio  "
          f"({failed} failed of {attempted} attempted)")
    for failure in child["failures"]:
        print(f"# FAILED: {failure}")
    for root, layers in sorted(child.get("split", {}).items()):
        total = sum(layers.values())
        shares = ", ".join(
            f"{name} {100 * seconds / total:.0f}%" for name, seconds in
            sorted(layers.items(), key=lambda item: -item[1])[:6])
        print(f"# self-time split under {root!r} ({total:.3f}s): {shares}")
    print("# plan digests (first operation): "
          + json.dumps(child["digests"], sort_keys=True))
    for name, counters in child["counters"].items():
        print(f"# counters [{name}]: {json.dumps(counters, sort_keys=True)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))


def parse_args(argv: list[str]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup", "workload"),
                        default="main", help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, default=0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no planner source at {SRC}/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.role == "setup":
        return setup_role(args)
    if args.role == "workload":
        return workload_role(args)

    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        if args.trace:
            untraced = run_workload(args, deadline, seconds=args.seconds / 2,
                                    trace=0)
            child = run_workload(args, deadline, ops=untraced["ops"],
                                 trace=1)
            metrics = per_layer(child, untraced)
            for key in ("attempted", "failed", "failures"):
                child[key] += untraced[key]
        else:
            setup = [time_setup(args, deadline) for _ in range(SETUP_PROBES)]
            child = run_workload(args, deadline, seconds=args.seconds,
                                 trace=0)
            metrics = end_to_end(child, setup)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(args, metrics, child)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
