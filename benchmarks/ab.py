"""Judge wall time: alternating A/B pairs of the perfbench workloads.

Run from the repository root::

    python3 benchmarks/ab.py REF [WORKLOAD ...]

``REF`` (any git revision) is exported with ``git archive`` to a temporary
directory and is the parent side; the working tree is the change side.
For every workload in BENCHMARK.json (or only the named ones), the
benchmark command runs ``--workload W --seconds <run_seconds>`` on each
side in 10 pairs, and the side that runs first alternates from pair to
pair, so drift on the machine falls on both sides alike.

For every end-to-end metric it prints each side's median and range, the
change/parent ratio of the medians and the pairs the change won.  It exits
1 when a run is not ``correct``, when the change fails a larger share of
operations than the parent, or when a change median is worse than the
parent's by more than the metric's BENCHMARK.json bound; 2 on a usage
error.  It reads nothing of the program but ``perfbench/`` and
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Parent/change pairs per workload.
PAIRS = 10


def export_revision(ref: str, dest: str) -> None:
    """Write the committed tree of ``ref`` into ``dest`` (``ValueError``
    when git cannot export it)."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                              ref], capture_output=True, check=False)
    if archive.returncode != 0:
        raise ValueError(f"cannot export {ref!r}: "
                         f"{archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: str, command: list[str], workload: str,
             seconds: float) -> dict:
    """One benchmark run in ``tree``: the JSON object it printed last, or
    an incorrect empty run when it exits non-zero or prints no result."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    error = proc.stderr.strip().splitlines() or [
        f"exit {proc.returncode} without a result line"]
    return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
            "error": error[-1]}


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def judge(pairs: list[tuple[dict, dict]],
          end_to_end: list[dict]) -> tuple[list[str], list[str]]:
    """``(report lines, failures)`` for one workload's ``(parent, change)``
    run pairs against BENCHMARK.json's end-to-end metric declarations."""
    lines, failures = [], []
    sides = {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]}
    for side, runs in sides.items():
        for run in runs:
            if not run["correct"]:
                failures.append(f"a {side} run is not correct: "
                                f"{run.get('error', 'failed operations')}")
    shares = {side: failed_share(runs) for side, runs in sides.items()}
    lines.append(f"{'fail_frac':20s} parent {shares['parent']:.4g}  "
                 f"change {shares['change']:.4g}")
    if shares["change"] > shares["parent"]:
        failures.append(f"the change fails {shares['change']:.2%} of "
                        f"operations, the parent {shares['parent']:.2%}")
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                  for p, c in pairs
                  if name in p["metrics"] and name in c["metrics"]]
        if not values:
            continue
        parent = [p for p, _ in values]
        change = [c for _, c in values]
        p50, c50 = statistics.median(parent), statistics.median(change)
        won = sum((c < p) if lower else (c > p) for p, c in values)
        worse = (c50 > p50 * (1 + bound)) if lower else (c50 < p50 * (1 - bound))
        ratio = c50 / p50 if p50 else float("nan")
        lines.append(
            f"{name:20s} parent {p50:.4g} [{min(parent):.4g}, "
            f"{max(parent):.4g}]  change {c50:.4g} [{min(change):.4g}, "
            f"{max(change):.4g}]  ratio {ratio:.3f}  "
            f"won {won}/{len(values)}" + ("  WORSE" if worse else ""))
        if worse:
            failures.append(
                f"{name}: change median {c50:.4g} {metric['unit']} is worse "
                f"than the parent's {p50:.4g} by more than {bound:.0%}")
    return lines, failures


def parse_args(argv: list[str]):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision of the parent side")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help="workloads to run (default: every workload "
                             "in BENCHMARK.json)")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(args.workloads) - set(declared))
    if unknown:
        print(f"ab: unknown workload(s) {', '.join(unknown)}; "
              f"BENCHMARK.json declares {', '.join(declared)}",
              file=sys.stderr)
        return 2
    workloads = args.workloads or declared
    failures = []
    with tempfile.TemporaryDirectory(prefix="ab-parent-") as parent_tree:
        try:
            export_revision(args.ref, parent_tree)
        except ValueError as exc:
            print(f"ab: {exc}", file=sys.stderr)
            return 2
        trees = {"parent": parent_tree, "change": ROOT}
        for workload in workloads:
            pairs = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else \
                    ("change", "parent")
                runs = {}
                for side in order:
                    print(f"[ab] {workload} pair {i + 1}/{PAIRS}: {side}",
                          file=sys.stderr, flush=True)
                    runs[side] = run_once(trees[side], spec["command"],
                                          workload, spec["run_seconds"])
                pairs.append((runs["parent"], runs["change"]))
            lines, found = judge(pairs, spec["end_to_end"])
            print(f"== {workload}: {args.ref} (parent) vs working tree "
                  f"(change), {PAIRS} alternating pairs")
            for line in lines:
                print(line)
            failures += [f"{workload}: {failure}" for failure in found]
    for failure in failures:
        print(f"FAIL {failure}")
    print("ab: " + ("FAIL" if failures else "ok, within every bound"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
