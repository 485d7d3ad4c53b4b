#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

Each experiment harness in ``repro.experiments`` reproduces one table or
figure.  This script runs them all and prints the result tables.  By default
it uses the "small" scale (clusters shrunk ~4x) so the whole sweep
finishes on a laptop; pass ``--scale paper`` for the paper's cluster sizes
(slow), or ``--only figure8`` to run a single experiment.

Run with:  python examples/reproduce_paper.py [--scale small|tiny|paper] [--only NAME]
"""

from __future__ import annotations

import argparse
import importlib
import time


EXPERIMENTS = [
    "figure1", "figure2", "figure3", "table1", "figure5", "figure6",
    "figure7", "figure8", "figure9", "figure10", "figure11", "figure12",
    "figure13", "figure14", "table2", "table3", "scalability",
    "reconfiguration", "ablations",
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small",
                        choices=["tiny", "small", "paper"],
                        help="experiment scale (default: small)")
    parser.add_argument("--only", default=None,
                        help="run a single experiment, e.g. 'figure8'")
    args = parser.parse_args()

    names = [args.only] if args.only else EXPERIMENTS
    for name in names:
        if name not in EXPERIMENTS:
            raise SystemExit(f"unknown experiment {name!r}; "
                             f"choose from {', '.join(EXPERIMENTS)}")
        module = importlib.import_module(f"repro.experiments.{name}")
        start = time.perf_counter()
        table = module.run(args.scale)
        elapsed = time.perf_counter() - start
        print("=" * 88)
        print(f"{name}  ({elapsed:.1f}s at scale={args.scale})")
        print("=" * 88)
        print(table.to_text())
        print()


if __name__ == "__main__":
    main()
