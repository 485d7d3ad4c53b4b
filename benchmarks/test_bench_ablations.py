"""Benchmark regenerating Ablations of Sailor design choices.

Runs the corresponding experiment harness (``repro.experiments.ablations``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_ablations(bench_scale):
    table = run_experiment("ablations", bench_scale)
    assert table.rows
