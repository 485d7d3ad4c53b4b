"""Benchmark regenerating Figure 13: minimise cost under a throughput constraint.

Runs the corresponding experiment harness (``repro.experiments.figure13``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_figure13(bench_scale):
    table = run_experiment("figure13", bench_scale)
    assert table.rows
