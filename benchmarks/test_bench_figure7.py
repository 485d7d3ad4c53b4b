"""Benchmark regenerating Figure 7: planner throughput on homogeneous A100 clusters.

Runs the corresponding experiment harness (``repro.experiments.figure7``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_figure7(bench_scale):
    table = run_experiment("figure7", bench_scale)
    assert table.rows
