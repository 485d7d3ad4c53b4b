"""Benchmark regenerating Figure 6: iteration-time error on a heterogeneous RTX cluster.

Runs the corresponding experiment harness (``repro.experiments.figure6``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_figure6(bench_scale):
    table = run_experiment("figure6", bench_scale)
    assert table.rows
