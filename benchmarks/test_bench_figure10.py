"""Benchmark regenerating Figure 10: small heterogeneous cluster (deployed plans).

Runs the corresponding experiment harness (``repro.experiments.figure10``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_figure10(bench_scale):
    table = run_experiment("figure10", bench_scale)
    assert table.rows
