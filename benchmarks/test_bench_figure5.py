"""Benchmark regenerating Figure 5: estimation error on a homogeneous GH200 cluster.

Runs the corresponding experiment harness (``repro.experiments.figure5``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_figure5(bench_scale):
    table = run_experiment("figure5", bench_scale)
    assert table.rows
