"""Benchmark regenerating Figure 9: heterogeneous A100+V100 clusters, GPT-Neo-2.7B.

Runs the corresponding experiment harness (``repro.experiments.figure9``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_figure9(bench_scale):
    table = run_experiment("figure9", bench_scale)
    assert table.rows
