"""Benchmark regenerating Figure 8: heterogeneous A100+V100 clusters, OPT-350M.

Runs the corresponding experiment harness (``repro.experiments.figure8``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_figure8(bench_scale):
    table = run_experiment("figure8", bench_scale)
    assert table.rows
