"""Benchmark regenerating Figure 14: maximise throughput under a budget constraint.

Runs the corresponding experiment harness (``repro.experiments.figure14``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_figure14(bench_scale):
    table = run_experiment("figure14", bench_scale)
    assert table.rows
