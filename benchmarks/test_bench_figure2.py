"""Benchmark regenerating Figure 2: A100 availability trace over 8 hours.

Runs the corresponding experiment harness (``repro.experiments.figure2``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_figure2(bench_scale):
    table = run_experiment("figure2", bench_scale)
    assert table.rows
