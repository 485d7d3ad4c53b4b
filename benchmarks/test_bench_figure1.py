"""Benchmark regenerating Figure 1: motivation -- heterogeneous and multi-zone configurations.

Runs the corresponding experiment harness (``repro.experiments.figure1``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_figure1(bench_scale):
    table = run_experiment("figure1", bench_scale)
    assert table.rows
