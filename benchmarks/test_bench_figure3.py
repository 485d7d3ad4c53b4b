"""Benchmark regenerating Figure 3: peak-memory estimates vs. real footprint.

Runs the corresponding experiment harness (``repro.experiments.figure3``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_figure3(bench_scale):
    table = run_experiment("figure3", bench_scale)
    assert table.rows
