"""Benchmark regenerating Figure 12: geo-distributed training, 5 zones / 2 regions.

Runs the corresponding experiment harness (``repro.experiments.figure12``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_figure12(bench_scale):
    table = run_experiment("figure12", bench_scale)
    assert table.rows
