"""Benchmark regenerating Figure 11: geo-distributed training, 4 zones / 2 regions.

Runs the corresponding experiment harness (``repro.experiments.figure11``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_figure11(bench_scale):
    table = run_experiment("figure11", bench_scale)
    assert table.rows
