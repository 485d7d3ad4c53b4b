"""Benchmark regenerating Table 2: search times for the Figure 9b clusters.

Runs the corresponding experiment harness (``repro.experiments.table2``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_table2(bench_scale):
    table = run_experiment("table2", bench_scale)
    assert table.rows
