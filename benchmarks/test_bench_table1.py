"""Benchmark regenerating Table 1: planner capabilities and search time.

Runs the corresponding experiment harness (``repro.experiments.table1``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_table1(bench_scale):
    table = run_experiment("table1", bench_scale)
    assert table.rows
