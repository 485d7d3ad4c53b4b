"""Benchmark regenerating Table 3: Sailor search-time breakdown.

Runs the corresponding experiment harness (``repro.experiments.table3``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_table3(bench_scale):
    table = run_experiment("table3", bench_scale)
    assert table.rows
