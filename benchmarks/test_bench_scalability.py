"""Benchmark regenerating Section 5.3: planner scalability study.

Runs the corresponding experiment harness (``repro.experiments.scalability``) once
and prints the table the paper reports.
"""

from conftest import run_experiment


def test_bench_scalability(bench_scale):
    table = run_experiment("scalability", bench_scale)
    assert table.rows
