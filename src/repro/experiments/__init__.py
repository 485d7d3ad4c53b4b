"""Experiment harnesses: one module per paper figure/table.

Every module exposes a ``run(scale=...)`` function returning an
:class:`~repro.experiments.common.ExperimentTable` whose rows mirror the
series the paper plots.  ``scale="paper"`` uses the paper's cluster sizes
(slow: hundreds of GPUs and 300-second baseline search caps);
``scale="small"`` shrinks clusters and time limits so the whole suite runs
on a laptop -- the benchmarks under ``benchmarks/`` run the tiny scale
(``REPRO_BENCH_SCALE`` overrides it).  Each module's ``table.notes`` line
states the shape the paper reports for its table or figure.
"""

from repro.experiments.common import (
    ExperimentTable,
    ExperimentScale,
    opt_350m_job,
    gpt_neo_job,
    mixed_a100_v100_topology,
    a100_topology,
    geo_topology,
)

__all__ = [
    "ExperimentTable",
    "ExperimentScale",
    "opt_350m_job",
    "gpt_neo_job",
    "mixed_a100_v100_topology",
    "a100_topology",
    "geo_topology",
]
