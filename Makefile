# Developer entry points for the Sailor reproduction.
#
#   make test                       tier-1 test suite
#   make lint                       project-invariant static analysis
#                                   (repro.analysis; rules + suppression
#                                   contract in CONTRACTS.md).  Exit 0 on
#                                   a clean tree, 1 on findings, 2 on
#                                   usage errors / rule crashes.
#   make ci                         invariant lint, the --help smokes of
#                                   benchmarks/profile_planner.py and
#                                   benchmarks/ab.py, then one tier-1 run,
#                                   with per-phase wall time printed.  No
#                                   wall-clock comparison: the planner and
#                                   churn points in benchmarks/ run once
#                                   inside tier-1 and pin their plan
#                                   digests and work counters exactly
#                                   (benchmarks/conftest.py plan_work), so
#                                   a disarmed tail kill, family skip,
#                                   certificate or memo fails on any
#                                   machine.  The 1024-8192-GPU points run
#                                   only under BENCH_SCALE=full, e.g.
#                                   BENCH_SCALE=full make test.
#   make ab REF=<rev>               judge wall time: every perfbench
#                                   workload (WORKLOADS=... narrows the
#                                   list) in 10 alternating pairs of REF
#                                   (exported with git archive; default
#                                   HEAD) against the working tree;
#                                   exits 1 on an
#                                   incorrect run, a larger failed share,
#                                   a median worse than its
#                                   BENCHMARK.json bound, or a metric
#                                   whose parent runs spread wider than
#                                   that bound (UNRESOLVED)
#   make profile                    cProfile one planner call (PROFILE_ARGS=...;
#                                   add --stats to dump the SearchStats
#                                   counters as JSON next to the profile,
#                                   --phases to split the wall time into
#                                   forward-build / backward-scoring /
#                                   suffix-solve / evaluation /
#                                   candidate-enumeration buckets)

PYTHON ?= python
# Parent revision and optional workload subset of `make ab`.
REF ?= HEAD
WORKLOADS ?=
PROFILE_ARGS ?=

.PHONY: test lint ci ab profile

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis

ci:
	@set -e; \
	tl=$$(date +%s); \
	PYTHONPATH=src $(PYTHON) -m repro.analysis; \
	PYTHONPATH=src $(PYTHON) benchmarks/profile_planner.py --help > /dev/null; \
	$(PYTHON) benchmarks/ab.py --help > /dev/null; \
	t0=$$(date +%s); echo "[ci] lint + tooling smokes: $$((t0 - tl))s"; \
	PYTHONPATH=src $(PYTHON) -m pytest -x -q; \
	t1=$$(date +%s); echo "[ci] tier-1 tests: $$((t1 - t0))s"; \
	echo "[ci] total: $$((t1 - tl))s"

ab:
	$(PYTHON) benchmarks/ab.py $(REF) $(WORKLOADS)

profile:
	PYTHONPATH=src $(PYTHON) benchmarks/profile_planner.py $(PROFILE_ARGS)
