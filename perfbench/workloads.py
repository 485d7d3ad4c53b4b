"""Seeded workloads of the planner benchmark, and their correctness checks.

Each workload generates its inputs from the seed, runs whole *operations*
(units of work) until its time is up, and checks every output.  The
figures below were measured on a 2-vCPU x86 VM (Xeon, 2.0 GHz, numpy 2.4,
Python 3.11), one single-threaded process per workload.

``large-pool``
    Why: the planner's scale wall.  Cold max-throughput plans on a
    single-zone A100 + V100 pool of 1024 GPUs; the seed moves zero to four
    nodes from V100 to A100 (the chosen plan stays the same).  An
    operation is one cold ``SailorPlanner.plan`` plus ``result_to_json``
    (fresh environment, planner and search context, as a CLI ``plan``).
    Loads the resource-state engine: of a ~7 s plan, the forward passes
    (``compute_forward_layers``, 145 calls) take ~4.1 s and backward
    scoring (``run_backward``) ~1.9 s, with ~305 MB peak RSS.  Leaves idle
    the budget bounds (0 calls), the straggler loop (0 suffix iterations)
    and the runtime.

``budget``
    Why: the budget cliff (ROADMAP item 4).  Cold budget-constrained plans
    on an 80-GPU A100 + V100 pool; the seed moves zero or one node from
    V100 to A100.  The ceilings are fixed fractions (0.7, 0.9, 1.1) of the
    unconstrained optimum's cost, priced once while setting up; 0.7 binds
    and 1.1 does not.  An operation is one sweep over the three ceilings
    (~1.6 s, ~3.6 s and ~4.0 s).  Loads the scalar straggler/suffix loop:
    ``dp_solver`` self time is ~80% of the 1.1x plan (~0.37M suffix
    iterations per sweep), while the engine's forward, backward and bound
    passes take ~4% each.  Leaves idle the runtime.

``churn``
    Why: replanning as capacity comes and goes (the paper's dynamic-
    availability experiments).  The seed starts a stream of independent
    ``FaultScenarioGenerator.churn_trace`` sub-traces (30 events each,
    one fault every 28.8 simulated seconds).  An operation times one cold
    plan of the base pool, then replays four sub-traces -- preemption
    bursts, node flaps, quota cuts and zone outages -- through
    ``ChurnReplayer``, each with a fresh controller, on the two-zone,
    three-pool churn topology.  Every operation holds the same mix of
    fault kinds: with a free mix, which kinds a run happened to draw moved
    its decision p50 by up to 40% from seed to seed.  Replans are small and warm (~80% of them
    reuse the controller's search context), so the search cache serves
    hits here where the other workloads build cold.  Loads the scalar B&B
    recursion (``dp_solver`` self time), enumeration (``planner`` self
    time), the simulator and the controller: ~20 events/s, decision p50
    ~30-45 ms.  Leaves idle the resource-state engine
    (``resource_state.forward_calls`` is 0).
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.objectives import Objective
from repro.core.planner import SailorPlanner
from repro.core import serialization
from repro.core.serialization import plan_from_json, plan_to_json
from repro.core.simulator import SailorSimulator, build_environment
from repro.hardware.topology import ClusterTopology
from repro.models.catalog import get_model
from repro.models.spec import TrainingJobSpec
from repro.runtime.controller import ReplanPolicy
from repro.runtime.faults import FaultScenarioGenerator
from repro.runtime.replay import ChurnReplayer

#: The seed whose plan digests are committed in ``digests.json``.
DEFAULT_SEED = 0

A100, V100 = "a2-highgpu-4g", "n1-standard-v100-4"
ZONE_A, ZONE_B = "us-central1-a", "us-central1-b"

LARGE_POOL_NODES = 128  # per type before the seeded shift: 1024 GPUs
LARGE_POOL_MAX_SHIFT = 4
BUDGET_NODES = 10  # per type: 80 GPUs
BUDGET_FRACTIONS = (0.7, 0.9, 1.1)
CHURN_POOLS = {(ZONE_A, A100): 4, (ZONE_A, V100): 4, (ZONE_B, A100): 2}
CHURN_EVENTS = 30  # per replayed sub-trace
#: One sub-trace of each kind per operation, so every operation replays
#: the same mix of fault kinds and only their details follow the seed.
CHURN_KINDS = ("preemption_burst", "node_flap", "quota_cut", "zone_outage")
CHURN_SECONDS_PER_EVENT = 28.8  # 1000 events over 8 hours
CHURN_ENV_SEED = 7


def digest(texts: list[str]) -> str:
    """SHA-256 over serialized plans, in order."""
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


@dataclass
class Checks:
    """Operations and correctness checks attempted, and those that failed.

    A failure is a call that raised, a plan that was not found, a check
    that did not hold, or a dropped event.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.tally(1, 0 if ok else 1, what)
        return ok

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what} ({failed} of {attempted})")


@dataclass
class RunLog:
    """What one workload process measured and checked."""

    checks: Checks = field(default_factory=Checks)
    #: Wall seconds of each cold planning call (plan + result_to_json),
    #: keyed by the planning input.
    plan_s: dict[str, list[float]] = field(default_factory=dict)
    #: Wall seconds of each controller decision (``churn`` only).
    decision_s: list[float] = field(default_factory=list)
    events: int = 0
    event_wall_s: float = 0.0
    #: Simulated iteration time and cost of each chosen plan.
    plan_iter_s: list[float] = field(default_factory=list)
    plan_usd: list[float] = field(default_factory=list)
    #: (iterations completed, simulated seconds) per replay or plan.
    goodput: list[tuple[float, float]] = field(default_factory=list)
    #: Digests of the plans each operation chose, keyed by its input;
    #: repeating one input must repeat its digest.
    digests: dict[str, list[str]] = field(default_factory=dict)
    #: Exact work counters of the first operation.
    counters: dict = field(default_factory=dict)
    #: ChurnReport counters summed over every replay.
    churn_tally: dict = field(default_factory=dict)


def check_plan(env, result, log: RunLog, what: str,
               ceiling: float | None = None) -> str | None:
    """Check one planner result; return its serialized plan if found."""
    checks = log.checks
    if not checks.record(result.found, f"{what}: no plan found"):
        return None
    text = plan_to_json(result.plan)
    checks.record(plan_to_json(plan_from_json(text)) == text,
                  f"{what}: plan does not round-trip")
    fresh = SailorSimulator(env).evaluate(plan_from_json(text))
    checks.record(
        fresh.iteration_time_s == result.evaluation.iteration_time_s
        and fresh.cost_per_iteration_usd
        == result.evaluation.cost_per_iteration_usd,
        f"{what}: fresh simulator disagrees with the planner's evaluation")
    if ceiling is not None:
        checks.record(result.evaluation.cost_per_iteration_usd <= ceiling,
                      f"{what}: cost above the budget ceiling")
    return text


class Workload:
    """Seeded inputs plus one repeatable operation.

    ``build`` makes an environment; the traced run wraps it and sets
    ``tracer``, which records each planning request as a span and pauses
    while outputs are checked.
    """

    name = ""
    env_seed = 0

    def __init__(self) -> None:
        self.build = build_environment
        self.tracer = None

    def environment(self):
        return self.build(self.job, self.topology, seed=self.env_seed)

    def prepare(self, log: RunLog) -> None:
        """Set-up that is not part of any timed operation."""

    def operation(self, log: RunLog) -> None:
        raise NotImplementedError

    def untraced(self):
        """A context that records no spans (set-up, output checks)."""
        return (self.tracer.paused() if self.tracer is not None
                else contextlib.nullcontext())

    def checked(self, env, result, log: RunLog, what: str,
                ceiling: float | None = None) -> str | None:
        with self.untraced():
            return check_plan(env, result, log, what, ceiling)

    def cold_plan(self, objective, log: RunLog, what: str,
                  ceiling: float | None = None):
        """One CLI-style planning call, timed, then checked.

        Fresh environment, planner and search context; the timed part is
        ``SailorPlanner.plan`` plus ``result_to_json``.  Returns the result
        and its serialized plan; the plan is ``None`` when it failed.
        """
        env = self.environment()
        request = (self.tracer.span(what) if self.tracer is not None
                   else contextlib.nullcontext())
        start = time.perf_counter()
        try:
            with request:
                result = SailorPlanner(env).plan(self.job, self.topology,
                                                 objective)
                serialization.result_to_json(result)
        except Exception as exc:  # a raising call is a counted failure
            log.checks.record(False, f"{what}: raised {exc!r}")
            return None, None
        elapsed = time.perf_counter() - start
        log.checks.record(True, what)
        log.plan_s.setdefault(what, []).append(elapsed)
        text = self.checked(env, result, log, what, ceiling)
        log.digests.setdefault(what, []).append(digest([text or ""]))
        if text is not None and what not in log.counters:
            log.counters[what] = result.search_stats.as_dict()
        return result, text


def _job(batch: int) -> TrainingJobSpec:
    return TrainingJobSpec(model=get_model("OPT-350M"),
                           global_batch_size=batch)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _record_quality(log: RunLog, evaluation) -> None:
    log.plan_iter_s.append(evaluation.iteration_time_s)
    log.plan_usd.append(evaluation.cost_per_iteration_usd)


def _record_steady_plan(log: RunLog, evaluation) -> None:
    """Quality of a plan that runs without churn: one iteration per
    iteration time."""
    _record_quality(log, evaluation)
    log.goodput.append((1.0, evaluation.iteration_time_s))


class LargePool(Workload):
    """Cold max-throughput plans on a seeded 1024-GPU pool."""

    name = "large-pool"

    def __init__(self, seed: int) -> None:
        super().__init__()
        shift = int(_rng(seed, 1).integers(0, LARGE_POOL_MAX_SHIFT + 1))
        self.job = _job(512)
        self.topology = ClusterTopology.single_zone(ZONE_A, {
            A100: LARGE_POOL_NODES + shift, V100: LARGE_POOL_NODES - shift})

    def operation(self, log: RunLog) -> None:
        result, text = self.cold_plan(Objective.max_throughput(), log,
                                      "large-pool plan")
        if text is not None:
            _record_steady_plan(log, result.evaluation)


class Budget(Workload):
    """A sweep of cold budget-constrained plans on a seeded 80-GPU pool."""

    name = "budget"

    def __init__(self, seed: int) -> None:
        super().__init__()
        shift = int(_rng(seed, 2).integers(0, 2))
        self.job = _job(512)
        self.topology = ClusterTopology.single_zone(ZONE_A, {
            A100: BUDGET_NODES + shift, V100: BUDGET_NODES - shift})
        self.ceilings: list[float] = []

    def prepare(self, log: RunLog) -> None:
        """Price the unconstrained optimum once; the ceilings follow."""
        result = SailorPlanner(self.environment()).plan(
            self.job, self.topology, Objective.max_throughput())
        if log.checks.record(result.found, "budget: no unconstrained plan"):
            optimum = result.evaluation.cost_per_iteration_usd
            self.ceilings = [f * optimum for f in BUDGET_FRACTIONS]

    def operation(self, log: RunLog) -> None:
        for fraction, ceiling in zip(BUDGET_FRACTIONS, self.ceilings):
            objective = Objective.max_throughput(
                max_cost_per_iteration_usd=ceiling)
            result, text = self.cold_plan(objective, log,
                                          f"budget {fraction}x plan",
                                          ceiling=ceiling)
            if text is not None:
                _record_steady_plan(log, result.evaluation)


class Churn(Workload):
    """Replays of seeded churn traces through the replanning controller.

    The seed starts a stream of independent sub-traces of
    ``CHURN_EVENTS`` events each.  An operation makes one cold plan of the
    base pool, then replays one sub-trace of each fault kind, each with a
    fresh environment and controller.
    """

    name = "churn"
    env_seed = CHURN_ENV_SEED

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed
        self.job = _job(256)
        self.topology = ClusterTopology(nodes={
            ZONE_A: {A100: CHURN_POOLS[(ZONE_A, A100)],
                     V100: CHURN_POOLS[(ZONE_A, V100)]},
            ZONE_B: {A100: CHURN_POOLS[(ZONE_B, A100)]},
        })
        self.objective = Objective.max_throughput()
        self.replays = 0

    def trace(self, index: int, kind: str):
        """Sub-trace ``index`` of this seed's stream, of ``kind`` faults."""
        generator = FaultScenarioGenerator(seed=self.seed * 100_000 + index)
        return generator.churn_trace(
            CHURN_POOLS, duration_s=CHURN_EVENTS * CHURN_SECONDS_PER_EVENT,
            num_events=CHURN_EVENTS, kind_weights={kind: 1.0})

    def operation(self, log: RunLog) -> None:
        """A cold plan of the base pool, then one replay per fault kind."""
        self.cold_plan(self.objective, log, "churn cold plan")
        for kind in CHURN_KINDS:
            index, self.replays = self.replays, self.replays + 1
            self.replay(log, f"trace {index}", self.trace(index, kind))

    def replay(self, log: RunLog, what: str, trace) -> None:
        env = self.environment()
        replayer = ChurnReplayer(
            env, self.job, self.objective,
            policy=ReplanPolicy(deterministic_timing=True))
        controller = replayer.controller
        for name in ("handle_availability_change", "maybe_retry"):
            setattr(controller, name,
                    _timed(getattr(controller, name), log.decision_s))
        start = time.perf_counter()
        try:
            report = replayer.run(trace, base_topology=self.topology)
        except Exception as exc:  # a raising replay is a counted failure
            log.checks.record(False, f"{what}: replay raised {exc!r}")
            return
        log.event_wall_s += time.perf_counter() - start
        log.events += report.events_total
        log.checks.tally(report.events_total, report.events_dropped,
                         f"{what}: events dropped")
        for number, event in enumerate(controller.events):
            result = event.planner_result
            self.checked(env, result, log, f"{what} plan {number}")
            _record_quality(log, result.evaluation)
        log.goodput.append((float(report.iterations_completed),
                            report.duration_s))
        log.digests.setdefault(what, []).append(
            digest([text for _, text in report.plan_history]))
        counters = churn_counters(report)
        if "churn report" not in log.counters:
            log.counters["churn report"] = counters
            log.counters["churn search stats"] = \
                controller.search_stats.as_dict()
        for key, value in counters.items():
            log.churn_tally[key] = log.churn_tally.get(key, 0) + value


def _timed(method, sink: list[float]):
    """``method`` with the wall time of each call appended to ``sink``."""
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)
    return timed


def churn_counters(report) -> dict[str, int]:
    """The exact ChurnReport counters (latency lists left out)."""
    names = ("events_total", "events_applied", "replans", "replans_warm",
             "shrinks", "parks", "keeps", "debounces", "retries",
             "deadline_fallbacks", "switches", "layer_cache_hits",
             "cache_hits", "iterations_completed",
             "iterations_lost_to_rollback")
    return {name: getattr(report, name) for name in names}


WORKLOADS = {cls.name: cls for cls in (LargePool, Budget, Churn)}
