"""Golden plan digests: 12 planner scenarios x 3 solver configs.

Every scenario's chosen plan is pinned by the SHA-256 of its
``plan_to_json`` encoding in ``plan_digests.json``.  The digests were
captured under the default config, and every config below must reproduce
them byte for byte:

* ``default`` -- adaptive recursion/engine dispatch;
* ``engine`` -- the layered engine forced on every solve (the
  ``ENGINE_MIN_STATES`` dispatch threshold monkeypatched to 0; budgeted
  solves run on the engine anyway);
* ``exhaustive`` -- ``exhaustive_oracle.exhaustive_planning``: every
  planner prune off and every DP solve answered by the plain exhaustive
  recursion every production path is checked against.

This is the safety contract for deleting solver paths: a change that keeps
these digests keeps every chosen plan.  Regenerate the digests only for a
change that is *meant* to alter plans::

    PYTHONPATH=src python tests/golden/test_golden_plans.py
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib

import pytest

from repro.core import dp_solver
from repro.core.objectives import Objective
from repro.core.planner import SailorPlanner
from repro.core.serialization import plan_to_json
from repro.core.simulator import build_environment
from repro.hardware.topology import ClusterTopology
from repro.models.catalog import get_model
from repro.models.spec import TrainingJobSpec

DIGESTS_PATH = pathlib.Path(__file__).with_name("plan_digests.json")

SCENARIO_NAMES = (
    "mixed-maxthr", "mixed-mincost", "mixed-budget", "mixed-floor",
    "mixed-maxgpus", "a100-maxthr", "geo-maxthr", "geo-mincost",
    "geo-budget", "neo-maxthr", "mixed-engine",
    "bigmixed-maxthr",
)


def _exhaustive():
    # Imported on use: the oracle lives in tests/, which pytest puts on
    # sys.path but a plain ``python tests/golden/...`` capture does not.
    from exhaustive_oracle import exhaustive_planning
    return exhaustive_planning()


#: ``name -> (context manager factory, engine forced)``.
CONFIGS = {
    "default": (contextlib.nullcontext, False),
    "engine": (contextlib.nullcontext, True),
    "exhaustive": (_exhaustive, False),
}

CASES = [(scenario, config)
         for scenario in SCENARIO_NAMES for config in CONFIGS]


def build_scenarios() -> dict[str, tuple]:
    """``name -> (env, job, topology, objective, engine forced)``.

    Budgets are 0.6x the unconstrained optimum's cost, computed under the
    default config, so every config solves the identical objective.
    """
    opt_job = TrainingJobSpec(model=get_model("OPT-350M"),
                              global_batch_size=256, sequence_length=2048)
    neo_job = TrainingJobSpec(model=get_model("GPT-Neo-2.7B"),
                              global_batch_size=256, sequence_length=2048)
    mixed = ClusterTopology.single_zone(
        "us-central1-a", {"a2-highgpu-4g": 4, "n1-standard-v100-4": 4})
    big_mixed = ClusterTopology.single_zone(
        "us-central1-a", {"a2-highgpu-4g": 8, "n1-standard-v100-4": 8})
    geo = ClusterTopology(nodes={
        "us-central1-a": {"a2-highgpu-4g": 2},
        "us-central1-b": {"a2-highgpu-4g": 2},
        "us-west1-a": {"a2-highgpu-4g": 2},
    })
    opt_env = build_environment(opt_job, mixed, seed=7)
    geo_env = build_environment(opt_job, geo, seed=11)
    neo_env = build_environment(neo_job, mixed, seed=13)
    a100_only = mixed.restricted_to_gpu("A100-40")

    unconstrained = SailorPlanner(opt_env).plan(opt_job, mixed,
                                                Objective.max_throughput())
    budget = unconstrained.evaluation.cost_per_iteration_usd * 0.6
    unconstrained_geo = SailorPlanner(geo_env).plan(
        opt_job, geo, Objective.max_throughput())
    budget_geo = unconstrained_geo.evaluation.cost_per_iteration_usd * 0.6

    scenarios = {
        "mixed-maxthr": (opt_env, opt_job, mixed,
                         Objective.max_throughput(), False),
        "mixed-mincost": (opt_env, opt_job, mixed, Objective.min_cost(),
                          False),
        "mixed-budget": (opt_env, opt_job, mixed, Objective.max_throughput(
            max_cost_per_iteration_usd=budget), False),
        "mixed-floor": (opt_env, opt_job, mixed, Objective.min_cost(
            min_throughput_iters_per_s=0.05), False),
        "mixed-maxgpus": (opt_env, opt_job, mixed,
                          Objective.max_throughput(max_gpus=8), False),
        "a100-maxthr": (opt_env, opt_job, a100_only,
                        Objective.max_throughput(), False),
        "geo-maxthr": (geo_env, opt_job, geo, Objective.max_throughput(),
                       False),
        "geo-mincost": (geo_env, opt_job, geo, Objective.min_cost(), False),
        "geo-budget": (geo_env, opt_job, geo, Objective.max_throughput(
            max_cost_per_iteration_usd=budget_geo), False),
        "neo-maxthr": (neo_env, neo_job, mixed, Objective.max_throughput(),
                       False),
        "mixed-engine": (opt_env, opt_job, mixed, Objective.max_throughput(),
                         True),
        "bigmixed-maxthr": (opt_env, opt_job, big_mixed,
                            Objective.max_throughput(), False),
    }
    assert tuple(scenarios) == SCENARIO_NAMES
    return scenarios


def plan_digest(scenario: tuple, config: tuple) -> str | None:
    """SHA-256 of the chosen plan's JSON; ``None`` when no plan is found.

    The ``mixed-engine`` scenario forces the engine on top of whichever
    config runs it.
    """
    env, job, topology, objective, scenario_engine = scenario
    regime, engine_forced = config
    engine_forced = engine_forced or scenario_engine
    planner = SailorPlanner(env)
    with pytest.MonkeyPatch.context() as mp, regime():
        if engine_forced:
            mp.setattr(dp_solver, "ENGINE_MIN_STATES", 0)
        result = planner.plan(job, topology, objective)
    if not result.found:
        return None
    return hashlib.sha256(plan_to_json(result.plan).encode()).hexdigest()


@pytest.fixture(scope="module")
def scenarios() -> dict[str, tuple]:
    return build_scenarios()


@pytest.fixture(scope="module")
def golden() -> dict[str, str | None]:
    return json.loads(DIGESTS_PATH.read_text())


@pytest.mark.parametrize("scenario_name,config_name", CASES)
def test_plan_digest_is_golden(scenarios, golden, scenario_name,
                               config_name):
    digest = plan_digest(scenarios[scenario_name], CONFIGS[config_name])
    assert digest is not None
    assert digest == golden[scenario_name]


def capture() -> None:
    """Rewrite the digest file from the default config's plans."""
    scenarios = build_scenarios()
    digests = {name: plan_digest(scenarios[name], CONFIGS["default"])
               for name in SCENARIO_NAMES}
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True)
                            + "\n")


if __name__ == "__main__":
    capture()
