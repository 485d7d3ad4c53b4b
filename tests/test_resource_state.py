"""Unit tests for the resource-state engine (codec, kernels, layered DP).

The codec's bijection contract (module docstring of
``repro.core.resource_state``) is what keeps plans byte-identical across
the tuple -> array encoding change, so it is tested directly here; the
layered engine's end-to-end equivalence with the exhaustive oracle
(``exhaustive_oracle``) is covered both here (small cases) and by the
solver property suites.
"""

import numpy as np
import pytest

from exhaustive_oracle import ExhaustiveSolver
from repro.core.resource_state import (
    STATE_DTYPE,
    ResourceStateCodec,
    ResourceStateEngine,
    StageKernelTable,
    DEDUP_BINCOUNT_RANGE,
    compute_forward_layers,
    dedup_keys,
    layer_pack_weights,
    unpack_states,
)

from test_dp_solver import assert_same_solution, build_solver


@pytest.fixture
def force_engine(engine_thresholds):
    """Force the layered engine on these small pools."""
    with engine_thresholds():
        yield


ROOT = ((("us-central1-a", "a2-highgpu-4g"), 4),
        (("us-central1-a", "n1-standard-v100-4"), 2),
        (("us-west1-a", "a2-highgpu-4g"), 3))


def test_codec_round_trip_bijection():
    codec = ResourceStateCodec(ROOT)
    assert codec.num_slots == 3
    # encode(decode(v)) == v and decode(encode(t)) == t on reachable states.
    assert codec.decode(codec.encode(ROOT)) == ROOT
    partial = (ROOT[0], ROOT[2])  # middle slot exhausted -> dropped pair
    state = codec.encode(partial)
    assert state.tolist() == [4, 0, 3]
    assert codec.decode(state) == partial
    assert np.array_equal(codec.encode(codec.decode(state)), state)


def test_codec_kernels_match_scalar_semantics():
    codec = ResourceStateCodec(ROOT)
    state = codec.encode(ROOT)
    caps = codec.caps_vector({"a2-highgpu-4g": 2})
    assert caps.tolist() == [2, 0, 2]
    clamped = codec.clamp(state, caps)
    assert clamped.tolist() == [2, 0, 2]
    # No-op clamp returns the input object (allocation-free common case).
    assert codec.clamp(clamped, caps) is clamped


# ---------------------------------------------------------------------------
# Forward-pass machinery: packed dedup, chunking, signatures
# ---------------------------------------------------------------------------

def test_layer_pack_weights_are_injective_over_reachable_states():
    root = np.array([4, 2, 3], dtype=STATE_DTYPE)
    weights = layer_pack_weights(root)
    assert weights is not None
    rows = np.array([[a, b, c] for a in range(5) for b in range(3)
                     for c in range(4)], dtype=STATE_DTYPE)
    keys = rows @ weights
    # Distinct, and ascending in lexicographic row order ...
    assert (np.diff(keys) > 0).all()
    # ... and the rows unpack back from their keys.
    unpacked = unpack_states(keys, weights)
    assert unpacked.dtype == STATE_DTYPE
    assert np.array_equal(unpacked, rows)


def test_layer_pack_weights_overflow_falls_back_to_none():
    # Radix product beyond int64 cannot pack exactly -> row-wise fallback.
    huge = np.full(8, 2 ** 9, dtype=STATE_DTYPE)  # (2^9+1)^8 > 2^63
    assert layer_pack_weights(huge) is None
    small = np.full(8, 2 ** 6, dtype=STATE_DTYPE)
    assert layer_pack_weights(small) is not None


@pytest.mark.parametrize("high", [50, 2000, DEDUP_BINCOUNT_RANGE + 5])
def test_dedup_keys_matches_unique(high):
    """Counting and sorting dedups agree with np.unique, from dense keys
    (counting) through sparse ones (sorting) to keys past the counting
    range."""
    keys = np.random.default_rng(7).integers(0, high, size=200)
    unique, inverse = dedup_keys(keys)
    expected, expected_inverse = np.unique(keys, return_inverse=True)
    assert np.array_equal(unique, expected)
    assert np.array_equal(inverse, expected_inverse)
    empty, empty_inverse = dedup_keys(keys[:0])
    assert empty.shape == empty_inverse.shape == (0,)


def _toy_forward_inputs():
    """Two-stage forward problem small enough to eyeball."""
    root = np.array([5, 4], dtype=STATE_DTYPE)
    reqs = [
        np.array([[1, 0], [0, 1], [2, 1]], dtype=STATE_DTYPE),
        np.array([[1, 0], [0, 2]], dtype=STATE_DTYPE),
    ]
    caps = [np.array([9, 9], dtype=STATE_DTYPE),
            np.array([3, 9], dtype=STATE_DTYPE)]
    clamp_active = [False, True]
    return reqs, caps, clamp_active, root


def test_chunked_forward_matches_unchunked():
    """Chunking the fit-test along the state axis is a pure memory knob."""
    reqs, caps, clamp_active, root = _toy_forward_inputs()
    whole = compute_forward_layers(reqs, caps, clamp_active, 16, root)
    chunked = compute_forward_layers(reqs, caps, clamp_active, 16, root,
                                     chunk_elems=1)
    assert whole.states_computed == chunked.states_computed
    assert whole.dedup_hits == chunked.dedup_hits
    for a, b in zip(whole.states, chunked.states):
        assert np.array_equal(a, b)
    for a, b in zip(whole.child_row, chunked.child_row):
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(a, b)
    assert np.array_equal(whole.last_sel, chunked.last_sel)


def test_forward_clamps_children_at_next_stage_caps():
    reqs, caps, clamp_active, root = _toy_forward_inputs()
    forward = compute_forward_layers(reqs, caps, clamp_active, 16, root)
    # Every stage-1 state obeys the stage-1 suffix clamp.
    assert (forward.states[1] <= caps[1]).all()
    # The truncation limit caps fitting combos per state.
    limited = compute_forward_layers(reqs, caps, clamp_active, 1, root)
    assert ((limited.child_row[0] >= 0).sum(axis=1) <= 1).all()


@pytest.mark.parametrize("pp,dp", [(1, 2), (2, 2), (3, 1), (2, 4)])
@pytest.mark.parametrize("goal_cost", [False, True])
def test_engine_matches_exhaustive_recursion(opt_env, opt_job, pp, dp,
                                             goal_cost, force_engine):
    """The layered engine and the exhaustive oracle must choose identical
    assignments."""
    from repro.core.objectives import OptimizationGoal

    goal = (OptimizationGoal.MIN_COST if goal_cost
            else OptimizationGoal.MAX_THROUGHPUT)
    resources = {("us-central1-a", "a2-highgpu-4g"): 4,
                 ("us-central1-a", "n1-standard-v100-4"): 4}
    engine_solver = build_solver(opt_env, opt_job, pp=pp, dp=dp, goal=goal)
    reference = ExhaustiveSolver(build_solver(opt_env, opt_job, pp=pp, dp=dp,
                                              goal=goal))
    assert_same_solution(engine_solver.solve(dict(resources)),
                         reference.solve(dict(resources)))


def test_engine_two_zone_topology(opt_env_geo, opt_job, force_engine):
    resources = {("us-central1-a", "a2-highgpu-4g"): 2,
                 ("us-west1-a", "a2-highgpu-4g"): 2}
    engine_solver = build_solver(opt_env_geo, opt_job, pp=2, dp=2,
                                 node_types=("a2-highgpu-4g",))
    reference = ExhaustiveSolver(build_solver(
        opt_env_geo, opt_job, pp=2, dp=2, node_types=("a2-highgpu-4g",)))
    assert_same_solution(engine_solver.solve(dict(resources)),
                         reference.solve(dict(resources)))


def test_engine_reports_layer_states_as_nodes(opt_env, opt_job, force_engine):
    solver = build_solver(opt_env, opt_job, pp=2, dp=2)
    resources = {("us-central1-a", "a2-highgpu-4g"): 4}
    before = solver.stats.nodes_explored
    assert solver.solve(resources) is not None
    assert solver.stats.nodes_explored > before
    assert solver._engine is not None
    assert solver._engine.forward.states_computed > 0


def test_engine_infeasible_root_returns_none(opt_env, opt_job, force_engine):
    solver = build_solver(opt_env, opt_job, pp=2, dp=4)
    # One node cannot host four replicas per stage over two stages.
    assert solver.solve({("us-central1-a", "a2-highgpu-4g"): 1}) is None


# ---------------------------------------------------------------------------
# Shared backward structures + budget bound tables
# ---------------------------------------------------------------------------

def test_forward_row_cols_matches_local_computation():
    reqs, caps, clamp_active, root = _toy_forward_inputs()
    forward = compute_forward_layers(reqs, caps, clamp_active, 16, root)
    crow = forward.child_row[0][0]
    cols, child = forward.row_cols(0, 0, last=False)
    assert np.array_equal(cols, (crow >= 0).nonzero()[0])
    assert np.array_equal(child, crow[cols])
    last_cols, last_child = forward.row_cols(1, 0, last=True)
    assert np.array_equal(last_cols, forward.last_sel[0].nonzero()[0])
    assert last_child is None


def test_engine_matches_exhaustive_recursion_over_random_pools(
        opt_env, opt_job, force_engine):
    """Randomized equivalence sweep for the layered engine: over seeded
    random pools x objectives x (pp, dp) shapes, the engine (forced on
    these small pools) must return exactly the solution of the exhaustive
    oracle -- same placements, bitwise-equal objective fields."""
    import random

    from repro.core.objectives import OptimizationGoal

    rng = random.Random(20260808)
    compared = 0
    for _ in range(12):
        resources = {("us-central1-a", "a2-highgpu-4g"): rng.randint(0, 4),
                     ("us-central1-a", "n1-standard-v100-4"): rng.randint(0, 4)}
        resources = {key: count for key, count in resources.items() if count}
        if not resources:
            continue
        pp = rng.choice([1, 2, 3])
        dp = rng.choice([1, 2, 4])
        goal = rng.choice([OptimizationGoal.MAX_THROUGHPUT,
                           OptimizationGoal.MIN_COST])

        engine_solver = build_solver(opt_env, opt_job, pp=pp, dp=dp,
                                     goal=goal)
        reference = ExhaustiveSolver(build_solver(opt_env, opt_job, pp=pp,
                                                  dp=dp, goal=goal))

        a = engine_solver.solve(dict(resources))
        b = reference.solve(dict(resources))
        assert engine_solver._engine is not None
        assert reference.solver._engine is None
        assert_same_solution(a, b)
        if a is None:
            continue
        compared += 1
    assert compared >= 6


def test_backward_tie_break_is_first_minimum():
    """Deliberate score ties: the backward argmin must pick the first
    minimum in master ranking order, as the recursion's strict-improvement
    scan does."""
    root_pairs = ((("z", "a"), 3), (("z", "b"), 3))
    codec = ResourceStateCodec(root_pairs)
    entries = []
    for row in ([1, 0], [0, 1], [1, 1]):
        items = tuple((root_pairs[i][0], count)
                      for i, count in enumerate(row) if count)
        entries.append([None, None, None, items, 0.0])
    # Combos 0 and 1 score identically (the intended minimum); combo 2 is
    # strictly worse.  First-min tie-break must select combo 0.
    table = StageKernelTable(
        entries=entries, req=codec.combo_req(entries),
        compute=np.array([1.0, 1.0, 2.0]),
        sync=np.array([0.25, 0.25, 0.25]),
        rate=np.array([3.0, 3.0, 3.0]))
    root = codec.encode(root_pairs)
    forward = compute_forward_layers([table.req], [root.copy()], [False], 16,
                                     root)
    engine = ResourceStateEngine(codec, [table], forward,
                                 num_microbatches=2, minimize_cost=False)
    engine.run_backward()
    root_row = 0
    assert engine.arg[0][root_row] == 0  # first of the tied pair
    assert engine.value[0][root_row] == 1.0 + 1.0 * 1.0 + 0.25


def test_engine_budget_tables_match_scalar_probes(opt_env, opt_job,
                                                  force_engine):
    """The whole-layer dominance vectors must agree element-for-element
    with the per-row feasible/projected_cost probes they replace."""
    solver = build_solver(opt_env, opt_job, pp=2, dp=2)
    resources = {("us-central1-a", "a2-highgpu-4g"): 4,
                 ("us-central1-a", "n1-standard-v100-4"): 4}
    assert solver.solve(dict(resources)) is not None
    engine = solver._engine
    for stage in range(2):
        cost, feasible = engine.budget_tables(stage)
        for row in range(engine.forward.states[stage].shape[0]):
            assert bool(feasible[row]) == engine.feasible(stage, row)
            if feasible[row]:
                assert float(cost[row]) == engine.projected_cost(stage, row)


@pytest.mark.parametrize("a100,v100", [(1, 3), (2, 2)])
def test_sentinel_arithmetic_stays_nan_free(opt_env, force_engine, a100,
                                            v100):
    """The sentinel normal form scores a missing or infeasible child +inf
    by arithmetic alone.  Its worst case: the cost objective with Nb = 1
    (``(Nb-1) * max`` multiplies by 0) and a GPU priced at 0 (``rate *
    time`` multiplies a 0 rate), on a pool where some combos have no child
    and some rows are infeasible.  No step may produce a NaN, no engine or
    bound array may hold one, and every solve equals the oracle's."""
    import dataclasses
    import math

    from repro.core.objectives import OptimizationGoal
    from repro.models.catalog import get_model
    from repro.models.spec import TrainingJobSpec

    env = dataclasses.replace(
        opt_env, prices=opt_env.prices.with_gpu_price("V100-16", 0.0))
    pp, dp, mbs = 3, 4, 1
    job = TrainingJobSpec(model=get_model("OPT-350M"),
                          global_batch_size=dp * mbs, sequence_length=2048)
    resources = {("us-central1-a", "a2-highgpu-4g"): a100,
                 ("us-central1-a", "n1-standard-v100-4"): v100}

    def new_solver():
        return build_solver(env, job, pp=pp, dp=dp, mbs=mbs,
                            goal=OptimizationGoal.MIN_COST)

    for budget in (None, math.inf, 1e-3, 7e-4, 1e-6):
        solver = new_solver()
        assert solver.num_microbatches == 1
        with np.errstate(invalid="raise"):  # any 0 * inf or inf - inf raises
            got = solver.solve(dict(resources), budget_per_iteration=budget)
            bounds = solver._engine_bounds()
            dominance = [solver._engine.budget_tables(stage)[0]
                         for stage in range(pp)]
        engine = solver._engine
        assert any((table.rate == 0.0).any() for table in engine.tables)
        assert any((rows < 0).any() for rows in engine.forward.child_row[:-1])
        assert any(np.isinf(value[:-1]).any() for value in engine.value)
        for arrays in (engine.value, engine.time_value, engine.sum_t,
                       engine.max_t, engine.sync_t, engine.rate, dominance,
                       bounds.straggler_lb, bounds.cost_lb, bounds.sync_lb):
            for stage, array in enumerate(arrays):
                assert array.shape == (
                    engine.forward.states[stage].shape[0] + 1,)
                assert not np.isnan(array).any()
        reference = ExhaustiveSolver(new_solver())
        assert_same_solution(got, reference.solve(
            dict(resources), budget_per_iteration=budget))


def test_missing_child_reads_the_sentinel_not_a_real_row():
    """A combo that does not fit (child row -1) must score +inf in both
    backward passes even when the child layer's row 0 is feasible: the
    gathers wrap -1 onto the sentinel, never onto a real row.  Here the
    fast stage-0 combo needs 3 of the 2 nodes; scored through row 0 it
    would win."""
    from repro.core.resource_state import compute_budget_bounds

    root_pairs = ((("z", "a"), 2),)
    codec = ResourceStateCodec(root_pairs)

    def table(footprints, compute):
        entries = [[None, None, None,
                    ((root_pairs[0][0], used),) if used else (), 0.0]
                   for used in footprints]
        return StageKernelTable(
            entries=entries, req=codec.combo_req(entries),
            compute=np.array(compute), sync=np.zeros(len(compute)),
            rate=np.ones(len(compute)))

    # Stage 1's only combo needs no node, so every layer-1 row is feasible.
    tables = [table([1, 3], [2.0, 0.5]), table([0], [1.0])]
    root = codec.encode(root_pairs)
    forward = compute_forward_layers([t.req for t in tables],
                                     [root.copy(), root.copy()],
                                     [False, False], 16, root)
    assert forward.child_row[0].tolist() == [[0, -1]]
    engine = ResourceStateEngine(codec, tables, forward,
                                 num_microbatches=2, minimize_cost=False)
    engine.run_backward()
    assert engine.arg[0][0] == 0
    assert engine.value[0][0] == (2.0 + 1.0) + 1.0 * 2.0 + 0.0
    bounds = compute_budget_bounds(forward, tables, num_microbatches=2)
    assert bounds.straggler_lb[0][0] == 2.0


@pytest.mark.parametrize("goal_cost", [False, True])
def test_empty_child_layer_is_just_its_sentinel(opt_env, opt_job,
                                                force_engine, goal_cost):
    """pp=3 on one A100 node: stage 0 takes the node, no stage-1 combo fits
    and layer 2 is empty.  Neither backward pass special-cases that: every
    stage-1 combo wraps onto the empty layer's sentinel, so every layer is
    infeasible, with +inf values and cost bounds, as the oracle finds."""
    import math

    from repro.core.objectives import OptimizationGoal

    goal = (OptimizationGoal.MIN_COST if goal_cost
            else OptimizationGoal.MAX_THROUGHPUT)
    resources = {("us-central1-a", "a2-highgpu-4g"): 1}
    for budget in (None, math.inf):
        solver = build_solver(opt_env, opt_job, pp=3, dp=1, mbs=1,
                              goal=goal)
        assert solver.solve(dict(resources),
                            budget_per_iteration=budget) is None
        engine = solver._engine
        assert [layer.shape[0] for layer in engine.forward.states] == \
            [1, 1, 0]
        bounds = solver._engine_bounds()
        for stage in range(3):
            assert np.isinf(engine.value[stage]).all()
            assert np.isinf(bounds.cost_lb[stage]).all()
        assert engine.value[2].shape == (1,)  # the sentinel alone
        reference = ExhaustiveSolver(build_solver(opt_env, opt_job, pp=3,
                                                  dp=1, mbs=1, goal=goal))
        assert reference.solve(dict(resources),
                               budget_per_iteration=budget) is None


def test_budget_bounds_mark_infeasible_layers_infinite(opt_env, opt_job,
                                                      force_engine):
    """A suffix no combo chain can complete must carry +inf bounds, the
    same rows the engine's backward values mark infeasible."""
    from repro.core.resource_state import compute_budget_bounds

    solver = build_solver(opt_env, opt_job, pp=2, dp=2)
    resources = {("us-central1-a", "a2-highgpu-4g"): 4,
                 ("us-central1-a", "n1-standard-v100-4"): 4}
    assert solver.solve(dict(resources)) is not None
    engine = solver._engine
    bounds = compute_budget_bounds(engine.forward, engine.tables,
                                   solver.num_microbatches)
    for stage in range(2):
        infeasible = ~np.isfinite(engine.value[stage])
        assert np.array_equal(~np.isfinite(bounds.cost_lb[stage]),
                              infeasible)
        assert np.array_equal(~np.isfinite(bounds.straggler_lb[stage]),
                              infeasible)
        # Feasible rows carry real, positive bounds.
        assert (bounds.cost_lb[stage][~infeasible] > 0).all()
        assert (bounds.straggler_lb[stage][~infeasible] > 0).all()
