"""Unit tests for the resource-state engine (codec, kernels, layered DP).

The codec's bijection contract (module docstring of
``repro.core.resource_state``) is what keeps plans byte-identical across
the tuple -> array encoding change, so it is tested directly here; the
layered engine's end-to-end equivalence with the exhaustive recursion is
covered both here (small cases) and by the solver property suites.
"""

import numpy as np
import pytest

from repro.core.dp_solver import DPSolverConfig
from repro.core.resource_state import (
    STATE_DTYPE,
    ResourceStateCodec,
    ResourceStateEngine,
    StageComboTable,
    StageKernelTable,
    compute_forward_layers,
    dedup_states,
    layer_pack_weights,
)

from test_dp_solver import build_solver


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


def test_codec_state_key_is_injective_and_fixed_width():
    codec = ResourceStateCodec(ROOT)
    seen = {}
    for a in range(3):
        for b in range(3):
            state = np.array([a, b, 1], dtype=STATE_DTYPE)
            key = codec.state_key(state)
            assert len(key) == codec.num_slots * state.itemsize
            assert key not in seen
            seen[key] = (a, b)


def test_codec_kernels_match_scalar_semantics():
    codec = ResourceStateCodec(ROOT)
    state = codec.encode(ROOT)
    caps = codec.caps_vector({"a2-highgpu-4g": 2})
    assert caps.tolist() == [2, 0, 2]
    clamped = codec.clamp(state, caps)
    assert clamped.tolist() == [2, 0, 2]
    # No-op clamp returns the input object (allocation-free common case).
    assert codec.clamp(clamped, caps) is clamped

    needs = np.array([1, 0, 3], dtype=STATE_DTYPE)
    assert codec.subtract(state, needs).tolist() == [3, 2, 0]
    assert codec.subtract(needs, state) is None  # underflow -> infeasible


def test_fitting_combos_preserves_master_order_and_limit():
    codec = ResourceStateCodec(ROOT)
    entries = []
    for req in ([1, 0, 0], [0, 1, 0], [2, 0, 0], [0, 0, 2], [4, 2, 0]):
        items = tuple((ROOT[i][0], count) for i, count in enumerate(req)
                      if count)
        entries.append([None, None, None, items, 0.0])
    table = codec.combo_table(entries)
    assert isinstance(table, StageComboTable)
    state = np.array([2, 1, 0], dtype=STATE_DTYPE)
    # Fitting combos in master order: rows 0, 1, 2 fit; 3 and 4 do not.
    assert codec.fitting_combos(table, state, limit=16).tolist() == [0, 1, 2]
    assert codec.fitting_combos(table, state, limit=2).tolist() == [0, 1]


# ---------------------------------------------------------------------------
# Forward-pass machinery: packed dedup, chunking, signatures
# ---------------------------------------------------------------------------

def test_layer_pack_weights_are_injective_over_reachable_states():
    root = np.array([4, 2, 3], dtype=STATE_DTYPE)
    weights = layer_pack_weights(root)
    assert weights is not None
    seen = set()
    for a in range(5):
        for b in range(3):
            for c in range(4):
                packed = int(np.array([a, b, c], dtype=STATE_DTYPE) @ weights)
                assert packed not in seen
                seen.add(packed)


def test_layer_pack_weights_overflow_falls_back_to_none():
    # Radix product beyond int64 cannot pack exactly -> row-wise fallback.
    huge = np.full(8, 2 ** 9, dtype=STATE_DTYPE)  # (2^9+1)^8 > 2^63
    assert layer_pack_weights(huge) is None
    small = np.full(8, 2 ** 6, dtype=STATE_DTYPE)
    assert layer_pack_weights(small) is not None


def test_dedup_states_matches_rowwise_unique():
    rng = np.random.default_rng(7)
    root = np.array([6, 3, 5, 2], dtype=STATE_DTYPE)
    # Reachable states stay within the root's per-slot counts, which is
    # what makes the radix packing injective.
    children = rng.integers(0, root + 1, size=(200, 4)).astype(STATE_DTYPE)
    weights = layer_pack_weights(root)
    packed_uniq, packed_inv = dedup_states(children, weights)
    row_uniq, row_inv = dedup_states(children, None)
    # Same unique *set* (order may differ) and a consistent inverse map.
    assert {tuple(r) for r in packed_uniq.tolist()} == \
        {tuple(r) for r in row_uniq.tolist()}
    assert np.array_equal(packed_uniq[packed_inv], children)
    assert np.array_equal(row_uniq[row_inv], children)


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
                                             goal_cost):
    """The layered engine (enable_pruning=True) and the exhaustive
    recursion (enable_pruning=False) must choose identical assignments."""
    from repro.core.objectives import OptimizationGoal

    goal = (OptimizationGoal.MIN_COST if goal_cost
            else OptimizationGoal.MAX_THROUGHPUT)
    resources = {("us-central1-a", "a2-highgpu-4g"): 4,
                 ("us-central1-a", "n1-standard-v100-4"): 4}
    engine_solver = build_solver(opt_env, opt_job, pp=pp, dp=dp, goal=goal)
    engine_solver.engine_min_states = 0  # force the engine on a small pool
    reference = build_solver(opt_env, opt_job, pp=pp, dp=dp, goal=goal)
    reference.config = DPSolverConfig(enable_pruning=False)

    a = engine_solver.solve(dict(resources))
    b = reference.solve(dict(resources))
    assert (a is None) == (b is None)
    if a is None:
        return
    assert [x.placements for x in a.assignments] == \
        [x.placements for x in b.assignments]
    for field in ("max_stage_time_s", "sum_stage_time_s", "max_sync_time_s",
                  "cost_rate_usd_per_s"):
        assert getattr(a, field) == getattr(b, field)  # bitwise


def test_engine_two_zone_topology(opt_env_geo, opt_job):
    resources = {("us-central1-a", "a2-highgpu-4g"): 2,
                 ("us-west1-a", "a2-highgpu-4g"): 2}
    engine_solver = build_solver(opt_env_geo, opt_job, pp=2, dp=2,
                                 node_types=("a2-highgpu-4g",))
    engine_solver.engine_min_states = 0  # force the engine on a small pool
    reference = build_solver(opt_env_geo, opt_job, pp=2, dp=2,
                             node_types=("a2-highgpu-4g",))
    reference.config = DPSolverConfig(enable_pruning=False)
    a = engine_solver.solve(dict(resources))
    b = reference.solve(dict(resources))
    assert (a is None) == (b is None)
    if a is not None:
        assert [x.placements for x in a.assignments] == \
            [x.placements for x in b.assignments]


def test_engine_reports_layer_states_as_nodes(opt_env, opt_job):
    solver = build_solver(opt_env, opt_job, pp=2, dp=2)
    solver.engine_min_states = 0  # force the engine on a small pool
    resources = {("us-central1-a", "a2-highgpu-4g"): 4}
    before = solver.stats.nodes_explored
    assert solver.solve(resources) is not None
    assert solver.stats.nodes_explored > before
    assert solver._engine is not None
    assert solver._engine.states_computed > 0


def test_engine_infeasible_root_returns_none(opt_env, opt_job):
    solver = build_solver(opt_env, opt_job, pp=2, dp=4)
    solver.engine_min_states = 0  # force the engine on a small pool
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
    assert forward.row_cols(0, 0, last=False)[0] is cols  # cached


def test_engine_matches_exhaustive_recursion_over_random_pools(opt_env,
                                                               opt_job):
    """Randomized equivalence sweep for the layered engine: over seeded
    random pools x objectives x (pp, dp) shapes, the engine (forced on
    these small pools) must return exactly the solution of the exhaustive
    recursion (``enable_pruning=False``) -- same placements, bitwise-equal
    objective fields."""
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
        engine_solver.engine_min_states = 0
        reference = build_solver(opt_env, opt_job, pp=pp, dp=dp, goal=goal)
        reference.config = DPSolverConfig(enable_pruning=False)

        a = engine_solver.solve(dict(resources))
        b = reference.solve(dict(resources))
        assert engine_solver._engine is not None
        assert reference._engine is None
        assert (a is None) == (b is None)
        if a is None:
            continue
        assert [x.placements for x in a.assignments] == \
            [x.placements for x in b.assignments]
        for field in ("max_stage_time_s", "sum_stage_time_s",
                      "max_sync_time_s", "cost_rate_usd_per_s"):
            assert getattr(a, field) == getattr(b, field)  # bitwise
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
    plain = codec.combo_table(entries)
    # Combos 0 and 1 score identically (the intended minimum); combo 2 is
    # strictly worse.  First-min tie-break must select combo 0.
    table = StageKernelTable(
        entries=plain.entries, req=plain.req, pairs=plain.pairs,
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


def test_engine_budget_tables_match_scalar_probes(opt_env, opt_job):
    """The whole-layer dominance vectors must agree element-for-element
    with the per-row feasible/projected_cost probes they replace."""
    solver = build_solver(opt_env, opt_job, pp=2, dp=2)
    solver.engine_min_states = 0
    resources = {("us-central1-a", "a2-highgpu-4g"): 4,
                 ("us-central1-a", "n1-standard-v100-4"): 4}
    assert solver.solve(dict(resources)) is not None
    engine = solver._engine
    for stage in range(2):
        cost, feasible = engine.budget_tables(stage)
        for row in range(engine.states[stage].shape[0]):
            assert bool(feasible[row]) == engine.feasible(stage, row)
            if feasible[row]:
                assert float(cost[row]) == engine.projected_cost(stage, row)


def test_budget_bounds_mark_infeasible_layers_infinite(opt_env, opt_job):
    """A suffix no combo chain can complete must carry +inf bounds, the
    same rows the engine's backward values mark infeasible."""
    from repro.core.resource_state import compute_budget_bounds

    solver = build_solver(opt_env, opt_job, pp=2, dp=2)
    solver.engine_min_states = 0
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
