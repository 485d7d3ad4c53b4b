"""The packed-coordinate forward pass against its row-wise reference.

``compute_forward_layers`` never builds a child's count row: it tests
fits, clamps and packs mixed-radix keys on dense (state, combo) blocks and
decodes only the distinct keys.  ``forward_oracle.reference_forward_layers``
gathers every child row and deduplicates rows with ``np.unique(axis=0)``.
Over seeded inputs the two must produce identical ``ForwardLayers`` -- the
same states in the same row order, child-row maps, last fit mask,
``states_computed`` and ``dedup_hits`` -- and tick a search budget equally
often.
"""

import numpy as np
import pytest

from forward_oracle import reference_forward_layers
from repro.core import resource_state
from repro.core.resource_state import (
    DEDUP_BINCOUNT_RANGE,
    DEDUP_MAX_BINS_PER_KEY,
    FORWARD_CHUNK_ELEMS,
    STATE_DTYPE,
    compute_forward_layers,
    layer_pack_weights,
)


class TickCounter:
    def __init__(self) -> None:
        self.ticks = 0

    def tick(self) -> None:
        self.ticks += 1


def assert_same_layers(got, want):
    assert got.states_computed == want.states_computed
    assert got.dedup_hits == want.dedup_hits
    assert len(got.states) == len(want.states)
    for a, b in zip(got.states, want.states):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
    assert len(got.child_row) == len(want.child_row)
    for a, b in zip(got.child_row, want.child_row):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
    assert got.last_sel.dtype == want.last_sel.dtype
    assert np.array_equal(got.last_sel, want.last_sel)


def check(reqs, caps, clamp_active, limit, root, chunk_elems):
    got_budget, want_budget = TickCounter(), TickCounter()
    got = compute_forward_layers(reqs, caps, clamp_active, limit, root,
                                 chunk_elems=chunk_elems,
                                 search_budget=got_budget)
    want = reference_forward_layers(reqs, caps, clamp_active, limit, root,
                                    chunk_elems=chunk_elems,
                                    search_budget=want_budget)
    assert_same_layers(got, want)
    assert got_budget.ticks == want_budget.ticks
    return got


def random_problem(rng, root):
    """Stages of random footprints (zero combos allowed) and suffix caps
    that bind on some slots, over a given root."""
    num_slots = root.shape[0]
    num_stages = int(rng.integers(1, 5))
    reqs, caps = [], []
    for _ in range(num_stages):
        num_combos = int(rng.integers(0, 13))
        # Mostly small footprints, so chains fit, with some too large.
        top = np.maximum(root // 2, 1) + 1
        req = rng.integers(0, top, size=(num_combos, num_slots))
        req[rng.random(req.shape) < 0.4] = 0
        reqs.append(req.astype(STATE_DTYPE))
    for _ in range(num_stages + 1):
        caps.append(rng.integers(0, root + 1).astype(STATE_DTYPE))
    clamp_active = [bool(rng.random() < 0.5) for _ in range(num_stages + 1)]
    num_combos = reqs[0].shape[0]
    limit = int(rng.choice([1, 2, max(1, num_combos - 1), num_combos + 3]))
    return reqs, caps, clamp_active, limit


#: (low, high) of the root's per-slot counts: dense small pools take the
#: counting dedup, large ones pack past DEDUP_BINCOUNT_RANGE and sort.
ROOT_RANGES = {"small": (1, 9), "wide": (150, 400)}


@pytest.mark.parametrize("chunk_elems", [1, 7, 64, FORWARD_CHUNK_ELEMS])
@pytest.mark.parametrize("roots", sorted(ROOT_RANGES))
def test_packed_forward_matches_rowwise_reference(chunk_elems, roots,
                                                  monkeypatch):
    rng = np.random.default_rng([20261019, chunk_elems, len(roots)])
    low, high = ROOT_RANGES[roots]
    dedups = {"count": 0, "sort": 0}
    dedup_keys = resource_state.dedup_keys

    def recording(keys):
        if keys.shape[0]:
            dense = int(keys.max()) < min(
                DEDUP_BINCOUNT_RANGE, keys.shape[0] * DEDUP_MAX_BINS_PER_KEY)
            dedups["count" if dense else "sort"] += 1
        return dedup_keys(keys)

    monkeypatch.setattr(resource_state, "dedup_keys", recording)
    max_key = 0
    for _ in range(40):
        num_slots = int(rng.integers(1, 7))
        root = rng.integers(low, high, size=num_slots).astype(STATE_DTYPE)
        weights = layer_pack_weights(root)
        max_key = max(max_key, int(root @ weights))
        check(*random_problem(rng, root), root, chunk_elems)
    if roots == "small":
        assert dedups["count"] > 0
    else:
        assert max_key >= DEDUP_BINCOUNT_RANGE
        assert dedups["sort"] > 0


def test_radix_overflow_dedups_rows():
    """A root whose radix product overflows an int64 has no pack weights;
    the pass deduplicates the clamped child rows instead, with the same
    result."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        root = rng.integers(2000, 3000, size=6).astype(STATE_DTYPE)
        assert layer_pack_weights(root) is None
        reqs, caps, clamp_active, limit = random_problem(rng, root)
        for chunk_elems in (1, FORWARD_CHUNK_ELEMS):
            check(reqs, caps, clamp_active, limit, root, chunk_elems)


def test_empty_layer_and_combo_free_stage():
    """A stage no state can host empties every later layer, and a stage
    with no combos at all fits nothing."""
    root = np.array([3, 2], dtype=STATE_DTYPE)
    caps = [root.copy() for _ in range(4)]
    too_big = np.array([[4, 0], [0, 3]], dtype=STATE_DTYPE)
    fits = np.array([[1, 0], [0, 1]], dtype=STATE_DTYPE)
    none = np.zeros((0, 2), dtype=STATE_DTYPE)
    for reqs in ([fits, too_big, fits], [fits, none, fits], [none, fits]):
        for chunk_elems in (1, FORWARD_CHUNK_ELEMS):
            forward = check(reqs, caps[:len(reqs) + 1],
                            [False] * (len(reqs) + 1), 16, root, chunk_elems)
            assert forward.states[-1].shape == (0, 2)
            assert not forward.last_sel.any()
