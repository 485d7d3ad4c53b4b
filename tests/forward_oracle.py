"""Row-wise reference for the engine's forward reachability pass.

:func:`reference_forward_layers` builds the same :class:`ForwardLayers` as
:func:`repro.core.resource_state.compute_forward_layers`, the direct way:
per chunk of states it finds the fitting combos, gathers every (state,
combo) child as a full count row (``block[rows] - req[cols]``), clamps it
at the next stage's caps and deduplicates the child rows with the
row-wise ``np.unique(axis=0)``.  The production pass never builds those
rows: it tests fits, clamps and packs keys in mixed-radix coordinates and
decodes only the distinct keys.  Ascending packed keys are the
lexicographic row order, so the two must agree field for field -- states
and their row order, child-row maps, the last fit mask, ``states_computed``
and ``dedup_hits`` -- and must tick a search budget equally often.
``tests/test_forward_equivalence.py`` checks that over seeded inputs.
"""

from __future__ import annotations

import numpy as np

from repro.core.resource_state import (
    FORWARD_CHUNK_ELEMS,
    STATE_DTYPE,
    ForwardLayers,
)


def reference_forward_layers(reqs: list[np.ndarray],
                             caps_vec: list[np.ndarray],
                             clamp_active: list[bool], limit: int,
                             root_state: np.ndarray,
                             chunk_elems: int = FORWARD_CHUNK_ELEMS,
                             search_budget=None) -> ForwardLayers:
    """Forward reachability with explicit child rows and a row-wise dedup."""
    num_stages = len(reqs)
    num_slots = root_state.shape[0]
    states = root_state.reshape(1, -1)
    layers: list[np.ndarray] = []
    child_rows: list[np.ndarray | None] = [None] * num_stages
    last_sel: np.ndarray | None = None
    states_computed = 0
    dedup_hits = 0
    for j in range(num_stages):
        layers.append(states)
        states_computed += states.shape[0]
        req = reqs[j]
        num_states, num_combos = states.shape[0], req.shape[0]
        last = j == num_stages - 1
        chunk = max(1, chunk_elems // max(1, num_combos * num_slots))
        sel_full = np.empty((num_states, num_combos), dtype=bool)
        child_chunks: list[np.ndarray] = []
        for start in range(0, num_states, chunk):
            if search_budget is not None:
                search_budget.tick()
            block = states[start:start + chunk]
            fits = (req[None, :, :] <= block[:, None, :]).all(axis=2)
            # The first `limit` fitting combos per state, in master order.
            sel = fits & (np.cumsum(fits, axis=1) <= limit)
            sel_full[start:start + chunk] = sel
            if last:
                continue
            rows, cols = sel.nonzero()
            children = block[rows] - req[cols]
            if clamp_active[j + 1]:
                children = np.minimum(children, caps_vec[j + 1])
            child_chunks.append(children)
        if last:
            last_sel = sel_full
            break
        children = (np.concatenate(child_chunks) if child_chunks
                    else np.zeros((0, num_slots), dtype=STATE_DTYPE))
        uniq, inverse = np.unique(children, axis=0, return_inverse=True)
        dedup_hits += children.shape[0] - uniq.shape[0]
        child_row = np.full((num_states, num_combos), -1, dtype=np.int32)
        child_row[sel_full] = inverse  # row-major, as the children were made
        child_rows[j] = child_row
        states = uniq
    return ForwardLayers(states=layers, child_row=child_rows,
                         last_sel=last_sel, states_computed=states_computed,
                         dedup_hits=dedup_hits)
