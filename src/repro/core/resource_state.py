"""Array-encoded DP resource states: the planner's resource-state engine.

Motivation
----------
The DP solver's resource states were canonically ``tuple(sorted(((zone,
node_type), count), ...))`` with exhausted pairs dropped.  Everything the
recursion does to a state -- subtract a combo's whole-node footprint, test
which master combos still fit, clamp at per-stage caps, hash it into the
memo -- walked those nested tuples in interpreted Python, and ``make
profile`` showed exactly those walks (``_combos_for_state`` fit-scans and
``_subtract_state``) dominating planner latency once the evaluation layer
was vectorized.  This module replaces the encoding wholesale: a
:class:`ResourceStateCodec` maps states to fixed-width NumPy count vectors
(one slot per root (zone, node type) pair) and provides vectorized
subtract / fits / clamp kernels plus per-stage precomputed combo tables
(:class:`StageComboTable`), so the per-state work is a handful of NumPy
calls over *all* combos at once instead of a Python loop per combo.

Bijection contract
------------------
A codec is built from one *root* resource pool (the sorted canonical tuple
the solver receives).  Within the state space reachable from that root --
subtract whole-node footprints, clamp at per-slot caps, both of which only
ever *shrink* counts -- the fixed-width encoding is a bijection with the
canonical tuple form:

* the slots are the root's sorted ``(zone, node type)`` keys, so no
  reachable state can hold a key outside the slot set;
* a pair the canonical form dropped (count exhausted) is exactly a zero
  slot in the vector form, so ``decode(encode(t)) == t`` and
  ``encode(decode(v)) == v`` for every reachable state;
* therefore :meth:`ResourceStateCodec.state_key` (the raw bytes of the
  int64 count vector) collapses exactly the same states the canonical
  tuple did -- memo and combo-cache keys are unchanged *as sets*, only
  cheaper to build and hash.

That bijection is what keeps plans byte-identical across the tuple ->
array refactor: the DP explores the same states in the same order; only
the encoding of the keys changed.  ``tests/test_resource_state.py`` checks
the round-trip and kernel properties directly, and the solver equivalence
suites (``tests/test_dp_solver.py``, ``tests/test_planner.py``) check the
end-to-end consequence.

Forward/backward split
----------------------
The layered engine runs in two passes per solve: *forward reachability*
(:func:`compute_forward_layers` -> :class:`ForwardLayers`) depends only on
the root state and each stage's combo footprint matrix, while *backward
scoring* (:meth:`ResourceStateEngine.run_backward`) reads the candidate's
compute/sync/cost scalars.  Both belong to one solve and are freed with
its solver.  The forward pass chunks its fit-test broadcast along the
state axis (peak memory ``O(chunk x combos)``) and deduplicates children
through an injective mixed-radix int64 packing
(:func:`layer_pack_weights`) instead of the row-wise ``np.unique`` sort --
both pure implementation knobs that leave the reachable state sets, and
therefore plans, bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.hotpath import hot_path

#: Canonical resource state: sorted ``(((zone, node_type), count), ...)``
#: (re-exported by :mod:`repro.core.search_cache`; duplicated here to avoid
#: an import cycle).
ResourceKey = tuple[tuple[tuple[str, str], int], ...]

#: dtype of every encoded state; fixed so ``state_key`` widths never vary
#: within one codec.
STATE_DTYPE = np.int64


@dataclass
class StageComboTable:
    """One stage's master combo list, footprints pre-packed for the kernels.

    ``entries`` is the untruncated, ranking-sorted master list the shared
    :class:`~repro.core.search_cache.PlannerSearchContext` built (mutable
    ``[placements, footprint, lazy StageAssignment, footprint items, stage
    compute time]`` rows); ``req[i]`` is ``entries[i]``'s whole-node
    footprint as a count vector aligned with the codec's slots, and
    ``pairs[i]`` the same footprint as sparse ``(slot, used)`` items for
    the scalar fit-scan (small pools, where a Python loop beats the NumPy
    call overhead).
    """

    entries: list
    req: np.ndarray | None  # (num_combos, num_slots) int64; None on the
                            # scalar path (see ResourceStateCodec.combo_pairs)
    pairs: list             # [(entry, ((slot, used), ...)), ...]


class ResourceStateCodec:
    """Bijective fixed-width array encoding of one root's resource states.

    One codec serves one :meth:`DPSolver.solve` call (the slot layout is
    the root's sorted key order, so a different root needs a new codec).
    See the module docstring for the bijection contract.
    """

    __slots__ = ("keys", "slot", "num_slots", "root_state")

    def __init__(self, root: ResourceKey) -> None:
        self.keys: tuple[tuple[str, str], ...] = tuple(key for key, _ in root)
        self.slot: dict[tuple[str, str], int] = {
            key: i for i, key in enumerate(self.keys)}
        self.num_slots = len(self.keys)
        self.root_state = np.array([count for _, count in root],
                                   dtype=STATE_DTYPE)

    # -- tuple <-> vector bijection -----------------------------------------

    def encode(self, resources: ResourceKey) -> np.ndarray:
        """Canonical tuple form -> count vector (zero slots for dropped pairs)."""
        state = np.zeros(self.num_slots, dtype=STATE_DTYPE)
        for key, count in resources:
            state[self.slot[key]] = count
        return state

    def decode(self, state: np.ndarray) -> ResourceKey:
        """Count vector -> canonical tuple form (zero slots are dropped).

        The slot order *is* the canonical sorted order, so no re-sort is
        needed for the round-trip to hold.
        """
        return tuple((key, count)
                     for key, count in zip(self.keys, state.tolist())
                     if count)

    @staticmethod
    def state_key(state: np.ndarray) -> bytes:
        """Hashable memo key: the raw bytes of the count vector.

        Fixed dtype + fixed width make this injective over one codec's
        states, i.e. exactly as discriminating as the canonical tuple.
        """
        return state.tobytes()

    # -- kernels -------------------------------------------------------------

    def caps_vector(self, caps: dict[str, int]) -> np.ndarray:
        """Per-node-type caps dict -> per-slot cap vector."""
        return np.array([caps.get(node_type, 0)
                         for _, node_type in self.keys], dtype=STATE_DTYPE)

    @staticmethod
    def clamp(state: np.ndarray, caps: np.ndarray) -> np.ndarray:
        """Clamp a state at per-slot caps (returns the input when no-op)."""
        if (state <= caps).all():
            return state
        return np.minimum(state, caps)

    @staticmethod
    def subtract(state: np.ndarray, needs: np.ndarray) -> np.ndarray | None:
        """Remove one footprint; ``None`` when some slot goes negative."""
        out = state - needs
        if (out < 0).any():
            return None
        return out

    def combo_table(self, entries: list) -> StageComboTable:
        """Pack a master combo list's footprints into a fit-test matrix."""
        req = np.zeros((len(entries), self.num_slots), dtype=STATE_DTYPE)
        slot = self.slot
        pairs = []
        for row, entry in enumerate(entries):
            for node_key, used in entry[3]:
                req[row, slot[node_key]] = used
            pairs.append((entry, tuple((slot[node_key], used)
                                       for node_key, used in entry[3])))
        return StageComboTable(entries=entries, req=req, pairs=pairs)

    def combo_pairs(self, entries: list) -> StageComboTable:
        """Scalar-path variant of :meth:`combo_table`: sparse footprints
        only, no fit-test matrix (tiny pools never run the vector kernels,
        so building the matrix would be pure overhead)."""
        slot = self.slot
        pairs = [(entry, tuple((slot[node_key], used)
                               for node_key, used in entry[3]))
                 for entry in entries]
        return StageComboTable(entries=entries, req=None, pairs=pairs)

    @staticmethod
    def fitting_combos(table: StageComboTable, state: np.ndarray,
                       limit: int) -> np.ndarray:
        """Indices of the first ``limit`` master combos that fit ``state``.

        One vectorized comparison over the whole table replaces the
        per-combo Python fit scan; master order (the ranking order) is
        preserved, so truncating at ``limit`` selects the same combos the
        scalar scan did.
        """
        idx = (table.req <= state).all(axis=1).nonzero()[0]
        if idx.size > limit:
            return idx[:limit]
        return idx


@dataclass
class StageKernelTable(StageComboTable):
    """A combo table extended with the per-combo scalars the engine batches.

    ``compute[i]`` / ``sync[i]`` / ``rate[i]`` are ``entries[i]``'s stage
    compute time, gradient-sync time and cost rate -- exactly the scalars a
    lazily-built ``StageAssignment`` would carry, gathered eagerly so the
    backward pass can score every (state, combo) candidate in one array
    expression.
    """

    compute: np.ndarray = None  # (M,) float64
    sync: np.ndarray = None     # (M,)
    rate: np.ndarray = None     # (M,)


#: Element budget of one forward fit-test block: the (chunk, M, S) broadcast
#: compare is chunked along the state axis so its peak intermediate stays
#: ``O(chunk x M x S)`` bytes (~32 MB of bool at the default) no matter how
#: wide a layer grows.  1024-GPU pools reach ~1.7e4 states per layer today;
#: the chunking is what keeps the engine's memory flat beyond that.
FORWARD_CHUNK_ELEMS = 1 << 25

#: Combine block sizes (``rows * combos``) routed through the fused
#: workspace kernel (:meth:`ResourceStateEngine._combine_dense_fused`) --
#: a *band*, not a floor.  Below the minimum the reference expression
#: chain wins: the fused path's gain is skipping full-size temporary
#: allocations, which is noise for blocks that fit comfortably in cache,
#: while its ``np.take``/workspace indirection has a fixed per-call
#: overhead.  Above the maximum the reference wins again: once the
#: workspace set (seven full-size buffers) blows far past the last-level
#: cache, rewriting the same resident pages measures ~10-20% *slower* on
#: this box than the allocator's fresh pages (isolated kernel bench,
#: 2026-08; 16384x128 fused 1.98x faster, 16384x256 0.80x).  Measured
#: crossovers: fused wins ~1.5-2x from ~16K up to and including 2M
#: elements, loses at 4M+ -- re-measure both ends before porting to other
#: hardware.  In situ the win hinges on gathering straight through
#: ``child_row`` with ``mode="clip"``: an explicit clamped-index buffer
#: cost more L2 traffic than every elementwise saving combined (per-op
#: timing, 1024-GPU point).  Both paths are bit-identical (the
#: equivalence suite forces each in turn), so the dispatch is a pure
#: latency policy.
FUSED_COMBINE_MIN_ELEMS = 16384
FUSED_COMBINE_MAX_ELEMS = 1 << 21

#: Process-wide fused-combine scratch pool (see :func:`combine_workspace`
#: for the sharing/safety argument).  Grow-only per name; the dispatch
#: band caps every buffer at ``FUSED_COMBINE_MAX_ELEMS`` elements, so the
#: pool's resident ceiling is a few hundred MB at full scale and zero until
#: the band first fires.
_COMBINE_WS: dict[str, np.ndarray] = {}

#: Packed-value ceiling below which :func:`dedup_states` uses the counting
#: (bincount) dedup instead of the sort-based ``np.unique``.  The bound
#: caps the side tables at a few MB; pools whose packed range exceeds it
#: (beyond ~4M distinct states) fall back to the sort.  4096-GPU pools
#: pack to ~513^2 values, so every current bench point stays on the
#: counting path.
DEDUP_BINCOUNT_RANGE = 1 << 22


def layer_pack_weights(root_state: np.ndarray) -> np.ndarray | None:
    """Mixed-radix weights packing any reachable state into one ``int64``.

    Every state the forward pass can produce satisfies ``0 <= state[i] <=
    root_state[i]`` per slot (subtract and clamp only shrink counts), so
    packing with radix ``root_state[i] + 1`` per slot is *injective* -- a
    perfect hash, not a probabilistic one -- whenever the radix product fits
    in an int64.  Returns ``None`` when it does not (the caller falls back
    to row-wise ``np.unique``); at 1024 GPUs the product is ~1.7e4, so the
    fallback is reserved for pools far beyond current benches.
    """
    weights = []
    scale = 1
    for count in reversed(root_state.tolist()):
        weights.append(scale)
        scale *= count + 1
        if scale > np.iinfo(np.int64).max:
            return None
    weights.reverse()
    return np.array(weights, dtype=np.int64)


def dedup_states(children: np.ndarray,
                 weights: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate state rows; returns ``(unique rows, inverse index map)``.

    With pack weights the rows collapse to one int64 each and the dedup is
    a scalar sort (`np.unique` on a 1-D array) instead of the row-wise
    void-dtype sort ``np.unique(axis=0)`` performs -- the packing is
    injective (see :func:`layer_pack_weights`), so the unique *set* and the
    inverse map are exactly the row-wise dedup's; only the order of the
    unique rows differs, which nothing downstream observes (the backward
    pass reduces per row, and backpointers index rows consistently).
    """
    if weights is not None:
        packed = children @ weights
        if packed.shape[0] and int(packed.max()) < DEDUP_BINCOUNT_RANGE:
            # Counting dedup: O(n + range) instead of the O(n log n)
            # argsort `np.unique` performs -- the dominant forward-pass
            # cost at the 1024-GPU point.  Output-identical to the sort
            # path: unique values ascend (cumsum ranks ascend with the
            # packed value), the inverse maps through those ranks, and the
            # representative row per value is bitwise arbitrary-free --
            # packing is injective, so every row sharing a packed value is
            # the same row.
            counts = np.bincount(packed)
            present = counts > 0
            rank = np.cumsum(present, dtype=np.int64) - 1
            inverse = rank[packed]
            representative = np.empty(counts.shape[0], dtype=np.int64)
            representative[packed] = np.arange(packed.shape[0],
                                               dtype=np.int64)
            return children[representative[present]], inverse
        _, first, inverse = np.unique(packed, return_index=True,
                                      return_inverse=True)
        return children[first], inverse
    uniq, inverse = np.unique(children, axis=0, return_inverse=True)
    return uniq, inverse


def combine_workspace(name: str, count: int,
                      dtype=np.float64) -> np.ndarray:
    """Flat scratch buffer of at least ``count`` elements, by name.

    Grow-only, and backed by one *process-wide* pool (``_COMBINE_WS``):
    at the 1024-GPU bench point forward builds are nearly 1:1 with
    candidates (~145 distinct footprints for ~412 fused combines), so
    per-footprint buffers were used ~3x each and arrived cache-cold every
    time -- measured, that forfeited the whole fused-kernel win.  One
    shared pool keeps the buffers hot across every candidate and
    footprint of the process.  Sharing is safe because the backward sweep
    runs serially per candidate within a process (parallel workers are
    separate processes), the workspace is write-before-read within one
    ``_solve_layer`` call, and every *persisted* layer output is a fresh
    array (argmin gathers / ``np.where`` results), so no workspace view
    is ever live once :meth:`ResourceStateEngine._solve_layer` returns.
    Returned sliced to exactly ``count`` (contiguous, reshapeable).
    """
    buf = _COMBINE_WS.get(name)
    if buf is None or buf.shape[0] < count:
        buf = np.empty(count, dtype=dtype)
        _COMBINE_WS[name] = buf
    return buf[:count]


class ForwardLayers:
    """Forward-reachability result of one solve's root and stage footprints.

    Holds everything the forward pass produces -- per-stage unique state
    layers, the ``(N, M)`` child-row maps (``-1`` where a combo does not fit
    or was truncated) and the last layer's fit mask -- and *nothing* that
    depends on the microbatch size (compute/sync/cost scalars live on the
    per-candidate :class:`StageKernelTable`).  Reachability depends only on
    the root state, the per-stage combo footprints (in master ranking
    order), the truncation limit and the suffix clamps.
    """

    __slots__ = ("states", "child_row", "last_sel", "states_computed",
                 "dedup_hits", "row_of", "_row_cols")

    def __init__(self, states: list[np.ndarray],
                 child_row: list[np.ndarray | None],
                 last_sel: np.ndarray, states_computed: int,
                 dedup_hits: int) -> None:
        self.states = states
        self.child_row = child_row
        self.last_sel = last_sel
        self.states_computed = states_computed
        self.dedup_hits = dedup_hits
        #: bytes -> row maps, built lazily per stage (budget probes only).
        self.row_of: list[dict[bytes, int] | None] = [None] * len(states)
        #: Per-(stage, row) fitting-combo columns and child rows for the
        #: budget search's row gathers.  Only the rows the budget search
        #: actually touches are ever built (tiny per-row arrays --
        #: retaining whole (rows, combos) gather matrices here instead was
        #: measured ~1.4x *slower* at the 1024-GPU point: hundreds of MB of
        #: retained intermediates turn every backward temp allocation into
        #: fresh-page traffic).
        self._row_cols: dict[tuple[int, int], tuple] = {}

    def row_for_key(self, stage_index: int, key: bytes) -> int | None:
        """Row index of an encoded state in one layer, if reachable."""
        table = self.row_of[stage_index]
        if table is None:
            states = self.states[stage_index]
            blob = states.tobytes()
            width = states.shape[1] * states.itemsize
            table = {blob[r * width:(r + 1) * width]: r
                     for r in range(states.shape[0])}
            self.row_of[stage_index] = table
        return table.get(key)

    def row_cols(self, stage_index: int, row: int,
                 last: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """``(fitting combo columns, child rows)`` of one (stage, row).

        The column/child index pair the budget search gathers per engine
        row; ``child`` is ``None`` on the last stage.  Built on first use
        and kept for the rest of the solve.
        """
        cached = self._row_cols.get((stage_index, row))
        if cached is None:
            if last:
                cached = (self.last_sel[row].nonzero()[0], None)
            else:
                crow = self.child_row[stage_index][row]
                cols = (crow >= 0).nonzero()[0]
                cached = (cols, crow[cols])
            self._row_cols[(stage_index, row)] = cached
        return cached

@hot_path
def compute_forward_layers(reqs: list[np.ndarray], caps_vec: list[np.ndarray],
                           clamp_active: list[bool], limit: int,
                           root_state: np.ndarray,
                           chunk_elems: int = FORWARD_CHUNK_ELEMS,
                           search_budget=None) -> ForwardLayers:
    """Forward reachability, one whole stage layer at a time.

    Starting from the (clamped) root, each layer's fitting combos are found
    with a broadcast compare chunked along the state axis (honouring the
    per-state ``limit`` truncation in master ranking order via a running
    count), every (state, combo) child is produced by one subtraction,
    clamped at the next stage's caps, and deduplicated through the packed
    int64 hash (:func:`dedup_states`).  Deduplicated children are exactly
    the states the recursion's memo would collapse.

    ``search_budget`` (any object with a ``tick()`` cancellation point, see
    :class:`~repro.core.budget.SearchBudget`) is ticked once per chunk so a
    deadline interrupts the pass between chunks; a partially-built pass
    propagates the exception and is never cached by the caller.
    """
    num_stages = len(reqs)
    num_slots = root_state.shape[0]
    weights = layer_pack_weights(root_state)
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
        reqT = np.ascontiguousarray(req.T)
        for start in range(0, num_states, chunk):
            if search_budget is not None:
                search_budget.tick()
            block = states[start:start + chunk]
            # (chunk, M): which master combos fit which states, truncated to
            # the first `limit` fitting per state in master (ranking) order.
            # Accumulated slot by slot: each step is one contiguous 2-D
            # compare-and-AND, which beats materialising the (chunk, M,
            # slots) cube and reducing along its strided last axis.  The
            # boolean result is identical to `(req <= block).all(axis=2)`.
            if num_slots:
                fits = block[:, 0:1] >= reqT[0]
                for slot in range(1, num_slots):
                    fits &= block[:, slot:slot + 1] >= reqT[slot]
            else:
                fits = np.ones((block.shape[0], num_combos), dtype=bool)
            if (limit < num_combos
                    and int(fits.sum(axis=1).max(initial=0)) > limit):
                # Only pay the cumsum when some state actually has more
                # fitting combos than the truncation limit.  int32 halves
                # the running-count traffic (counts are bounded by the
                # combo count, nowhere near 2**31) with identical <= limit
                # comparisons.
                sel = fits & (np.cumsum(fits, axis=1,
                                        dtype=np.int32) <= limit)
            else:
                sel = fits
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
        if child_chunks:
            children = (child_chunks[0] if len(child_chunks) == 1
                        else np.concatenate(child_chunks))
        else:
            children = np.zeros((0, num_slots), dtype=STATE_DTYPE)
        uniq, inverse = dedup_states(children, weights)
        dedup_hits += children.shape[0] - uniq.shape[0]
        # int32: child rows index the next layer (~1e4-1e5 states, nowhere
        # near 2**31), and this (N, M) map is the single biggest operand of
        # both the masked assignment below and every backward gather --
        # halving it halves that traffic with identical index semantics.
        child_row = np.full((num_states, num_combos), -1, dtype=np.int32)
        # Row-major assignment order matches the chunk-concatenated children.
        child_row[sel_full] = inverse
        child_rows[j] = child_row
        states = uniq
    return ForwardLayers(states=layers, child_row=child_rows,
                         last_sel=last_sel, states_computed=states_computed,
                         dedup_hits=dedup_hits)


#: Relative slack applied to the cost lower bounds so they stay admissible
#: under floating-point rounding: the bound recursions and the solver's
#: actual cost evaluation associate their adds/muls differently, so the two
#: can drift by a few ulps; 1e-12 of relative headroom (thousands of ulps)
#: dwarfs any chain of tens of IEEE-754 operations.  The straggler bound
#: needs no slack -- it is built from min/max alone, which are exact.
_BOUND_SLACK = 1.0 - 1e-12


@dataclass
class BudgetBoundTables:
    """Admissible per-(stage, row) lower bounds for the budget search.

    ``straggler_lb[j][row]`` bounds from below the *max stage compute time*
    of every solution the truncated search space admits for the pipeline
    suffix ``j..P-1`` starting from layer row ``row``; ``cost_lb[j][row]``
    bounds its *projected cost* the same way.  Both are monotone in the
    budget (they hold for every budget, binding or not), which is what
    makes them usable as straggler-loop convergence/infeasibility
    certificates (see ``DPSolver._solve_suffix``):

    * any suffix the straggler loop can discover has
      ``max_stage_time >= straggler_lb``, so the remaining budgets of
      iterations 2+ never exceed
      ``budget - rate * Nb * max(t_a, straggler_lb)``;
    * ``cost_lb > remaining_budget`` proves the budgeted suffix solve
      returns ``None`` -- every solution in the space costs more -- without
      running it (a budgeted solve only ever returns solutions that
      respect its budget, so certified infeasibility is outcome-identical
      to solving).

    ``+inf`` rows are infeasible suffixes (no combo chain completes), the
    same rows the engine's backward values mark infeasible.

    ``sync_lb[j][row]`` bounds the *max sync time* of every solution the
    same way (min over combo chains of the max sync along the chain; exact
    min/max arithmetic, like ``straggler_lb``).  It is folded into
    ``cost_lb`` -- the sync floor the bound previously dropped -- and kept
    here for the admissibility property suite.
    """

    straggler_lb: list[np.ndarray]
    cost_lb: list[np.ndarray]
    sync_lb: list[np.ndarray]


def compute_budget_bounds(forward: ForwardLayers,
                          tables: list[StageKernelTable],
                          num_microbatches: int,
                          search_budget=None) -> BudgetBoundTables:
    """One batched backward pass producing the budget-certificate bounds.

    Runs over the same (shared) forward layers the engine scores, one stage
    layer at a time.  Per (state, combo) candidate it propagates four
    admissible quantities and reduces each with ``min`` over the fitting
    combos:

    * ``slb``  -- min achievable max stage compute time
      (``min_c max(t_c, slb_child)``; exact, min/max only);
    * ``dec``  -- the *decomposable* cost bound
      ``min_c (rate_c * Nb * t_c + dec_child)``, admissible because any
      solution's projected time satisfies ``T >= Nb * t_i`` for every
      stage ``i``, hence ``cost = (sum_i rate_i) * T >= sum_i rate_i *
      Nb * t_i``;
    * ``rlb`` / ``sum_lb`` -- min achievable total cost rate / total
      compute-time sum;
    * ``mslb`` -- min achievable max sync time
      (``min_c max(sync_c, mslb_child)``; exact, min/max only).

    The final cost bound is the elementwise best of the decomposable bound
    and the *product* bound, each tightened by the sync floor the previous
    formulation dropped:

    * product: ``rlb * (sum_lb + (Nb-1) * slb + mslb)`` -- each factor is
      an independent minimum, and every solution's projected time is
      exactly ``sum + (Nb-1) * max + sync`` with ``sum >= sum_lb``,
      ``max >= slb``, ``sync >= mslb``, so the product lower-bounds every
      solution's ``rate * time`` (no longer discarding the sync term);
    * decomposable: ``dec + rlb * mslb`` -- any solution's projected time
      satisfies ``T >= Nb * t_i + sync`` for every stage ``i`` (``sum >=
      t_i``, ``max >= t_i``, so ``sum + (Nb-1) * max >= Nb * t_i``), hence
      ``cost = (sum_i rate_i) * T >= sum_i rate_i * Nb * t_i +
      (sum_i rate_i) * sync >= dec + rlb * mslb``.

    Both scaled by :data:`_BOUND_SLACK` for float admissibility.

    **Why sync folds in but egress does not.**  These bounds certify
    outcomes of the *DP solver's* budget recursion, whose projected cost is
    the compute-only ``rate * (sum + (Nb-1) * max + sync)``
    (``DPSolution.projected_cost``); sync is part of that model, so the
    fold above is admissible against every solution the recursion can
    return.  Egress (inter-zone traffic priced by
    ``SailorSimulator.communication_cost``) is *not* in the DP cost model
    -- it appears first at the planner's candidate gate, where
    ``SailorSimulator.cost_floor`` adds it exactly.  Folding an egress
    floor in here would over-bound relative to ``projected_cost`` and
    could certify-infeasible a suffix the recursion would have solved,
    changing chosen plans; the candidate-gate level is where egress
    already prunes admissibly.
    """
    nb = float(num_microbatches)
    nb1 = float(num_microbatches - 1)
    num_stages = len(tables)
    slb: list[np.ndarray] = [None] * num_stages
    dec: list[np.ndarray] = [None] * num_stages
    rlb: list[np.ndarray] = [None] * num_stages
    sum_lb: list[np.ndarray] = [None] * num_stages
    mslb: list[np.ndarray] = [None] * num_stages
    for j in range(num_stages - 1, -1, -1):
        if search_budget is not None:
            search_budget.tick()
        table = tables[j]
        rows = forward.states[j].shape[0]
        last = j == num_stages - 1
        if (table.req.shape[0] == 0
                or (not last and forward.states[j + 1].shape[0] == 0)):
            # Infeasible layer, exactly as the engine's backward pass
            # marks it: nothing can host this stage (or nothing survives
            # below it).
            infinite = np.full(rows, np.inf)
            slb[j] = infinite
            dec[j] = infinite
            rlb[j] = infinite
            sum_lb[j] = infinite
            mslb[j] = infinite
            continue
        t_a = table.compute[None, :]
        rate_a = table.rate[None, :]
        sync_a = table.sync[None, :]
        shape = (rows, table.req.shape[0])
        stage_cost = (table.rate * (nb * table.compute))[None, :]
        if last:
            s_mat = np.broadcast_to(t_a, shape)
            d_mat = np.broadcast_to(stage_cost, shape)
            r_mat = np.broadcast_to(rate_a, shape)
            u_mat = s_mat
            m_mat = np.broadcast_to(sync_a, shape)
            invalid = ~forward.last_sel
        else:
            child_row = forward.child_row[j]
            safe = np.where(child_row >= 0, child_row, 0)
            base = child_row < 0
            child_slb = slb[j + 1][safe]
            s_mat = np.maximum(t_a, child_slb)
            d_mat = stage_cost + dec[j + 1][safe]
            r_mat = rate_a + rlb[j + 1][safe]
            u_mat = t_a + sum_lb[j + 1][safe]
            m_mat = np.maximum(sync_a, mslb[j + 1][safe])
            invalid = base | np.isinf(child_slb)
        slb[j] = np.where(invalid, np.inf, s_mat).min(axis=1)
        dec[j] = np.where(invalid, np.inf, d_mat).min(axis=1)
        rlb[j] = np.where(invalid, np.inf, r_mat).min(axis=1)
        sum_lb[j] = np.where(invalid, np.inf, u_mat).min(axis=1)
        mslb[j] = np.where(invalid, np.inf, m_mat).min(axis=1)
    # Infeasible rows are pinned to +inf explicitly: with Nb == 1 the
    # product term would otherwise produce 0 * inf = NaN, and NaN compares
    # false everywhere -- silently disarming the certificates.  The sync
    # factors are masked the same way (inf * 0-rate and rate * inf-sync
    # would NaN too).
    cost_lb = []
    for j in range(num_stages):
        infeasible = np.isinf(slb[j])
        sync_floor = np.where(infeasible, 0.0, mslb[j])
        rlb_safe = np.where(infeasible, 0.0, rlb[j])
        product = rlb[j] * (sum_lb[j]
                            + nb1 * np.where(infeasible, 0.0, slb[j])
                            + sync_floor)
        decomposable = dec[j] + rlb_safe * sync_floor
        cost_lb.append(np.where(infeasible, np.inf,
                                np.maximum(decomposable, product)
                                * _BOUND_SLACK))
    return BudgetBoundTables(straggler_lb=slb, cost_lb=cost_lb, sync_lb=mslb)


class ResourceStateEngine:
    """Layered bottom-up DP over one root's array-encoded states.

    The memoized top-down recursion expands one ``(stage, state)`` node per
    Python call; profiles show that per-node interpreter cost -- not the
    arithmetic -- dominates planner latency.  This engine computes the
    *same* table the recursion memoises, but one pipeline stage at a time
    over the whole layer of reachable states:

    * **Forward pass** (:func:`compute_forward_layers`): reachability,
      which depends only on the root and the per-stage combo footprints,
      not on the microbatch size.
    * **Backward pass** (:meth:`run_backward`): the last
      layer scores every fitting combo from the table's scalar arrays;
      every earlier layer combines its combo scalars with the child layer's
      ``(sum, max, sync, rate)`` quadruples in five elementwise array ops
      whose per-element operation order matches the scalar recursion
      exactly (IEEE-754 float64 in both), so the optima -- values *and*
      argmin tie-breaks (first minimum in master ranking order) -- are
      identical to the exhaustive recursion.

    Solutions are materialised lazily from the stored backpointers (combo
    argmin + child row), so only rows actually requested (the root, plus
    whatever the budget search's dominance probes touch) ever build
    ``StageAssignment`` objects.

    The engine covers the unconstrained objectives; budget-constrained
    solves thread their straggler loop through the solver, which batches
    each node's combo scan over these same per-layer arrays (see
    ``DPSolver._solve_budget_batched``) and uses the table to answer
    budget-dominance probes in O(1).
    """

    def __init__(self, codec: ResourceStateCodec,
                 tables: list[StageKernelTable], forward: ForwardLayers,
                 num_microbatches: int, minimize_cost: bool,
                 search_budget=None) -> None:
        self.codec = codec
        #: Optional cooperative cancellation point (``tick()`` per layer in
        #: the backward sweep); None leaves the sweep uncancellable.
        self.search_budget = search_budget
        self.tables = tables
        self.forward = forward
        self.nb1 = float(num_microbatches - 1)
        self.minimize_cost = minimize_cost
        #: Layers whose combine was served by the fused workspace kernel
        #: this backward sweep (-> SearchStats.combine_fused_hits).
        self.combine_fused_hits = 0
        num_stages = len(tables)
        #: Backward results: per stage, the chosen combo per row and the
        #: optimum's (value, sum, max, sync, rate); value is +inf where the
        #: suffix is infeasible.  ``time_value`` keeps the projected
        #: iteration time even under the cost objective (the budget search
        #: needs the projected cost = rate * time).
        self.arg: list[np.ndarray] = [None] * num_stages
        self.value: list[np.ndarray] = [None] * num_stages
        self.time_value: list[np.ndarray] = [None] * num_stages
        self.sum_t: list[np.ndarray] = [None] * num_stages
        self.max_t: list[np.ndarray] = [None] * num_stages
        self.sync_t: list[np.ndarray] = [None] * num_stages
        self.rate: list[np.ndarray] = [None] * num_stages
        #: Dominance tables for the budget search, built lazily by
        #: :meth:`budget_tables`: per stage, every row's unconstrained
        #: projected cost and feasibility in one vectorized pass.
        self._cost_unc: list[np.ndarray | None] = [None] * num_stages
        self._feasible: list[np.ndarray | None] = [None] * num_stages

    # -- forward-pass views ---------------------------------------------------

    @property
    def states(self) -> list[np.ndarray]:
        return self.forward.states

    @property
    def child_row(self) -> list[np.ndarray | None]:
        return self.forward.child_row

    @property
    def states_computed(self) -> int:
        return self.forward.states_computed

    @property
    def dedup_hits(self) -> int:
        return self.forward.dedup_hits

    # -- passes --------------------------------------------------------------

    @hot_path
    def run_backward(self) -> None:
        """Backward optimisation over the (possibly shared) forward layers."""
        budget = self.search_budget
        for j in range(len(self.tables) - 1, -1, -1):
            if budget is not None:
                budget.tick()
            self._solve_layer(j)

    def _mark_layer_infeasible(self, j: int, rows: int) -> None:
        """Record a whole layer as infeasible (no combo chain completes).

        The same normal form :meth:`_solve_layer` emits for individually
        infeasible rows: ``value``/``time_value`` ``+inf``, backpointer 0,
        zeroed quadruples.  Consumers gate on feasibility before reading
        any of the finite fields (see :meth:`budget_tables`).
        """
        self.arg[j] = np.zeros(rows, dtype=np.int64)
        self.value[j] = np.full(rows, np.inf)
        self.time_value[j] = np.full(rows, np.inf)
        self.sum_t[j] = np.zeros(rows)
        self.max_t[j] = np.zeros(rows)
        self.sync_t[j] = np.zeros(rows)
        self.rate[j] = np.zeros(rows)

    # lint: disable=hot-loop-alloc -- every where/copy here is a row-sized
    # (|layer|) gather or output, not a (rows, combos) temporary; the
    # full-size passes were eliminated in PR 8 (in-place fused scoring) and
    # the equivalence suites pin the kernel bit-for-bit.
    @hot_path
    def _solve_layer(self, j: int) -> None:
        """Score every (state, combo) candidate of one layer and reduce.

        The elementwise operation order replicates the scalar recursion:
        ``sum = t_a + child_sum``, ``max = max(t_a, child_max)``,
        ``sync = max(sync_a, child_sync)``,
        ``value = sum + (Nb-1) * max + sync`` (times the summed cost rate
        under the cost objective), so values are bit-identical and
        ``argmin`` (first minimum) matches the recursion's strict-improvement
        scan over the same combo order.
        """
        table = self.tables[j]
        forward = self.forward
        last = j == len(self.tables) - 1
        rows = forward.states[j].shape[0]
        if (table.req.shape[0] == 0
                or (not last and forward.states[j + 1].shape[0] == 0)):
            # No combo can host this stage (or nothing survives below it):
            # the whole layer is infeasible, exactly as the recursion finds.
            self._mark_layer_infeasible(j, rows)
            return
        t_a = table.compute[None, :]
        sync_a = table.sync[None, :]
        rate_a = table.rate[None, :]
        shape = (rows, table.req.shape[0])
        # Fused-workspace dispatch (band of FUSED_COMBINE_MIN_ELEMS ..
        # FUSED_COMBINE_MAX_ELEMS): mid-band non-last layers gather with
        # np.take into preallocated per-footprint buffers instead of
        # allocating fresh (rows, combos) temporaries.  Same operand order,
        # same IEEE op chain -- the reference block below doubles as the
        # out-of-band fast path and the equivalence reference.
        elems = rows * table.req.shape[0]
        fused = (not last and FUSED_COMBINE_MIN_ELEMS <= elems
                 <= FUSED_COMBINE_MAX_ELEMS)
        if last:
            sum_c = np.broadcast_to(table.compute[None, :], shape)
            max_c = sum_c
            sync_c = np.broadcast_to(table.sync[None, :], shape)
            rate_c = np.broadcast_to(table.rate[None, :], shape)
            time_v = table.compute + self.nb1 * table.compute + table.sync
            time_v = np.broadcast_to(time_v[None, :], shape)
            invalid = ~forward.last_sel
        elif fused:
            sum_c, max_c, sync_c, rate_c, time_v, invalid = (
                self._combine_dense_fused(j, t_a, sync_a, rate_a,
                                          forward.child_row[j]))
            self.combine_fused_hits += 1
        else:
            child_row = forward.child_row[j]
            # Transient gather: retaining these (rows, combos)
            # intermediates on the forward layers was measured slower
            # at scale (see ForwardLayers._row_cols).
            # Every elementwise step below reuses its gather buffer
            # in place (same operand association as the expression form,
            # so results stay bit-identical) -- at scale these (rows,
            # combos) temporaries are memory-bandwidth bound and halving
            # the passes is a measurable share of the backward wall.
            base = child_row < 0
            safe = np.where(base, 0, child_row)
            sum_c = self.sum_t[j + 1][safe]
            np.add(t_a, sum_c, out=sum_c)
            max_c = self.max_t[j + 1][safe]
            np.maximum(t_a, max_c, out=max_c)
            sync_c = self.sync_t[j + 1][safe]
            np.maximum(sync_a, sync_c, out=sync_c)
            rate_c = self.rate[j + 1][safe]
            np.add(rate_a, rate_c, out=rate_c)
            # time_v = sum_c + self.nb1 * max_c + sync_c, left-associated.
            time_v = self.nb1 * max_c
            np.add(sum_c, time_v, out=time_v)
            np.add(time_v, sync_c, out=time_v)
            # isinf on the 1-D child values once, gathered -- not isinf on
            # the full (rows, combos) gather.
            invalid = np.isinf(self.value[j + 1])[safe]
            invalid |= base
        if self.minimize_cost:
            if fused:
                # Elementwise product through the cached-signature einsum
                # path, straight into workspace: einsum caches its parsed
                # contraction per signature string, and 'ij,ij->ij' is the
                # same IEEE multiply as ``rate_c * time_v``.
                scored = np.einsum(
                    "ij,ij->ij", rate_c, time_v,
                    out=combine_workspace(
                        "scored", time_v.size).reshape(shape))
            else:
                scored = rate_c * time_v
        elif last:
            scored = time_v.copy()  # time_v is a read-only broadcast view
        else:
            # Masking time_v in place is safe: the entries the mask touches
            # are exactly the ones the feasibility gate below never reads.
            scored = time_v
        scored[invalid] = np.inf
        arg = np.argmin(scored, axis=1)
        take = np.arange(rows)
        value = scored[take, arg]
        # Normal form for infeasible rows (all entries invalid): argmin of
        # an all-inf row is already 0; the gathered quadruples would be
        # whatever column 0 combined to, which nothing may read -- pin them
        # to 0 so the arrays match _mark_layer_infeasible's normal form and
        # feasibility-gated consumers (see budget_tables) stay NaN-free.
        feasible = np.isfinite(value)
        self.arg[j] = arg
        self.value[j] = value
        # Equivalent to gathering np.where(invalid, inf, time_v): a feasible
        # row's argmin entry is never invalid (it scored finite), and an
        # infeasible row is pinned to inf either way -- so the 1-D gate
        # replaces another full (rows, combos) where pass.
        self.time_value[j] = np.where(feasible, time_v[take, arg], np.inf)
        self.sum_t[j] = np.where(feasible, sum_c[take, arg], 0.0)
        self.max_t[j] = np.where(feasible, max_c[take, arg], 0.0)
        self.sync_t[j] = np.where(feasible, sync_c[take, arg], 0.0)
        self.rate[j] = np.where(feasible, rate_c[take, arg], 0.0)

    # lint: disable=hot-loop-alloc -- the whole point: every gather lands
    # in a named grow-only workspace buffer via np.take(..., out=); the
    # only fresh allocation is the 1-D row-sized isinf input.
    @hot_path
    def _combine_dense_fused(self, j: int, t_a: np.ndarray,
                             sync_a: np.ndarray, rate_a: np.ndarray,
                             child_row: np.ndarray) -> tuple:
        """Fused dense combine of one non-last layer, in workspace.

        Replicates the reference block of :meth:`_solve_layer` bit for
        bit: identical operand order and IEEE op chain, with the gathers
        routed through ``np.take(..., mode="clip", out=)`` into the
        process-wide buffers of :func:`combine_workspace`
        instead of fancy-index allocations.  ``mode="clip"`` maps the -1
        sentinel (the only negative value in ``child_row``) to index 0 --
        exactly the ``np.where(child_row < 0, 0, child_row)`` the
        reference gathers through, without ever materialising that
        (rows, combos) int64 index matrix: per-op timing at the 1024-GPU
        point showed the explicit ``safe`` buffer cost more in L2 traffic
        (one streaming write plus five re-reads of a multi-MB matrix)
        than every elementwise ``out=`` saving combined.  Gathering
        ``isinf`` of the 1-D child values commutes with the gather
        itself.
        """
        ws = combine_workspace
        shape = child_row.shape
        n = child_row.size
        sum_c = np.take(self.sum_t[j + 1], child_row, mode="clip",
                        out=ws("sum", n).reshape(shape))
        np.add(t_a, sum_c, out=sum_c)
        max_c = np.take(self.max_t[j + 1], child_row, mode="clip",
                        out=ws("max", n).reshape(shape))
        np.maximum(t_a, max_c, out=max_c)
        sync_c = np.take(self.sync_t[j + 1], child_row, mode="clip",
                         out=ws("sync", n).reshape(shape))
        np.maximum(sync_a, sync_c, out=sync_c)
        rate_c = np.take(self.rate[j + 1], child_row, mode="clip",
                         out=ws("rate", n).reshape(shape))
        np.add(rate_a, rate_c, out=rate_c)
        # time_v = sum_c + self.nb1 * max_c + sync_c, left-associated
        # (scalar multiply commutes bitwise).
        time_v = np.multiply(max_c, self.nb1,
                             out=ws("time", n).reshape(shape))
        np.add(sum_c, time_v, out=time_v)
        np.add(time_v, sync_c, out=time_v)
        invalid = np.take(np.isinf(self.value[j + 1]), child_row,
                          mode="clip",
                          out=ws("invalid", n, bool).reshape(shape))
        base = np.less(child_row, 0,
                       out=ws("base", n, bool).reshape(shape))
        np.logical_or(invalid, base, out=invalid)
        return sum_c, max_c, sync_c, rate_c, time_v, invalid

    # -- lookups -------------------------------------------------------------

    def row_for_key(self, stage_index: int, key: bytes) -> int | None:
        """Row index of an encoded state in one layer, if reachable."""
        return self.forward.row_for_key(stage_index, key)

    def feasible(self, stage_index: int, row: int) -> bool:
        return not math.isinf(self.value[stage_index][row])

    def projected_cost(self, stage_index: int, row: int) -> float:
        """``cost_rate * projected_iteration_time`` of the row's optimum."""
        return float(self.rate[stage_index][row]
                     * self.time_value[stage_index][row])

    def budget_tables(self, stage_index: int) -> tuple[np.ndarray, np.ndarray]:
        """``(unconstrained projected cost, feasibility)`` of a whole layer.

        The budget search's dominance probes touch many rows of one layer;
        one vectorized ``rate * time_value`` (elementwise, so per-row
        bit-identical to :meth:`projected_cost`) plus one ``isfinite``
        replaces the per-row scalar arithmetic.  Built lazily -- the
        unconstrained objectives never need it.
        """
        cost = self._cost_unc[stage_index]
        if cost is None:
            feasible = np.isfinite(self.value[stage_index])
            # Infeasible rows hold the (0 rate, +inf time) normal form whose
            # product is NaN -- pin them to +inf; only feasible entries are
            # ever compared against budgets.
            with np.errstate(invalid="ignore"):
                cost = np.where(feasible,
                                self.rate[stage_index]
                                * self.time_value[stage_index], np.inf)
            self._cost_unc[stage_index] = cost
            self._feasible[stage_index] = feasible
        return cost, self._feasible[stage_index]

    def backpointer(self, stage_index: int, row: int) -> tuple[int, int]:
        """(combo index, child row) of the row's optimum; child row is -1
        on the last stage."""
        combo = int(self.arg[stage_index][row])
        if stage_index == len(self.tables) - 1:
            return combo, -1
        return combo, int(self.forward.child_row[stage_index][row, combo])
