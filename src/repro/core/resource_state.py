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
(one slot per root (zone, node type) pair) and packs per-stage combo
footprints, and the layered engine below does the per-state work as a
handful of NumPy calls over whole state layers and *all* combos at once
instead of a Python loop per combo.  (Tiny pools keep a tuple-state
recursion in the solver, over the codec's slot order.)

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
* therefore deduplicating count vectors (one engine layer row per
  distinct vector) collapses exactly the same states the canonical tuple
  did -- memo keys, whether the recursion's int tuples or the engine's
  layer rows, are unchanged *as sets*, only cheaper to build and hash.

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
its solver.  The forward pass works in packed coordinates: every
reachable state is one int64 mixed-radix key (:func:`layer_pack_weights`),
each layer's children are built, clamped and keyed slot by slot over dense
(state, combo) blocks chunked along the state axis (peak memory ``O(chunk
x combos)``), deduplicated as 1-D keys (:func:`dedup_keys`) and decoded
only once per distinct state (:func:`unpack_states`).  Packing is
injective over reachable states and ascending keys are lexicographic row
order, so the layers -- row order included -- are exactly those of
gathering every child row and deduplicating rows with ``np.unique``
(``tests/forward_oracle.py``); plans are bit-identical.

Sentinel normal form
--------------------
The forward pass writes ``-1`` for a combo with no child row (it does not
fit, or the truncation dropped it).  Every backward per-layer array -- the
engine's ``value``/``time_value``/``sum_t``/``max_t``/``sync_t``/``rate``
and the bound pass's ``slb``/``dec``/``rlb``/``sum_lb``/``mslb`` -- carries
one trailing *sentinel* entry, and a ``-1`` child row wraps straight onto it
(``np.take(..., mode="wrap")``).  Infeasible rows are written in the
sentinel's normal form: ``sum``, ``rate`` and ``value``/``time_value`` are
``+inf``, ``max`` and ``sync`` are 0, and every bound is ``+inf``.  So a
(state, combo) entry whose child is missing or infeasible scores ``+inf`` by
arithmetic alone -- no index clamp, no mask.  The zeros are what keep that
arithmetic NaN-free: ``(Nb-1) * max`` stays finite when ``Nb == 1``, and
``rate = +inf`` keeps ``rate * time`` off ``0 * inf`` even for a zero-priced
GPU.  An empty layer is just its sentinel.  Only the last layer, which has
no child, masks its non-fitting combos (``ForwardLayers.last_sel``).
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

#: dtype of every encoded state and combo footprint.
STATE_DTYPE = np.int64


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

    def combo_req(self, entries: list) -> np.ndarray:
        """A master combo list's whole-node footprints as a
        ``(num_combos, num_slots)`` count matrix: the engine's fit-test
        input."""
        req = np.zeros((len(entries), self.num_slots), dtype=STATE_DTYPE)
        slot = self.slot
        for row, entry in enumerate(entries):
            for node_key, used in entry[3]:
                req[row, slot[node_key]] = used
        return req

    def combo_pairs(self, entries: list) -> list:
        """A master combo list's footprints as sparse ``[(entry, ((slot,
        used), ...)), ...]`` pairs: the recursion's scalar fit scan input
        (tiny pools, where a Python loop beats the NumPy call overhead)."""
        slot = self.slot
        return [(entry, tuple((slot[node_key], used)
                              for node_key, used in entry[3]))
                for entry in entries]


@dataclass
class StageKernelTable:
    """One stage's master combo list, packed for the engine's kernels.

    ``entries`` is the untruncated, ranking-sorted master list the shared
    :class:`~repro.core.search_cache.PlannerSearchContext` built (mutable
    ``[placements, footprint, lazy StageAssignment, footprint items, stage
    compute time]`` rows); ``req[i]`` is ``entries[i]``'s whole-node
    footprint as a count vector aligned with the codec's slots.
    ``compute[i]`` / ``sync[i]`` / ``rate[i]`` are its stage compute time,
    gradient-sync time and cost rate -- exactly the scalars a lazily-built
    ``StageAssignment`` would carry, gathered eagerly so the backward pass
    can score every (state, combo) candidate in one array expression.
    """

    entries: list
    req: np.ndarray      # (M, num_slots) int64
    compute: np.ndarray  # (M,) float64
    sync: np.ndarray     # (M,)
    rate: np.ndarray     # (M,)


#: Element budget of one forward block: a layer is processed in chunks of
#: ``chunk_elems // (M x S)`` states (M combos, S slots), so each chunk's
#: dense ``(chunk, M)`` intermediates -- the per-slot difference, the
#: packed keys, the fit mask -- hold at most ``chunk_elems / S`` elements
#: no matter how wide a layer grows.  1024-GPU pools reach ~1.7e4 states
#: per layer today; the chunking is what keeps the engine's memory flat
#: beyond that.
FORWARD_CHUNK_ELEMS = 1 << 25

#: Combine block sizes (``rows * combos``) whose blocks land in the
#: process-wide workspace (:func:`combine_workspace`) instead of fresh
#: arrays -- a *band*, not a floor.  :meth:`ResourceStateEngine._combine`
#: is one body either way; only its ``out=`` buffers differ.  Below the
#: minimum fresh arrays win: the workspace's gain is skipping full-size
#: temporary allocations, which is noise for blocks that fit comfortably in
#: cache, while its lookup has a fixed per-call overhead.  Above the
#: maximum fresh arrays win again: once the workspace set (six full-size
#: buffers) blows far past the last-level cache, rewriting the same
#: resident pages measured ~10-20% *slower* than the allocator's fresh
#: pages (isolated kernel bench, 2026-08; 16384x128 fused 1.98x faster,
#: 16384x256 0.80x).  Measured crossovers: fused wins ~1.5-2x from ~16K up
#: to and including 2M elements, loses at 4M+ -- re-measure both ends
#: before porting to other hardware.  In situ the win hinges on gathering
#: straight through ``child_row`` with ``np.take(..., mode=...)``: an
#: explicit clamped-index buffer cost more L2 traffic than every
#: elementwise saving combined (per-op timing, 1024-GPU point).  Both
#: routes are bit-identical (the equivalence suite forces each in turn), so
#: the dispatch is a pure latency policy.
FUSED_COMBINE_MIN_ELEMS = 16384
FUSED_COMBINE_MAX_ELEMS = 1 << 21

#: Process-wide combine scratch pool (see :func:`combine_workspace`
#: for the sharing/safety argument).  Grow-only per name; the dispatch
#: band caps every buffer at ``FUSED_COMBINE_MAX_ELEMS`` elements, so the
#: pool's resident ceiling is a few hundred MB at full scale and zero until
#: the band first fires.
_COMBINE_WS: dict[str, np.ndarray] = {}

#: Packed-key ceiling below which :func:`dedup_keys` may count (bincount)
#: instead of sorting (``np.unique``).  The bound caps the side tables at a
#: few MB; pools whose packed range exceeds it (beyond ~4M distinct states)
#: always sort.  4096-GPU pools pack to ~513^2 values.
DEDUP_BINCOUNT_RANGE = 1 << 22

#: Counting pays for its side tables in O(key range) however few keys a
#: layer has, so a layer whose range exceeds this many bins per key sorts
#: instead.  Over the 560 deduplicated layers of a 4096-GPU cold plan
#: (2-vCPU Xeon) counting alone took 0.43 s and this rule 0.25 s; 4 and 16
#: bins per key measured 0.26 and 0.27 s.
DEDUP_MAX_BINS_PER_KEY = 8


def layer_pack_weights(root_state: np.ndarray) -> np.ndarray | None:
    """Mixed-radix weights packing any reachable state into one ``int64``.

    Every state the forward pass can produce satisfies ``0 <= state[i] <=
    root_state[i]`` per slot (subtract and clamp only shrink counts), so
    the key ``state @ weights`` with radix ``root_state[i] + 1`` per slot
    is *injective* -- a perfect hash, not a probabilistic one -- whenever
    the radix product fits in an int64.  The first slot is the most
    significant digit, so ascending keys are the states in lexicographic
    row order, and :func:`unpack_states` recovers the rows.  Returns
    ``None`` when the product does not fit (the forward pass then
    deduplicates whole rows); at 1024 GPUs the product is ~1.7e4, so that
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


def unpack_states(keys: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Packed keys -> ``(len(keys), slots)`` state rows (the inverse of
    ``rows @ weights`` over reachable states)."""
    states = np.empty((keys.shape[0], weights.shape[0]), dtype=STATE_DTYPE)
    rest = keys
    for slot, weight in enumerate(weights.tolist()):
        states[:, slot], rest = np.divmod(rest, weight)
    return states


def dedup_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of 1-D non-negative keys, ascending, and the
    inverse index map (``unique[inverse] == keys``).

    A dense enough key set (see :data:`DEDUP_BINCOUNT_RANGE` and
    :data:`DEDUP_MAX_BINS_PER_KEY`) takes a counting dedup, O(n + range)
    instead of the O(n log n) sort ``np.unique`` performs: the distinct
    values are the nonzero bins in ascending order and each key's index is
    the running count of nonzero bins below it.  Both paths return the
    same values; the counting path's inverse is int32, like the child-row
    maps it fills.
    """
    count = keys.shape[0]
    if count and int(keys.max()) < min(DEDUP_BINCOUNT_RANGE,
                                       count * DEDUP_MAX_BINS_PER_KEY):
        present = np.bincount(keys) > 0
        rank = np.cumsum(present, dtype=np.int32) - 1
        return present.nonzero()[0], rank[keys]
    return np.unique(keys, return_inverse=True)


def _with_sentinel(values: np.ndarray, fill: float,
                   keep: np.ndarray | bool = True) -> np.ndarray:
    """``values`` plus one trailing sentinel entry ``fill``; entries where
    ``keep`` is false become ``fill`` too (the infeasible-row normal
    form, see the module docstring)."""
    out = np.full(values.shape[0] + 1, fill)
    np.copyto(out[:-1], values, where=keep)
    return out


def combine_workspace(name: str, count: int,
                      dtype=np.float64) -> np.ndarray:
    """Flat scratch buffer of at least ``count`` elements, by name.

    Grow-only, and backed by one *process-wide* pool (``_COMBINE_WS``):
    at the 1024-GPU bench point forward builds are nearly 1:1 with
    candidates (25 distinct of 27 forward passes, 31 fused combines per
    cold plan), so per-footprint buffers would be used only a few times
    each and arrive cache-cold -- measured when that plan ran ~412 fused
    combines over ~145 footprints, it forfeited the whole fused-kernel
    win.  One
    shared pool keeps the buffers hot across every candidate and
    footprint of the process.  Sharing is safe because the backward sweep
    runs serially per candidate within a process, the workspace is
    write-before-read within one ``_solve_layer`` call, and every
    *persisted* layer output is a fresh row-sized array (the argmin
    gathers, copied into sentinel-extended rows), so no workspace view is
    ever live once :meth:`ResourceStateEngine._solve_layer` returns.
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
    or was truncated; the backward gathers wrap it onto the child layer's
    sentinel entry) and the last layer's fit mask -- and *nothing* that
    depends on the microbatch size (compute/sync/cost scalars live on the
    per-candidate :class:`StageKernelTable`).  Reachability depends only on
    the root state, the per-stage combo footprints (in master ranking
    order), the truncation limit and the suffix clamps.
    """

    __slots__ = ("states", "child_row", "last_sel", "states_computed",
                 "dedup_hits")

    def __init__(self, states: list[np.ndarray],
                 child_row: list[np.ndarray | None],
                 last_sel: np.ndarray, states_computed: int,
                 dedup_hits: int) -> None:
        self.states = states
        self.child_row = child_row
        self.last_sel = last_sel
        self.states_computed = states_computed
        self.dedup_hits = dedup_hits

    def row_cols(self, stage_index: int, row: int,
                 last: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """``(fitting combo columns, child rows)`` of one (stage, row).

        The column/child index pair the budget search gathers per engine
        row (and caches per solve, see ``DPSolver._budget_row``); ``child``
        is ``None`` on the last stage.
        """
        if last:
            return self.last_sel[row].nonzero()[0], None
        crow = self.child_row[stage_index][row]
        cols = (crow >= 0).nonzero()[0]
        return cols, crow[cols]


@hot_path
def compute_forward_layers(reqs: list[np.ndarray], caps_vec: list[np.ndarray],
                           clamp_active: list[bool], limit: int,
                           root_state: np.ndarray,
                           chunk_elems: int = FORWARD_CHUNK_ELEMS,
                           search_budget=None) -> ForwardLayers:
    """Forward reachability, one whole stage layer at a time, in packed
    coordinates.

    Starting from the (clamped) root, each layer works on dense ``(chunk,
    M)`` blocks of (state, combo) pairs, chunked along the state axis.  Per
    slot, one difference ``state - footprint`` gives the fit test (``>=
    0``, AND-ed across slots), the child's count after the clamp at the
    next stage's caps, and that count's digit of the child's mixed-radix
    key (:func:`layer_pack_weights`).  The fitting pairs -- the first
    ``limit`` per state in master ranking order, via a running count --
    keep their keys, which :func:`dedup_keys` collapses; the next layer is
    the distinct keys decoded in ascending order (:func:`unpack_states`).
    No per-child count row is ever gathered.  Packing is injective over
    reachable states, so the distinct keys are exactly the states the
    recursion's memo would collapse, in lexicographic row order.  When the
    radix product overflows an int64 (no weights), the children's clamped
    count rows are the dedup keys instead, through the row-wise
    ``np.unique``, which yields the same order.  The root has at least one
    slot: the solver builds no engine for an empty pool.

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
        caps = caps_vec[j + 1] if not last and clamp_active[j + 1] else None
        chunk = max(1, chunk_elems // max(1, num_combos * num_slots))
        sel_full = np.empty((num_states, num_combos), dtype=bool)
        key_chunks: list[np.ndarray] = []
        reqT = np.ascontiguousarray(req.T)
        for start in range(0, num_states, chunk):
            if search_budget is not None:
                search_budget.tick()
            block = states[start:start + chunk]
            # (chunk, M): which master combos fit which states, and (unless
            # this is the last stage) each child's packed key.  Slot by
            # slot, every step is one contiguous 2-D pass; the fit mask is
            # identical to `(req <= block).all(axis=2)`.
            fits = packed = None
            columns: list[np.ndarray] = []
            for slot in range(num_slots):
                if last:
                    fit = block[:, slot:slot + 1] >= reqT[slot]
                else:
                    diff = block[:, slot:slot + 1] - reqT[slot]
                    fit = diff >= 0
                    if caps is not None:
                        np.minimum(diff, caps[slot], out=diff)
                    if weights is None:
                        columns.append(diff)
                    else:
                        # Entries of non-fitting pairs are never read, so
                        # wrapping there is harmless; fitting keys stay
                        # below the radix product.
                        weight = weights[slot]
                        if weight != 1:
                            np.multiply(diff, weight, out=diff)
                        if packed is None:
                            packed = diff
                        else:
                            packed += diff
                if fits is None:
                    fits = fit
                else:
                    fits &= fit
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
            # Boolean extraction is row-major, the order of sel.nonzero().
            if weights is None:
                key_chunks.append(np.stack([column[sel] for column in columns],
                                           axis=1))
            else:
                key_chunks.append(packed[sel])
        if last:
            last_sel = sel_full
            break
        if len(key_chunks) == 1:
            keys = key_chunks[0]
        elif key_chunks:
            keys = np.concatenate(key_chunks)
        else:  # an empty layer has no children
            keys = np.empty((0, num_slots) if weights is None else 0,
                            dtype=STATE_DTYPE)
        if weights is None:
            states, inverse = np.unique(keys, axis=0, return_inverse=True)
        else:
            unique_keys, inverse = dedup_keys(keys)
            states = unpack_states(unique_keys, weights)
        dedup_hits += keys.shape[0] - states.shape[0]
        # int32: child rows index the next layer (~1e4-1e5 states, nowhere
        # near 2**31), and this (N, M) map is the single biggest operand of
        # both the masked assignment below and every backward gather --
        # halving it halves that traffic with identical index semantics.
        child_row = np.full((num_states, num_combos), -1, dtype=np.int32)
        # Row-major assignment order matches the chunk-concatenated keys.
        child_row[sel_full] = inverse
        child_rows[j] = child_row
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
    bounds its *projected cost* the same way.  Both hold for every
    budget, binding or not.  ``cost_lb`` is the budget search's
    infeasibility certificate: ``cost_lb > budget`` proves the budgeted
    suffix solve returns ``None`` -- every solution in the space costs
    more -- without running it (a budgeted solve only ever returns
    solutions that respect its budget, so certified infeasibility is
    outcome-identical to solving).  ``DPSolver._solve_budget`` applies it
    to a node's own budget.

    ``sync_lb[j][row]`` bounds the *max sync time* of every solution the
    same way (min over combo chains of the max sync along the chain; exact
    min/max arithmetic, like ``straggler_lb``); ``rate_lb[j][row]`` and
    ``sum_lb[j][row]`` bound its total cost rate and its compute-time sum.
    All five feed ``DPSolver._solve_budget_batched``'s per-combo
    certificate (:func:`repro.core.dp_solver.combo_cost_lb`), which
    prepends one stage to a child row's bounds and so prices every whole
    solution through that combo, not only the child's suffix.

    ``+inf`` rows are infeasible suffixes (no combo chain completes), the
    same rows the engine's backward values mark infeasible.  Every array
    carries the trailing ``+inf`` sentinel entry (module docstring).
    """

    straggler_lb: list[np.ndarray]
    cost_lb: list[np.ndarray]
    sync_lb: list[np.ndarray]
    rate_lb: list[np.ndarray]
    sum_lb: list[np.ndarray]


def compute_budget_bounds(forward: ForwardLayers,
                          tables: list[StageKernelTable],
                          num_microbatches: int,
                          search_budget=None) -> BudgetBoundTables:
    """One batched backward pass producing the budget-certificate bounds.

    Runs over the same (shared) forward layers the engine scores, one stage
    layer at a time.  Per (state, combo) candidate it propagates four
    admissible quantities and reduces each with ``min`` over the fitting
    combos (a combo without a feasible child reads the child layer's
    ``+inf`` sentinel entry, so no mask is needed below the last layer):

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

    Both scaled by :data:`_BOUND_SLACK` for float admissibility.  The
    tables return ``slb``, ``mslb``, ``rlb`` and ``sum_lb`` as well (not
    ``dec``): the budget scan prepends a stage to them per combo.

    **Why sync folds in but egress does not.**  These bounds certify
    outcomes of the *DP solver's* budget recursion, whose projected cost is
    the compute-only ``rate * (sum + (Nb-1) * max + sync)``
    (``DPSolution.projected_cost``); sync is part of that model, so the
    fold above is admissible against every solution the recursion can
    return.  Egress (inter-zone traffic priced by
    ``CostEstimator.communication_cost``) is *not* in the DP cost model
    -- it appears first when the planner evaluates a built candidate with
    ``SailorSimulator.evaluate`` and checks the budget against its full
    cost.  Folding an egress floor in here would over-bound relative to
    ``projected_cost`` and could certify-infeasible a suffix the recursion
    would have solved, changing chosen plans.
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
        if table.req.shape[0] == 0:
            # Infeasible layer, exactly as the engine's backward pass marks
            # it: nothing can host this stage.
            infinite = np.full(forward.states[j].shape[0] + 1, np.inf)
            slb[j] = dec[j] = rlb[j] = sum_lb[j] = mslb[j] = infinite
            continue
        stage_cost = table.rate * (nb * table.compute)
        if j == num_stages - 1:
            # The last layer has no child: its one real mask keeps the
            # fitting combos.
            fits = forward.last_sel
            compute = np.where(fits, table.compute, np.inf)
            candidates = (compute,
                          np.where(fits, stage_cost, np.inf),
                          np.where(fits, table.rate, np.inf),
                          compute,
                          np.where(fits, table.sync, np.inf))
        else:
            child_row = forward.child_row[j]

            def child(bound: list[np.ndarray]) -> np.ndarray:
                # A -1 child row wraps onto the +inf sentinel entry.
                return np.take(bound[j + 1], child_row, mode="wrap")

            candidates = (np.maximum(table.compute, child(slb)),
                          stage_cost + child(dec),
                          table.rate + child(rlb),
                          table.compute + child(sum_lb),
                          np.maximum(table.sync, child(mslb)))
        slb[j], dec[j], rlb[j], sum_lb[j], mslb[j] = (
            _with_sentinel(block.min(axis=1), np.inf) for block in candidates)
    # Infeasible rows (and the sentinel) hold +inf in every bound.  With
    # Nb == 1 the product term would produce 0 * inf = NaN there, and NaN
    # compares false everywhere -- silently disarming the certificates --
    # so their factors are masked and the result pinned to +inf.
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
    return BudgetBoundTables(straggler_lb=slb, cost_lb=cost_lb, sync_lb=mslb,
                             rate_lb=rlb, sum_lb=sum_lb)


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
      ``(sum, max, sync, rate)`` quadruples (:meth:`_combine`) in
      elementwise array ops whose per-element operation order matches the
      scalar recursion exactly (IEEE-754 float64 in both), so the optima --
      values *and* argmin tie-breaks (first minimum in master ranking
      order) -- are identical to the exhaustive recursion.  A combo with
      no feasible child scores ``+inf`` by arithmetic alone: its child row
      is ``-1`` (or an infeasible row), and both read the sentinel normal
      form (module docstring).

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
        #: Layers whose combine ran in the workspace buffers this backward
        #: sweep (-> SearchStats.combine_fused_hits).
        self.combine_fused_hits = 0
        num_stages = len(tables)
        #: Backward results: per stage, the chosen combo per row and the
        #: optimum's (value, sum, max, sync, rate), each with one trailing
        #: sentinel entry in the normal form of infeasible rows (value
        #: +inf).  ``time_value`` keeps the projected iteration time even
        #: under the cost objective (the budget search needs the projected
        #: cost = rate * time).
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
        """Record a layer no combo can host: every row, like the sentinel,
        in the infeasible normal form (``value``/``time_value``/``sum``/
        ``rate`` ``+inf``, ``max``/``sync`` 0, backpointer 0)."""
        self.arg[j] = np.zeros(rows, dtype=np.int64)
        self.value[j] = np.full(rows + 1, np.inf)
        self.time_value[j] = np.full(rows + 1, np.inf)
        self.sum_t[j] = np.full(rows + 1, np.inf)
        self.max_t[j] = np.zeros(rows + 1)
        self.sync_t[j] = np.zeros(rows + 1)
        self.rate[j] = np.full(rows + 1, np.inf)

    # lint: disable=hot-loop-alloc -- the last layer has no child, so its
    # non-fitting combos need one (rows, combos) mask select; every other
    # output is a row-sized argmin gather.
    @hot_path
    def _solve_layer(self, j: int) -> None:
        """Score every (state, combo) candidate of one layer and reduce.

        The last layer scores each fitting combo on its own (``time = t +
        (Nb-1) * t + sync``, times the cost rate under the cost objective)
        and masks the rest (the engine's one real mask); earlier layers
        score through :meth:`_combine`.  ``argmin`` (first minimum) matches
        the recursion's strict-improvement scan over the same combo order.
        The per-row optimum is stored with the layer's sentinel entry
        appended; an infeasible row (every candidate ``+inf``) is pinned to
        the sentinel's normal form.
        """
        table = self.tables[j]
        rows = self.forward.states[j].shape[0]
        num_combos = table.req.shape[0]
        if num_combos == 0:
            # No combo can host this stage: the whole layer is infeasible,
            # exactly as the recursion finds.
            self._mark_layer_infeasible(j, rows)
            return
        take = np.arange(rows)
        if j == len(self.tables) - 1:
            time_a = table.compute + self.nb1 * table.compute + table.sync
            score_a = table.rate * time_a if self.minimize_cost else time_a
            scored = np.where(self.forward.last_sel, score_a, np.inf)
            arg = np.argmin(scored, axis=1)
            time_v, sum_c, max_c, sync_c, rate_c = (
                column[arg] for column in (time_a, table.compute,
                                           table.compute, table.sync,
                                           table.rate))
        else:
            fused = (FUSED_COMBINE_MIN_ELEMS <= rows * num_combos
                     <= FUSED_COMBINE_MAX_ELEMS)
            if fused:
                self.combine_fused_hits += 1
            *blocks, scored = self._combine(j, fused)
            arg = np.argmin(scored, axis=1)
            time_v, sum_c, max_c, sync_c, rate_c = (
                block[take, arg] for block in blocks)
        value = scored[take, arg]
        feasible = np.isfinite(value)
        self.arg[j] = arg
        self.value[j] = _with_sentinel(value, np.inf)
        self.time_value[j] = _with_sentinel(time_v, np.inf, feasible)
        self.sum_t[j] = _with_sentinel(sum_c, np.inf, feasible)
        self.max_t[j] = _with_sentinel(max_c, 0.0, feasible)
        self.sync_t[j] = _with_sentinel(sync_c, 0.0, feasible)
        self.rate[j] = _with_sentinel(rate_c, np.inf, feasible)

    @hot_path
    def _combine(self, j: int, fused: bool) -> tuple:
        """Every (state, combo) candidate of non-last layer ``j`` combined
        with its child row's optimum: the ``(rows, combos)`` blocks
        ``(time, sum, max, sync, rate, scored)``.

        The elementwise operation order replicates the scalar recursion:
        ``sum = t_a + child_sum``, ``max = max(t_a, child_max)``,
        ``sync = max(sync_a, child_sync)``, ``rate = rate_a + child_rate``,
        ``time = sum + (Nb-1) * max + sync`` and, under the cost objective,
        ``scored = rate * time`` (else ``scored`` is ``time``), so values
        are bit-identical.  The gathers run straight through ``child_row``
        with ``np.take(..., mode="wrap")``, which sends ``-1`` onto the
        child layer's trailing sentinel; every other step works in place
        on its gather buffer.  With ``fused`` (the
        :data:`FUSED_COMBINE_MIN_ELEMS` band) each block lands in a
        process-wide :func:`combine_workspace` buffer, otherwise in a fresh
        array; the arithmetic is the same.
        """
        # The blocks are transient: retaining these (rows, combos)
        # intermediates on the forward layers was measured ~1.4x slower at
        # the 1024-GPU point (hundreds of MB of retained intermediates turn
        # every backward temp allocation into fresh-page traffic).  Working
        # in place on each gather buffer matters because at scale these
        # blocks are memory-bandwidth bound, and halving the passes is a
        # measurable share of the backward wall.  No clamped-index buffer
        # either: it cost more L2 traffic than every elementwise saving
        # combined (:data:`FUSED_COMBINE_MIN_ELEMS`).
        table = self.tables[j]
        child_row = self.forward.child_row[j]
        shape = child_row.shape

        def out(name: str) -> np.ndarray | None:
            if not fused:
                return None
            return combine_workspace(name, child_row.size).reshape(shape)

        sum_c = np.take(self.sum_t[j + 1], child_row, mode="wrap",
                        out=out("sum"))
        np.add(table.compute, sum_c, out=sum_c)
        max_c = np.take(self.max_t[j + 1], child_row, mode="wrap",
                        out=out("max"))
        np.maximum(table.compute, max_c, out=max_c)
        sync_c = np.take(self.sync_t[j + 1], child_row, mode="wrap",
                         out=out("sync"))
        np.maximum(table.sync, sync_c, out=sync_c)
        rate_c = np.take(self.rate[j + 1], child_row, mode="wrap",
                         out=out("rate"))
        np.add(table.rate, rate_c, out=rate_c)
        # time = sum + nb1 * max + sync, left-associated (the scalar
        # multiply commutes bitwise).
        time_v = np.multiply(max_c, self.nb1, out=out("time"))
        np.add(sum_c, time_v, out=time_v)
        np.add(time_v, sync_c, out=time_v)
        scored = time_v
        if self.minimize_cost:
            scored = np.multiply(rate_c, time_v, out=out("scored"))
        return time_v, sum_c, max_c, sync_c, rate_c, scored

    # -- lookups -------------------------------------------------------------

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
        bit-identical to :meth:`projected_cost`) plus one ``< inf`` test
        replaces the per-row scalar arithmetic.  Built lazily -- the
        unconstrained objectives never need it.
        """
        cost = self._cost_unc[stage_index]
        if cost is None:
            # Infeasible rows hold rate = time = +inf, so their cost is
            # +inf by arithmetic.
            cost = self.rate[stage_index] * self.time_value[stage_index]
            self._cost_unc[stage_index] = cost
            self._feasible[stage_index] = cost < np.inf
        return cost, self._feasible[stage_index]

    def backpointer(self, stage_index: int, row: int) -> tuple[int, int]:
        """(combo index, child row) of the row's optimum; child row is -1
        on the last stage."""
        combo = int(self.arg[stage_index][row])
        if stage_index == len(self.tables) - 1:
            return combo, -1
        return combo, int(self.forward.child_row[stage_index][row, combo])
