"""Vectorized evaluation context: canonical plan arrays + fused kernels.

Motivation
----------
``SailorSimulator.evaluate`` is the planner's inner loop: it runs once per
surviving ``(P, mbs, D)`` candidate, and the scalar estimators re-walk every
stage/replica several times per call (compute, update, p2p, sync, memory
peaks and OOM are all separate passes).  This module mirrors what
:class:`~repro.core.search_cache.PlannerSearchContext` did for the DP search:
it hoists everything that depends only on the *environment* into caches
shared across candidates, and canonicalizes each plan into flat per-stage /
per-replica NumPy arrays so one fused pass produces every estimate at once.

Three cache levels, all keyed canonically so results are independent of
object identity:

=====================  =====================================================
cache                  key
=====================  =====================================================
replica class          ``(gpu_type, microbatch_size, tensor_parallel)`` --
                       profiled layer/embedding/head times, activation and
                       boundary bytes, device capacity
p2p transfer           ``(sender node_type, sender zone, receiver
                       node_type, receiver zone, microbatch_size)``
stage gradient sync    ``(stage params, ((node_type, tp, zone), ...))``
plan arrays            :func:`plan_signature` of the whole plan
=====================  =====================================================

Numerical equivalence
---------------------
The vectorized kernels replicate the scalar estimators' floating-point
operations *in the same order* (NumPy float64 arithmetic is IEEE-754, the
same as Python floats), and reductions whose order matters (the warm-up /
cool-down sums of the 1F1B closed form) are performed as explicit
left-to-right accumulations rather than ``np.sum`` (whose pairwise
summation would reassociate).  The result is bit-identical to a scalar
evaluation built from the estimators, which the equivalence test suite
asserts.  The gradient-sync term is not vectorized -- it needs the fitted
network curves' worst-link search -- but is memoized at replica-class
granularity, so each distinct stage shape computes it once per context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.hotpath import hot_path
from repro.core.plan import ParallelizationPlan
from repro.core.simulator.environment import SimulationEnvironment
from repro.core.simulator.memory import (
    FRAGMENTATION_FACTOR,
    FRAMEWORK_OVERHEAD_BYTES,
    USABLE_MEMORY_FRACTION,
)
from repro.core.simulator.timing import TimingBreakdown, TimingEstimator
from repro.hardware.gpus import get_gpu
from repro.hardware.nodes import get_node_type


def plan_signature(plan: ParallelizationPlan) -> tuple:
    """Hashable canonical identity of a plan *for evaluation purposes*.

    Two plans with equal signatures evaluate identically under the same
    environment: the signature covers every plan/job field the estimators
    read (model shape, batch settings, dtype footprint, checkpointing, the
    per-stage partitions and the ordered replica tuples).
    """
    job = plan.job
    model = job.model
    stages = tuple((stage.partition, tuple(stage.replicas))
                   for stage in plan.stages)
    return (model.name, model.num_layers, model.hidden_size, model.vocab_size,
            model.tied_embeddings, job.global_batch_size, job.sequence_length,
            job.bytes_per_param, job.activation_checkpointing,
            plan.microbatch_size, stages)


@dataclass
class PlanArrays:
    """One plan, canonicalized into flat arrays plus fused-pass results.

    All 2-D arrays are ``(num_stages, data_parallel)``; column ``d`` is
    pipeline ``d`` (matching ``plan.pipeline(d)``).
    """

    num_stages: int
    data_parallel: int
    num_microbatches: int
    microbatch_size: int
    stage_indices: list[int]
    total_gpus: int
    #: Per-replica fused results.
    compute: np.ndarray          # fwd+bwd seconds per microbatch
    update: np.ndarray           # optimizer-step seconds
    peak: np.ndarray             # peak memory bytes
    fits: np.ndarray             # bool, peak fits device capacity
    p2p: np.ndarray              # (num_stages - 1, D) boundary transfer seconds
    #: Per-stage / per-plan reductions.
    stage_compute: np.ndarray    # (P,) slowest replica per stage
    stage_peaks: np.ndarray      # (P,) worst peak bytes per stage
    oom_stages: list[int]
    stage_params: list[int]      # (P,) pre-TP parameter counts (sync keys)
    pipeline: np.ndarray         # (D,) 1F1B closed-form pipeline seconds
    update_max: float
    straggler_stage: int
    #: (P,) gradient all-reduce seconds; filled on first timing_breakdown
    #: call.  Left lazy so ``SailorSimulator.iteration_time_floor``
    #: (pipeline + update only) never pays for the worst-link sync search.
    sync: list[float] | None = None
    #: Egress USD per iteration; filled on first cost_floor call (nothing
    #: else reads it).  The egress term depends only on the plan's
    #: cross-zone byte counts -- not on the iteration time -- so it is exact
    #: (not a floor) and safe to cache alongside the arrays.
    comm_usd: float | None = None

    @property
    def pipeline_time_s(self) -> float:
        """Slowest pipeline (bounds the iteration)."""
        return float(self.pipeline.max())

    @property
    def iteration_time_floor_s(self) -> float:
        """Conservative lower bound on the iteration time (no sync term).

        ``T_iter = max_d(T_pp_d) + T_sync + T_update`` with ``T_sync >= 0``,
        and IEEE-754 addition is monotone, so dropping the sync term can
        only lower the value -- the floor never exceeds the full estimate.
        """
        return self.pipeline_time_s + self.update_max


class EvaluationContext:
    """Shared caches + vectorized kernels for one simulation environment.

    One context serves every plan evaluated against its environment; it
    must be discarded when the environment (profiles, prices, layout)
    changes.  There is deliberately no invalidation logic: profiles are
    immutable for the lifetime of an environment, and everything
    plan-dependent enters the cache keys through :func:`plan_signature`.
    """

    def __init__(self, env: SimulationEnvironment) -> None:
        self.env = env
        self._timing = TimingEstimator(env)
        self._arrays: dict[tuple, PlanArrays] = {}
        #: Cache observability (tested: hit/miss semantics).
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self._class_scalars: dict[tuple, tuple] = {}
        self._node_info: dict[str, tuple[str, float]] = {}
        self._p2p: dict[tuple, float] = {}
        self._sync: dict[tuple, float] = {}

    # -- per-class scalar lookups -------------------------------------------

    def _node(self, node_type: str) -> tuple[str, float]:
        """(GPU type, device capacity bytes) of a node type, cached."""
        info = self._node_info.get(node_type)
        if info is None:
            gpu = get_node_type(node_type).gpu
            info = (gpu.name, float(get_gpu(gpu.name).memory_bytes))
            self._node_info[node_type] = info
        return info

    def _replica_class(self, node_type: str, microbatch_size: int,
                       tensor_parallel: int) -> tuple:
        """Profiled scalars of one replica class, gathered once per context.

        Returns ``(layer_fwd_bwd, layer_update, emb_fwd_bwd, emb_update,
        head_fwd_bwd, head_update, act_bytes, boundary_bytes, capacity,
        tensor_parallel)``, all floats, in gather order.
        """
        gpu_type, capacity = self._node(node_type)
        key = (gpu_type, microbatch_size, tensor_parallel)
        cached = self._class_scalars.get(key)
        if cached is None:
            profile = self.env.profiles.job_profile(gpu_type)
            layer = profile.layer(microbatch_size, tensor_parallel)
            emb = profile.embedding(microbatch_size, tensor_parallel)
            head = profile.head(microbatch_size, tensor_parallel)
            cached = (layer.fwd_bwd_s, layer.update_s,
                      emb.fwd_bwd_s, emb.update_s,
                      head.fwd_bwd_s, head.update_s,
                      profile.activations(microbatch_size, tensor_parallel),
                      profile.boundary_bytes[microbatch_size],
                      capacity, float(tensor_parallel))
            self._class_scalars[key] = cached
        return cached

    def _p2p_time(self, plan: ParallelizationPlan, sender, receiver) -> float:
        """Boundary-activation transfer seconds, cached per class pair."""
        key = (sender.node_type, sender.zone, receiver.node_type,
               receiver.zone, plan.microbatch_size)
        cached = self._p2p.get(key)
        if cached is None:
            cached = self._timing.p2p_time(plan, sender, receiver)
            self._p2p[key] = cached
        return cached

    def _stage_sync(self, plan: ParallelizationPlan, stage,
                    stage_params: int) -> float:
        """Gradient all-reduce seconds, memoized per stage shape.

        Computed by the scalar estimator (worst-link search over the fitted
        network curves), so the value is identical to the scalar path; the
        memo key covers everything that computation reads.
        """
        if stage.data_parallel == 1:
            return 0.0
        key = (stage_params,
               tuple((r.node_type, r.tensor_parallel, r.zone)
                     for r in stage.replicas))
        cached = self._sync.get(key)
        if cached is None:
            cached = self._timing.stage_sync_time(plan, stage)
            self._sync[key] = cached
        return cached

    # -- the fused pass ------------------------------------------------------

    def plan_arrays(self, plan: ParallelizationPlan) -> PlanArrays:
        """Canonical arrays + fused evaluation results for one plan, cached."""
        signature = plan_signature(plan)
        cached = self._arrays.get(signature)
        if cached is not None:
            self.plan_cache_hits += 1
            return cached
        self.plan_cache_misses += 1
        arrays = self._build(plan)
        self._arrays[signature] = arrays
        return arrays

    @hot_path
    def _build(self, plan: ParallelizationPlan) -> PlanArrays:
        job = plan.job
        model = job.model
        num_stages = plan.pipeline_parallel
        dp = plan.data_parallel
        nm = plan.num_microbatches
        mbs = plan.microbatch_size

        # One gather pass over the replica grid; everything below is NumPy.
        gathered = np.array(
            [[self._replica_class(r.node_type, mbs, r.tensor_parallel)
              for r in stage.replicas] for stage in plan.stages])
        layer_fb = gathered[..., 0]
        layer_up = gathered[..., 1]
        emb_fb = gathered[..., 2]
        emb_up = gathered[..., 3]
        head_fb = gathered[..., 4]
        head_up = gathered[..., 5]
        act_bytes = gathered[..., 6]
        boundary = gathered[..., 7]
        capacity = gathered[..., 8]
        tp = gathered[..., 9]

        num_layers = np.array([float(s.partition.num_layers)
                               for s in plan.stages])[:, None]
        has_emb = np.array([1.0 if s.partition.has_embedding else 0.0
                            for s in plan.stages])[:, None]
        has_head = np.array([1.0 if s.partition.has_lm_head else 0.0
                             for s in plan.stages])[:, None]
        stage_params_int = [s.partition.stage_params(model)
                            for s in plan.stages]
        stage_params = np.array([float(p)
                                 for p in stage_params_int])[:, None]
        stage_indices = [s.stage_index for s in plan.stages]
        # 1F1B in-flight microbatches: min(Nb, P - stage_index), at least 1.
        in_flight = np.array(
            [float(max(1, min(nm, num_stages - idx)))
             for idx in stage_indices])[:, None]

        # Compute / update: `layers * t_layer (+ emb) (+ head)` in the exact
        # scalar order; adding `0.0 * x` is a bitwise no-op on positives.
        compute = num_layers * layer_fb
        compute = compute + has_emb * emb_fb
        compute = compute + has_head * head_fb
        update = num_layers * layer_up
        update = update + has_emb * emb_up
        update = update + has_head * head_up

        # Memory: M_peak = M_model + M_activation + overhead, per worker.
        model_bytes = (stage_params / tp) * job.bytes_per_param
        if job.activation_checkpointing:
            act_per_mb = num_layers * boundary + act_bytes
        else:
            act_per_mb = num_layers * act_bytes + boundary
        activation = in_flight * act_per_mb * FRAGMENTATION_FACTOR
        peak = model_bytes + activation + FRAMEWORK_OVERHEAD_BYTES
        fits = peak <= capacity * USABLE_MEMORY_FRACTION

        # Inter-stage transfers (class-pair memoized scalar lookups).
        if num_stages > 1:
            p2p = np.array(
                [[self._p2p_time(plan, s, r) for s, r in
                  zip(plan.stages[i].replicas, plan.stages[i + 1].replicas)]
                 for i in range(num_stages - 1)])
        else:
            p2p = np.zeros((0, dp))

        # 1F1B closed form per pipeline.  The warm-up/cool-down sums are
        # explicit left-to-right accumulations: np.sum's pairwise summation
        # would reassociate and break bit-equivalence with the scalar path.
        # lint: disable=hot-loop-alloc -- dp-sized accumulator seed, copied
        # once per plan build so the += chain cannot alias row 0
        warmup = compute[0].copy()
        for s in range(1, num_stages):
            warmup += compute[s]
        if num_stages > 1:
            # lint: disable=hot-loop-alloc -- dp-sized accumulator seed (as
            # above); the arrays here are (stages, dp), never (rows, combos)
            p2p_sum = p2p[0].copy()
            for i in range(1, num_stages - 1):
                p2p_sum += p2p[i]
            warmup = warmup + 2.0 * p2p_sum
            straggler = np.maximum(compute.max(axis=0), p2p.max(axis=0))
        else:
            warmup = warmup + 0.0  # scalar path adds an empty p2p sum
            straggler = compute.max(axis=0)
        pipeline = warmup + (nm - 1) * straggler

        stage_compute = compute.max(axis=1)
        stage_peaks = peak.max(axis=1)
        oom = [stage_indices[s] for s in range(num_stages)
               if not bool(fits[s].all())]

        return PlanArrays(
            num_stages=num_stages,
            data_parallel=dp,
            num_microbatches=nm,
            microbatch_size=mbs,
            stage_indices=stage_indices,
            total_gpus=plan.total_gpus,
            compute=compute,
            update=update,
            peak=peak,
            fits=fits,
            p2p=p2p,
            stage_compute=stage_compute,
            stage_peaks=stage_peaks,
            oom_stages=oom,
            stage_params=stage_params_int,
            pipeline=pipeline,
            update_max=float(update.max()),
            straggler_stage=int(np.argmax(stage_compute)),
        )

    # -- scalar-compatible views --------------------------------------------

    @hot_path
    def timing_breakdown(self, plan: ParallelizationPlan) -> TimingBreakdown:
        """Vectorized :meth:`TimingEstimator.breakdown` (bit-identical)."""
        arrays = self.plan_arrays(plan)
        if arrays.sync is None:
            arrays.sync = [
                self._stage_sync(plan, stage, arrays.stage_params[s])
                for s, stage in enumerate(plan.stages)]
        # Scalar breakdown lists p2p times pipeline-major (d, then boundary).
        p2p_list = (arrays.p2p.T.reshape(-1).tolist()
                    if arrays.num_stages > 1 else [])
        return TimingBreakdown(
            pipeline_times_s=arrays.pipeline.tolist(),
            stage_compute_s=arrays.stage_compute.tolist(),
            stage_sync_s=list(arrays.sync),
            update_time_s=arrays.update_max,
            p2p_times_s=p2p_list,
            straggler_stage=arrays.straggler_stage,
        )
