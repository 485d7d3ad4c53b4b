"""Sailor distributed training framework (simulated).

The paper's training framework is a modified Megatron-DeepSpeed with support
for heterogeneous plans, fault tolerance and elasticity (section 4.4).  This
package reproduces its *systems* behaviour by replaying availability
timelines against a simulated job:

* :mod:`repro.runtime.comm_groups` -- building the data/pipeline/tensor
  communication groups (rank topology) for heterogeneous plans.
* :mod:`repro.runtime.checkpoint` -- asynchronous checkpointing and rollback.
* :mod:`repro.runtime.reconfiguration` -- the kill-free reconfiguration
  latency model (section 5.5 breakdown).
* :mod:`repro.runtime.controller` -- the replanning controller loop: when
  availability changes it reacts at the cheapest sufficient degradation
  tier (``CONTINUE`` -> ``SHRINK_DP`` -> ``FULL_REPLAN`` -> ``PARK``),
  governed by a :class:`~repro.runtime.controller.ReplanPolicy`
  (debounce on flapping pools; a tick-bounded planner's truncated search
  keeps the incumbent) with retry-with-backoff while parked, and made
  *incremental* by solving every replan inside one long-lived planner
  search context.
* :mod:`repro.runtime.faults` -- seeded fault-injection harness: labelled,
  serializable churn scenarios (preemption bursts, quota cuts, zone
  outages, node flaps, mid-drain preemptions), and
  :meth:`~repro.runtime.faults.FaultTrace.from_availability` to label a
  plain availability trace for replay.
* :mod:`repro.runtime.replay` -- the one timeline loop: deterministic
  replay of a fault trace against the controller, training at the
  simulated rate between events, with checkpoint rollback, zero-drop
  accounting and incremental reuse counters.  From the CLI:
  ``sailor-repro churn --model <name> --events 200 --seed 0`` generates and
  replays a trace; ``--trace-out``/``--trace-in`` round-trip it as JSON.
"""

from repro.runtime.comm_groups import CommunicationGroups, build_rank_topology, RankAssignment
from repro.runtime.checkpoint import CheckpointManager, CheckpointConfig
from repro.runtime.reconfiguration import ReconfigurationModel, ReconfigurationBreakdown
from repro.runtime.controller import (
    DegradationTier,
    ReplanDecision,
    ReplanPolicy,
    TrainingController,
)
from repro.runtime.faults import FaultEvent, FaultScenarioGenerator, FaultTrace
from repro.runtime.replay import ChurnReplayer, ChurnReport

__all__ = [
    "CommunicationGroups",
    "build_rank_topology",
    "RankAssignment",
    "CheckpointManager",
    "CheckpointConfig",
    "ReconfigurationModel",
    "ReconfigurationBreakdown",
    "DegradationTier",
    "ReplanDecision",
    "ReplanPolicy",
    "TrainingController",
    "FaultEvent",
    "FaultScenarioGenerator",
    "FaultTrace",
    "ChurnReplayer",
    "ChurnReport",
]
