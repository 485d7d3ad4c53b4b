"""Fault-injection harness: seeded, replayable churn scenarios.

The paper's whole premise (sections 4.4 and 5.5) is surviving *dynamic*
clusters -- spot preemptions, slow quota ramps, zone outages, nodes that
flap in and out.  This module turns those failure modes into deterministic,
serializable event streams the replanning controller can be driven with:

* :class:`FaultEvent` -- one availability step *labelled with its trigger
  cause* (``preemption_burst``, ``quota_cut``, ``zone_outage``,
  ``node_flap``, ``mid_drain_preemption``, ...), so controller decisions and
  :class:`~repro.runtime.controller.ReconfigurationEvent` records can carry
  the cause for observability.
* :class:`FaultTrace` -- an ordered stream of fault events with JSON
  round-tripping (save a trace, replay it elsewhere, diff two runs) and
  grouping of simultaneous multi-pool events (a zone outage hits every pool
  of the zone at the same instant and must be handled as *one* topology
  change, not several).
* :class:`FaultScenarioGenerator` -- seeded composition of the availability
  primitives in :class:`~repro.hardware.availability
  .AvailabilityTraceGenerator` into labelled scenarios, including
  :meth:`~FaultScenarioGenerator.churn_trace`, which packs an exact number
  of mixed events (the 1000-event churn bench) into one deterministic
  stream: same seed, same trace, byte for byte.

Replay a trace with :class:`~repro.runtime.replay.ChurnReplayer` (or from
the CLI: ``sailor-repro churn --seed 0 --events 1000 --trace-out t.json``
then ``sailor-repro churn --trace-in t.json``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.hardware.availability import (
    AvailabilityEvent,
    AvailabilityTrace,
    AvailabilityTraceGenerator,
)

#: Format version written into every serialized trace document.
FORMAT_VERSION = 1

#: Trigger kinds a generated fault event may carry.
FAULT_KINDS = (
    "initial",
    "preemption_burst",
    "mid_drain_preemption",
    "quota_cut",
    "zone_outage",
    "node_flap",
    "price_move",
    # Only FaultTrace.from_availability labels events with this kind.
    "availability",
)

#: Fields every serialized fault event carries.
_EVENT_FIELDS = ("time_s", "kind", "zone", "node_type", "available_nodes")


def _require_fields(data, what: str, names: tuple[str, ...]) -> None:
    """``ValueError`` unless ``data`` is a JSON object holding ``names``."""
    if not isinstance(data, dict):
        raise ValueError(f"a {what} is a JSON object, got "
                         f"{type(data).__name__}")
    for name in names:
        if name not in data:
            raise ValueError(f"{what} has no {name!r} field")


@dataclass(frozen=True)
class FaultEvent:
    """One availability step change labelled with its trigger cause.

    A ``price_move`` event additionally carries ``price_multiplier``: the
    factor applied to the pool's GPU hourly price from this instant on
    (relative to the price at replay start).  Its ``available_nodes`` is
    the pool's unchanged level, so replaying the availability step function
    alone is a no-op -- the pricing perturbation is interpreted by
    :class:`~repro.runtime.replay.ChurnReplayer`, which drives a
    cost-objective replan through the controller.  The field is emitted
    only when set, so traces without price moves stay byte-identical to
    format version 1 documents.
    """

    time_s: float
    kind: str
    zone: str
    node_type: str
    available_nodes: int
    price_multiplier: float | None = None

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("time_s must be non-negative")
        if self.available_nodes < 0:
            raise ValueError("available_nodes must be non-negative")
        if self.price_multiplier is not None and self.price_multiplier <= 0:
            raise ValueError("price_multiplier must be positive")

    def to_availability_event(self) -> AvailabilityEvent:
        """Strip the cause label down to the availability-layer event."""
        return AvailabilityEvent(time_s=self.time_s, zone=self.zone,
                                 node_type=self.node_type,
                                 available_nodes=self.available_nodes)

    def to_dict(self) -> dict:
        """Plain-dict form (stable keys, used by trace serialization)."""
        data = {"time_s": self.time_s, "kind": self.kind, "zone": self.zone,
                "node_type": self.node_type,
                "available_nodes": self.available_nodes}
        if self.price_multiplier is not None:
            data["price_multiplier"] = self.price_multiplier
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        """Inverse of :meth:`to_dict`; ``ValueError`` names what a document
        that is not an event lacks."""
        _require_fields(data, "fault event", _EVENT_FIELDS)
        multiplier = data.get("price_multiplier")
        return cls(time_s=float(data["time_s"]), kind=data["kind"],
                   zone=data["zone"], node_type=data["node_type"],
                   available_nodes=int(data["available_nodes"]),
                   price_multiplier=(None if multiplier is None
                                     else float(multiplier)))


@dataclass
class FaultTrace:
    """A deterministic, replayable stream of labelled availability changes."""

    events: list[FaultEvent] = field(default_factory=list)
    duration_s: float = 8 * 3600.0

    def __post_init__(self) -> None:
        # Stable sort: events sharing a timestamp keep generation order, so
        # serialization round-trips and replays are byte-deterministic.
        self.events.sort(key=lambda e: e.time_s)

    @property
    def pools(self) -> list[tuple[str, str]]:
        """All (zone, node_type) pools the trace touches."""
        return sorted({(e.zone, e.node_type) for e in self.events})

    @classmethod
    def from_availability(cls, trace: AvailabilityTrace) -> "FaultTrace":
        """Label an availability trace for replay by the controller loop.

        Every step becomes an ``availability`` event.  Steps after t=0
        that leave a pool at its current level (0 before the pool's first
        step, as in :meth:`AvailabilityTrace.available_at`) are dropped:
        they give the controller nothing to react to.
        """
        events: list[FaultEvent] = []
        level: dict[tuple[str, str], int] = {}
        for e in trace.events:
            pool = (e.zone, e.node_type)
            if e.time_s > 0.0 and level.get(pool, 0) == e.available_nodes:
                continue
            level[pool] = e.available_nodes
            events.append(FaultEvent(e.time_s, "availability", e.zone,
                                     e.node_type, e.available_nodes))
        return cls(events=events, duration_s=trace.duration_s)

    def to_availability_trace(self) -> AvailabilityTrace:
        """The unlabelled availability step function of this trace."""
        return AvailabilityTrace(
            events=[e.to_availability_event() for e in self.events],
            duration_s=self.duration_s)

    def grouped_events(self) -> list[tuple[float, list[FaultEvent]]]:
        """Events grouped by exact timestamp, in time order.

        Simultaneous multi-pool events (e.g. a zone outage hitting several
        pools at one instant) form a single group, so the controller sees
        one consistent topology change instead of a partially-applied one.
        """
        groups: list[tuple[float, list[FaultEvent]]] = []
        for event in self.events:
            if groups and groups[-1][0] == event.time_s:
                groups[-1][1].append(event)
            else:
                groups.append((event.time_s, [event]))
        return groups

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict document (versioned)."""
        return {"format_version": FORMAT_VERSION,
                "duration_s": self.duration_s,
                "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultTrace":
        """Inverse of :meth:`to_dict` (exact round-trip).

        A document that is not a trace raises ``ValueError`` naming what
        it lacks, rather than replaying as an empty trace.
        """
        _require_fields(data, "fault trace", ())
        version = data.get("format_version", FORMAT_VERSION)
        if version > FORMAT_VERSION:
            raise ValueError(f"fault trace format {version} is newer than "
                             f"supported ({FORMAT_VERSION})")
        _require_fields(data, "fault trace", ("events", "duration_s"))
        return cls(events=[FaultEvent.from_dict(e) for e in data["events"]],
                   duration_s=float(data["duration_s"]))

    def to_json(self, *, indent: int | None = 2) -> str:
        """JSON encoding of the trace."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultTrace":
        """Decode a trace written by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


def _label(events: list[AvailabilityEvent], kind: str) -> list[FaultEvent]:
    """Attach one scenario's trigger kind to its availability events."""
    return [FaultEvent(time_s=e.time_s, kind=kind, zone=e.zone,
                       node_type=e.node_type,
                       available_nodes=e.available_nodes) for e in events]


class FaultScenarioGenerator:
    """Seeded composition of availability primitives into labelled faults.

    Every method is a pure function of the construction seed and its
    arguments: the same seed produces the identical event stream, which is
    what makes fault scenarios reproducible in CI and bisectable when a
    replay regresses.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._gen = AvailabilityTraceGenerator(seed)
        self._rng: np.random.Generator = self._gen._rng

    # -- single scenarios ----------------------------------------------------

    def preemption_burst(self, zone: str, node_type: str, base_nodes: int,
                         at_s: float, **kwargs) -> list[FaultEvent]:
        """Spot preemptions landing in a short window (see the primitive)."""
        return _label(self._gen.preemption_burst(zone, node_type, base_nodes,
                                                 at_s, **kwargs),
                      "preemption_burst")

    def quota_cut(self, zone: str, node_type: str, base_nodes: int,
                  at_s: float, **kwargs) -> list[FaultEvent]:
        """A provider quota reduction with optional restore."""
        return _label(self._gen.quota_cut(zone, node_type, base_nodes, at_s,
                                          **kwargs), "quota_cut")

    def node_flap(self, zone: str, node_type: str, base_nodes: int,
                  at_s: float, **kwargs) -> list[FaultEvent]:
        """A node leaving and rejoining repeatedly (debounce fodder)."""
        return _label(self._gen.node_flap(zone, node_type, base_nodes, at_s,
                                          **kwargs), "node_flap")

    def zone_outage(self, pools: dict[tuple[str, str], int], zone: str,
                    at_s: float, **kwargs) -> list[FaultEvent]:
        """A whole zone going dark: simultaneous multi-pool events."""
        return _label(self._gen.zone_outage(pools, zone, at_s, **kwargs),
                      "zone_outage")

    def mid_drain_preemption(self, zone: str, node_type: str, base_nodes: int,
                             drain_started_s: float, drain_duration_s: float,
                             lost_nodes: int = 1,
                             recovery_s: float = 900.0) -> list[FaultEvent]:
        """A preemption placed *inside* an async checkpoint drain window.

        The checkpoint whose drain spans ``[drain_started_s, drain_started_s
        + drain_duration_s)`` is not durable yet when the preemption lands at
        the window's midpoint, so the rollback must reach back to the
        previous durable checkpoint (the
        :class:`~repro.runtime.checkpoint.CheckpointManager` contract this
        scenario exists to exercise).
        """
        if drain_duration_s <= 0:
            raise ValueError("drain_duration_s must be positive")
        at = drain_started_s + drain_duration_s / 2.0
        remaining = max(0, base_nodes - lost_nodes)
        events = [FaultEvent(at, "mid_drain_preemption", zone, node_type,
                             remaining)]
        events.append(FaultEvent(at + recovery_s, "mid_drain_preemption",
                                 zone, node_type, base_nodes))
        return events

    def price_move(self, zone: str, node_type: str, base_nodes: int,
                   at_s: float, multiplier: float,
                   revert_after_s: float | None = None) -> list[FaultEvent]:
        """A spot-price change on one pool (availability unchanged).

        Emits one ``price_move`` event scaling the pool's GPU hourly price
        by ``multiplier`` (relative to the price at replay start), plus an
        optional revert to the original price after ``revert_after_s``.
        The events carry the pool's unchanged node level so the
        availability step function is untouched; the replayer interprets
        the multiplier and triggers a cost-objective replan.
        """
        if multiplier <= 0:
            raise ValueError("multiplier must be positive")
        events = [FaultEvent(at_s, "price_move", zone, node_type, base_nodes,
                             price_multiplier=multiplier)]
        if revert_after_s is not None:
            events.append(FaultEvent(at_s + revert_after_s, "price_move",
                                     zone, node_type, base_nodes,
                                     price_multiplier=1.0))
        return events

    # -- composed churn ------------------------------------------------------

    def churn_trace(self, pools: dict[tuple[str, str], int],
                    duration_s: float = 4 * 3600.0,
                    num_events: int = 1000,
                    kind_weights: dict[str, float] | None = None,
                    ) -> FaultTrace:
        """An exact-count mixed churn stream over several pools.

        Scenario kinds (preemption bursts, quota cuts, node flaps, zone
        outages) are drawn with ``kind_weights`` at seeded uniform start
        times; generation continues until at least ``num_events`` events
        exist inside the duration, then the stream is truncated to exactly
        ``num_events`` earliest events.  Per-pool levels are absolute steps
        against the pool's base capacity, so overlapping scenarios compose
        into a valid (if adversarial) step function.
        """
        if not pools:
            raise ValueError("churn_trace needs at least one pool")
        if not duration_s > 0:
            # Scenario start times scale with the duration, so a zero one
            # drops every event but the initial ones and the loop below
            # would spin until its safety valve.
            raise ValueError(f"duration_s must be > 0, got {duration_s}")
        if num_events < len(pools):
            raise ValueError("num_events must cover the initial events")
        weights = dict(kind_weights or {"preemption_burst": 0.35,
                                        "node_flap": 0.3,
                                        "quota_cut": 0.2,
                                        "zone_outage": 0.15})
        kinds = sorted(weights)
        probs = np.array([weights[k] for k in kinds], dtype=float)
        probs = probs / probs.sum()
        pool_keys = sorted(pools)
        zones = sorted({zone for zone, _ in pool_keys})

        events: list[FaultEvent] = [
            FaultEvent(0.0, "initial", zone, node_type, pools[(zone, node_type)])
            for zone, node_type in pool_keys]
        guard = 0
        while len(events) < num_events:
            guard += 1
            if guard > 100 * num_events:  # pragma: no cover - safety valve
                raise RuntimeError("churn_trace failed to reach num_events")
            kind = kinds[int(self._rng.choice(len(kinds), p=probs))]
            at = float(self._rng.uniform(0.02, 0.92)) * duration_s
            zone, node_type = pool_keys[int(self._rng.integers(len(pool_keys)))]
            base = pools[(zone, node_type)]
            if kind == "preemption_burst":
                burst = int(self._rng.integers(1, max(2, base)))
                produced = self.preemption_burst(
                    zone, node_type, base, at, burst_size=burst,
                    spacing_s=float(self._rng.uniform(10.0, 60.0)),
                    recovery_s=float(self._rng.uniform(300.0, 1800.0)))
            elif kind == "quota_cut":
                produced = self.quota_cut(
                    zone, node_type, base, at,
                    cut_fraction=float(self._rng.uniform(0.25, 0.75)),
                    restore_after_s=float(self._rng.uniform(900.0, 3600.0)))
            elif kind == "node_flap":
                produced = self.node_flap(
                    zone, node_type, base, at,
                    period_s=float(self._rng.uniform(60.0, 240.0)),
                    cycles=int(self._rng.integers(1, 4)))
            elif kind == "price_move":
                # Only reachable through caller-supplied kind_weights: the
                # default weights (and so every existing seeded trace) are
                # unchanged, byte for byte.
                produced = self.price_move(
                    zone, node_type, base, at,
                    multiplier=float(self._rng.uniform(0.5, 2.0)),
                    revert_after_s=float(self._rng.uniform(900.0, 3600.0)))
            else:  # zone_outage
                outage_zone = zones[int(self._rng.integers(len(zones)))]
                produced = self.zone_outage(
                    pools, outage_zone, at,
                    outage_s=float(self._rng.uniform(600.0, 2400.0)))
            events.extend(e for e in produced if e.time_s < duration_s)

        trace = FaultTrace(events=events, duration_s=duration_s)
        trace.events = trace.events[:num_events]
        return trace
