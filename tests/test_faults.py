"""Unit tests for the fault-injection harness (scenarios + serialization)."""

import pytest

from repro.hardware.availability import (
    AvailabilityEvent,
    AvailabilityTrace,
    AvailabilityTraceGenerator,
)
from repro.runtime.faults import (
    FaultEvent,
    FaultScenarioGenerator,
    FaultTrace,
)

POOLS = {("us-central1-a", "a2-highgpu-4g"): 4,
         ("us-central1-a", "n1-standard-v100-4"): 4,
         ("us-central1-b", "a2-highgpu-4g"): 2}


# -- availability-layer scenario primitives -----------------------------------

def test_preemption_burst_loses_then_recovers():
    generator = AvailabilityTraceGenerator(seed=0)
    events = generator.preemption_burst("z", "a2-highgpu-4g", base_nodes=4,
                                        at_s=100.0, burst_size=3,
                                        spacing_s=10.0, recovery_s=600.0)
    counts = [e.available_nodes for e in events]
    assert counts == [3, 2, 1, 4]
    assert events[0].time_s == 100.0
    assert events[-1].time_s == 100.0 + 20.0 + 600.0
    assert all(0 <= c <= 4 for c in counts)


def test_quota_cut_steps_down_and_restores():
    generator = AvailabilityTraceGenerator(seed=0)
    events = generator.quota_cut("z", "a2-highgpu-4g", base_nodes=8,
                                 at_s=0.0, cut_fraction=0.5,
                                 restore_after_s=100.0)
    assert [e.available_nodes for e in events] == [4, 8]
    no_restore = generator.quota_cut("z", "a2-highgpu-4g", base_nodes=8,
                                     at_s=0.0, cut_fraction=0.25,
                                     restore_after_s=None)
    assert [e.available_nodes for e in no_restore] == [6]


def test_node_flap_alternates():
    generator = AvailabilityTraceGenerator(seed=0)
    events = generator.node_flap("z", "a2-highgpu-4g", base_nodes=4,
                                 at_s=0.0, period_s=100.0, cycles=2)
    assert [e.available_nodes for e in events] == [3, 4, 3, 4]
    assert len(events) == 4


def test_zone_outage_hits_every_pool_of_the_zone_simultaneously():
    generator = AvailabilityTraceGenerator(seed=0)
    events = generator.zone_outage(POOLS, "us-central1-a", at_s=50.0,
                                   outage_s=500.0)
    outage = [e for e in events if e.available_nodes == 0]
    assert {e.node_type for e in outage} == {"a2-highgpu-4g",
                                            "n1-standard-v100-4"}
    assert all(e.time_s == 50.0 for e in outage)
    assert all(e.zone == "us-central1-a" for e in events)
    recovered = [e for e in events if e.time_s == 550.0]
    assert sorted(e.available_nodes for e in recovered) == [4, 4]


# -- labelled fault scenarios -------------------------------------------------

def test_fault_event_validation_and_round_trip():
    with pytest.raises(ValueError):
        FaultEvent(-1.0, "initial", "z", "a2-highgpu-4g", 1)
    with pytest.raises(ValueError):
        FaultEvent(0.0, "initial", "z", "a2-highgpu-4g", -1)
    event = FaultEvent(5.0, "quota_cut", "z", "a2-highgpu-4g", 2)
    assert FaultEvent.from_dict(event.to_dict()) == event


def test_scenarios_are_labelled_with_their_kind():
    generator = FaultScenarioGenerator(seed=0)
    assert all(e.kind == "preemption_burst" for e in generator.preemption_burst(
        "z", "a2-highgpu-4g", 4, at_s=0.0, burst_size=2))
    assert all(e.kind == "quota_cut" for e in generator.quota_cut(
        "z", "a2-highgpu-4g", 4, at_s=0.0))
    assert all(e.kind == "node_flap" for e in generator.node_flap(
        "z", "a2-highgpu-4g", 4, at_s=0.0))
    assert all(e.kind == "zone_outage" for e in generator.zone_outage(
        POOLS, "us-central1-a", at_s=0.0))


def test_mid_drain_preemption_lands_inside_the_drain_window():
    generator = FaultScenarioGenerator(seed=0)
    events = generator.mid_drain_preemption(
        "z", "a2-highgpu-4g", base_nodes=4, drain_started_s=1000.0,
        drain_duration_s=200.0, lost_nodes=2, recovery_s=300.0)
    assert events[0].time_s == 1100.0      # midpoint of [1000, 1200)
    assert 1000.0 < events[0].time_s < 1200.0
    assert events[0].available_nodes == 2
    assert events[0].kind == "mid_drain_preemption"
    assert events[1].time_s == 1400.0
    assert events[1].available_nodes == 4
    with pytest.raises(ValueError):
        generator.mid_drain_preemption("z", "a2-highgpu-4g", 4,
                                       drain_started_s=0.0,
                                       drain_duration_s=0.0)


def test_price_move_event_round_trips_and_validates_multiplier():
    with pytest.raises(ValueError):
        FaultEvent(0.0, "price_move", "z", "a2-highgpu-4g", 4,
                   price_multiplier=0.0)
    with pytest.raises(ValueError):
        FaultEvent(0.0, "price_move", "z", "a2-highgpu-4g", 4,
                   price_multiplier=-2.0)
    event = FaultEvent(60.0, "price_move", "z", "a2-highgpu-4g", 4,
                       price_multiplier=2.5)
    assert FaultEvent.from_dict(event.to_dict()) == event
    # The field is emitted only when set, so availability-only traces stay
    # byte-identical to format version 1 documents.
    plain = FaultEvent(5.0, "quota_cut", "z", "a2-highgpu-4g", 2)
    assert "price_multiplier" not in plain.to_dict()
    assert FaultEvent.from_dict(plain.to_dict()).price_multiplier is None


def test_price_move_scenario_emits_move_and_revert():
    generator = FaultScenarioGenerator(seed=0)
    events = generator.price_move("z", "a2-highgpu-4g", base_nodes=4,
                                  at_s=600.0, multiplier=3.0,
                                  revert_after_s=1200.0)
    assert [e.kind for e in events] == ["price_move", "price_move"]
    assert [e.price_multiplier for e in events] == [3.0, 1.0]
    assert [e.time_s for e in events] == [600.0, 1800.0]
    # Availability is untouched: replaying the step function alone is a
    # no-op, the pricing perturbation lives entirely in the multiplier.
    assert all(e.available_nodes == 4 for e in events)
    solo = generator.price_move("z", "a2-highgpu-4g", 4, at_s=0.0,
                                multiplier=0.5)
    assert len(solo) == 1
    assert solo[0].price_multiplier == 0.5
    with pytest.raises(ValueError):
        generator.price_move("z", "a2-highgpu-4g", 4, at_s=0.0,
                             multiplier=0.0)


# -- fault traces -------------------------------------------------------------

def test_trace_sorts_events_and_groups_simultaneous_ones():
    trace = FaultTrace(events=[
        FaultEvent(100.0, "zone_outage", "a", "a2-highgpu-4g", 0),
        FaultEvent(0.0, "initial", "a", "a2-highgpu-4g", 4),
        FaultEvent(100.0, "zone_outage", "a", "n1-standard-v100-4", 0),
    ], duration_s=200.0)
    assert [e.time_s for e in trace.events] == [0.0, 100.0, 100.0]
    groups = trace.grouped_events()
    assert [t for t, _ in groups] == [0.0, 100.0]
    assert len(groups[1][1]) == 2
    assert trace.pools == [("a", "a2-highgpu-4g"), ("a", "n1-standard-v100-4")]


def test_trace_to_availability_trace_applies_steps():
    trace = FaultTrace(events=[
        FaultEvent(0.0, "initial", "a", "a2-highgpu-4g", 4),
        FaultEvent(100.0, "quota_cut", "a", "a2-highgpu-4g", 2),
    ], duration_s=200.0)
    availability = trace.to_availability_trace()
    assert availability.available_at(50.0, "a", "a2-highgpu-4g") == 4
    assert availability.available_at(150.0, "a", "a2-highgpu-4g") == 2


def test_from_availability_labels_steps_and_drops_unchanged_levels():
    """A pool's level before its first step is 0, as in
    ``AvailabilityTrace.available_at``; t=0 steps are kept and later steps
    that keep a pool's level are dropped."""
    availability = AvailabilityTrace(events=[
        AvailabilityEvent(0.0, "z", "a2-highgpu-4g", 0),
        AvailabilityEvent(100.0, "z", "n1-standard-v100-4", 2),
        AvailabilityEvent(200.0, "z", "n1-standard-v100-4", 1),
        AvailabilityEvent(300.0, "z", "a2-highgpu-4g", 0),        # no change
        AvailabilityEvent(400.0, "z", "a2-highgpu-4g", 3),
        AvailabilityEvent(500.0, "z", "n1-standard-v100-4", 1),   # no change
    ], duration_s=600.0)
    trace = FaultTrace.from_availability(availability)
    assert [(e.time_s, e.kind, e.node_type, e.available_nodes)
            for e in trace.events] == [
        (0.0, "availability", "a2-highgpu-4g", 0),
        (100.0, "availability", "n1-standard-v100-4", 2),
        (200.0, "availability", "n1-standard-v100-4", 1),
        (400.0, "availability", "a2-highgpu-4g", 3),
    ]
    assert trace.duration_s == 600.0
    replayed = trace.to_availability_trace()
    for t in (0.0, 50.0, 150.0, 250.0, 450.0, 550.0):
        for node_type in ("a2-highgpu-4g", "n1-standard-v100-4"):
            assert (replayed.available_at(t, "z", node_type)
                    == availability.available_at(t, "z", node_type))


def test_trace_json_round_trip_is_exact():
    trace = FaultScenarioGenerator(seed=5).churn_trace(POOLS, num_events=80)
    text = trace.to_json()
    restored = FaultTrace.from_json(text)
    assert restored == trace
    assert restored.to_json() == text


def test_trace_rejects_newer_format():
    with pytest.raises(ValueError):
        FaultTrace.from_dict({"format_version": 99, "events": []})


# -- churn trace generation ---------------------------------------------------

def test_churn_trace_has_exact_event_count_and_initials():
    trace = FaultScenarioGenerator(seed=0).churn_trace(
        POOLS, duration_s=4 * 3600.0, num_events=200)
    assert len(trace.events) == 200
    initials = [e for e in trace.events if e.kind == "initial"]
    assert len(initials) == len(POOLS)
    assert all(e.time_s == 0.0 for e in initials)
    assert all(e.time_s < trace.duration_s for e in trace.events)
    kinds = {e.kind for e in trace.events}
    assert kinds >= {"initial", "preemption_burst", "quota_cut", "node_flap"}


def test_churn_trace_same_seed_is_byte_identical():
    first = FaultScenarioGenerator(seed=42).churn_trace(POOLS, num_events=150)
    second = FaultScenarioGenerator(seed=42).churn_trace(POOLS, num_events=150)
    assert first == second
    assert first.to_json() == second.to_json()


def test_churn_trace_different_seeds_differ():
    first = FaultScenarioGenerator(seed=0).churn_trace(POOLS, num_events=150)
    second = FaultScenarioGenerator(seed=1).churn_trace(POOLS, num_events=150)
    assert first != second


def test_churn_trace_validates_inputs():
    generator = FaultScenarioGenerator(seed=0)
    with pytest.raises(ValueError):
        generator.churn_trace({}, num_events=10)
    with pytest.raises(ValueError):
        generator.churn_trace(POOLS, num_events=1)


def test_generator_seed_determinism_across_scenario_sequences():
    """A *sequence* of generator calls replays identically under one seed."""
    def sequence(seed):
        generator = FaultScenarioGenerator(seed=seed)
        events = []
        events += generator.preemption_burst("z", "a2-highgpu-4g", 4, at_s=0.0)
        events += generator.node_flap("z", "a2-highgpu-4g", 4, at_s=500.0,
                                      cycles=2)
        events += generator.quota_cut("z", "a2-highgpu-4g", 4, at_s=900.0)
        return events

    assert sequence(7) == sequence(7)
    assert sequence(7) != sequence(8)
