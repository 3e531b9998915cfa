"""Tests for coordinator quarantine and zone failover."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.distributed import wire
from repro.distributed.coordinator import Coordinator, Zone, partition_by_location
from repro.events.messages import EventKind, end_containment, end_location
from repro.events.wellformed import check_well_formed
from repro.faults import WarningKind
from repro.model.locations import UNKNOWN_COLOR, LocationKind, LocationRegistry
from repro.model.objects import PackagingLevel
from repro.readers.reader import Reader, ReaderKind
from repro.simulator.config import SimulationConfig
from repro.simulator.warehouse import WarehouseSimulator

from tests.conftest import case, epoch_readings, item


def two_zone_setup(checkpoint_interval=None, strict=False):
    registry = LocationRegistry()
    dock = registry.create("dock", LocationKind.ENTRY_DOOR)
    shelf = registry.create("shelf", LocationKind.SHELF)
    zones = [
        Zone.build("zone-a", [Reader(0, dock)], registry),
        Zone.build("zone-b", [Reader(1, shelf)], registry),
    ]
    coordinator = Coordinator(
        zones, strict=strict, checkpoint_interval=checkpoint_interval
    )
    return coordinator, dock, shelf


def warehouse_zones(duration=400, checkpoint_interval=50):
    config = SimulationConfig(
        duration=duration,
        pallet_period=120,
        cases_per_pallet_min=2,
        cases_per_pallet_max=2,
        items_per_case=4,
        read_rate=0.95,
        shelf_read_period=10,
        num_shelves=2,
        shelving_time_mean=100,
        shelving_time_jitter=20,
        seed=17,
    )
    sim = WarehouseSimulator(config).run()
    zones = partition_by_location(
        sim.layout.readers,
        {
            "inbound": ["entry-door", "receiving-belt"],
            "storage": ["shelf-1", "shelf-2"],
            "outbound": ["packaging-area", "exit-belt", "exit-door"],
        },
        sim.layout.registry,
    )
    return sim, Coordinator(zones, checkpoint_interval=checkpoint_interval)


# ---------------------------------------------------------------------------
# unmapped-reader quarantine (satellite 1)
# ---------------------------------------------------------------------------


class TestUnmappedReaders:
    def test_strict_mode_keeps_the_seed_keyerror(self):
        coordinator, *_ = two_zone_setup(strict=True)
        with pytest.raises(KeyError, match="reading from reader 42 owned by no zone"):
            coordinator.process_epoch(epoch_readings(0, {42: [item(1)]}))

    def test_lenient_mode_quarantines_and_warns(self):
        coordinator, *_ = two_zone_setup()
        result = coordinator.process_epoch(
            epoch_readings(0, {0: [item(1)], 42: [item(2), item(3)]})
        )
        assert [w.kind for w in result.warnings] == [WarningKind.UNMAPPED_READER]
        assert result.warnings[0].reader_id == 42
        held = coordinator.quarantine.readings
        assert {r.tag for r in held} == {item(2), item(3)}
        # the mapped reading still went through
        assert coordinator.owner_of(item(1)) == "zone-a"
        assert coordinator.owner_of(item(2)) is None

    def test_warnings_are_per_epoch(self):
        coordinator, *_ = two_zone_setup()
        coordinator.process_epoch(epoch_readings(0, {42: [item(1)]}))
        result = coordinator.process_epoch(epoch_readings(1, {0: [item(1)]}))
        assert result.warnings == []
        assert len(coordinator.quarantine.warnings) == 1


# ---------------------------------------------------------------------------
# failover guard rails
# ---------------------------------------------------------------------------


class TestFailoverValidation:
    def test_fail_requires_checkpointing(self):
        coordinator, *_ = two_zone_setup(checkpoint_interval=None)
        with pytest.raises(RuntimeError, match="checkpoint_interval"):
            coordinator.fail_zone("zone-a", at=0)

    def test_unknown_zone(self):
        coordinator, *_ = two_zone_setup(checkpoint_interval=10)
        with pytest.raises(KeyError, match="unknown zone"):
            coordinator.fail_zone("zone-z", at=0)

    def test_double_fail(self):
        coordinator, *_ = two_zone_setup(checkpoint_interval=10)
        coordinator.fail_zone("zone-a", at=0)
        with pytest.raises(ValueError, match="already failed"):
            coordinator.fail_zone("zone-a", at=1)

    def test_recover_not_failed(self):
        coordinator, *_ = two_zone_setup(checkpoint_interval=10)
        with pytest.raises(ValueError, match="not failed"):
            coordinator.recover_zone("zone-a", at=0)

    def test_bad_interval(self):
        registry = LocationRegistry()
        zone = Zone.build("a", [Reader(0, registry.create("dock"))], registry)
        with pytest.raises(ValueError, match="checkpoint_interval must be >= 1"):
            Coordinator([zone], checkpoint_interval=0)

    def test_epoch_defaulting_needs_history(self):
        coordinator, *_ = two_zone_setup(checkpoint_interval=10)
        with pytest.raises(ValueError, match="no epoch processed yet"):
            coordinator.fail_zone("zone-a")


# ---------------------------------------------------------------------------
# failover behavior (unit scale)
# ---------------------------------------------------------------------------


class TestFailover:
    def test_fail_closes_open_intervals(self):
        coordinator, dock, shelf = two_zone_setup(checkpoint_interval=2)
        messages = []
        for epoch in range(6):
            messages.extend(
                coordinator.process_epoch(
                    epoch_readings(epoch, {1: [case(1), item(1)]})
                ).messages
            )
        closures = coordinator.fail_zone("zone-b")
        assert closures  # item/case had open intervals
        assert coordinator.failed_zones == frozenset({"zone-b"})
        check_well_formed(messages + closures)

    def test_queries_degrade_during_outage(self):
        coordinator, dock, shelf = two_zone_setup(checkpoint_interval=2)
        for epoch in range(4):
            coordinator.process_epoch(epoch_readings(epoch, {1: [item(1)]}))
        assert coordinator.location_of(item(1)) == shelf.color
        coordinator.fail_zone("zone-b")
        assert coordinator.location_of(item(1)) == UNKNOWN_COLOR
        assert coordinator.container_of(item(1)) is None

    def test_orphans_are_re_adopted_by_observing_zone(self):
        coordinator, dock, shelf = two_zone_setup(checkpoint_interval=2)
        messages = []
        for epoch in range(4):
            messages.extend(
                coordinator.process_epoch(epoch_readings(epoch, {1: [item(1)]})).messages
            )
        messages.extend(coordinator.fail_zone("zone-b"))
        # the dead zone's object shows up at the dock: zone-a adopts it
        for epoch in range(4, 8):
            messages.extend(
                coordinator.process_epoch(epoch_readings(epoch, {0: [item(1)]})).messages
            )
        assert coordinator.owner_of(item(1)) == "zone-a"
        assert coordinator.location_of(item(1)) == dock.color
        check_well_formed(messages)

    def test_recover_restores_ownership_and_stream(self):
        coordinator, dock, shelf = two_zone_setup(checkpoint_interval=2)
        messages = []
        for epoch in range(6):
            messages.extend(
                coordinator.process_epoch(epoch_readings(epoch, {1: [item(1)]})).messages
            )
        messages.extend(coordinator.fail_zone("zone-b"))
        # readings keep arriving while the zone is down (buffered)
        for epoch in range(6, 10):
            messages.extend(
                coordinator.process_epoch(epoch_readings(epoch, {1: [item(1)]})).messages
            )
        messages.extend(coordinator.recover_zone("zone-b"))
        assert coordinator.failed_zones == frozenset()
        assert coordinator.location_of(item(1)) == shelf.color
        # and the stream continues seamlessly
        for epoch in range(10, 14):
            messages.extend(
                coordinator.process_epoch(epoch_readings(epoch, {1: [item(1)]})).messages
            )
        check_well_formed(messages)
        kinds = [w.kind for w in coordinator.quarantine.warnings]
        assert kinds.count(WarningKind.ZONE_FAILED) == 1
        assert kinds.count(WarningKind.ZONE_RECOVERED) == 1

    def test_migrated_tag_is_not_reclaimed_on_recovery(self):
        coordinator, dock, shelf = two_zone_setup(checkpoint_interval=2)
        messages = []
        for epoch in range(4):
            messages.extend(
                coordinator.process_epoch(epoch_readings(epoch, {1: [item(1)]})).messages
            )
        messages.extend(coordinator.fail_zone("zone-b"))
        for epoch in range(4, 8):
            messages.extend(
                coordinator.process_epoch(epoch_readings(epoch, {0: [item(1)]})).messages
            )
        messages.extend(coordinator.recover_zone("zone-b"))
        assert coordinator.owner_of(item(1)) == "zone-a"
        assert coordinator.location_of(item(1)) == dock.color
        check_well_formed(messages)

    def test_checkpoint_cadence(self):
        coordinator, *_ = two_zone_setup(checkpoint_interval=3)
        assert coordinator._checkpoints["zone-a"].epoch is None  # pristine
        for epoch in range(7):
            coordinator.process_epoch(epoch_readings(epoch, {0: [item(1)]}))
        # checkpoints at epochs 2 and 5; the request log holds epoch 6 only
        held = coordinator._checkpoints["zone-a"]
        assert held.epoch == 5
        ((msg_type, [(_index, _flags, readings)]),) = held.log
        assert msg_type == wire.MSG_EPOCH and readings.epoch == 6
        # migrations are logged beside the epochs and do not move the cadence
        coordinator.process_epoch(epoch_readings(7, {1: [item(1)]}))
        assert [request[0] for request in held.log] == [
            wire.MSG_EPOCH, wire.MSG_RELEASE, wire.MSG_EPOCH,
        ]
        coordinator.process_epoch(epoch_readings(8, {1: [item(1)]}))
        assert coordinator._checkpoints["zone-a"].epoch == 8
        assert coordinator._checkpoints["zone-a"].log == []

    def test_recovery_keeps_what_was_adopted_before_the_failure(self):
        """The whole request log is replayed, migrations included: a
        confirmation zone B adopted two epochs before it failed is still
        there after recovery (a readings-only replay re-creates the
        object bare)."""
        registry = LocationRegistry()
        belt = registry.create("belt", LocationKind.BELT)
        shelf = registry.create("shelf", LocationKind.SHELF)
        special = Reader(
            0, belt, kind=ReaderKind.SPECIAL, singulation_level=PackagingLevel.CASE
        )
        coordinator = Coordinator(
            [
                Zone.build("zone-a", [special], registry),
                Zone.build("zone-b", [Reader(1, shelf)], registry),
            ],
            checkpoint_interval=50,
        )
        messages = []
        for epoch in range(9):
            reader = 0 if epoch < 3 else 1  # confirmed on the belt, then shelved
            messages.extend(
                coordinator.process_epoch(
                    epoch_readings(epoch, {reader: [case(1), item(1)]})
                ).messages
            )
            if epoch == 4:  # adopted at epoch 3
                adopted = coordinator.zones["zone-b"].spire.graph.get(item(1))
                assert adopted.confirmed_parent == case(1)
                messages.extend(coordinator.fail_zone("zone-b"))
        messages.extend(coordinator.recover_zone("zone-b"))
        recovered = coordinator.zones["zone-b"].spire.graph.get(item(1))
        assert recovered.confirmed_parent == case(1)
        assert recovered.confirmed_at == adopted.confirmed_at
        assert coordinator.container_of(item(1)) == case(1)
        check_well_formed(messages)


# ---------------------------------------------------------------------------
# acceptance: fail/recover mid warehouse trace
# ---------------------------------------------------------------------------


class TestFailoverAcceptance:
    def test_fail_and_recover_mid_trace(self):
        """ISSUE acceptance: fail a zone mid-stream, recover it later; the
        merged stream is well-formed and no tag is permanently orphaned."""
        sim, coordinator = warehouse_zones(duration=400, checkpoint_interval=50)
        messages = []
        for readings in sim.stream:
            if readings.epoch == 150:
                messages.extend(coordinator.fail_zone("storage"))
            if readings.epoch == 220:
                messages.extend(coordinator.recover_zone("storage"))
            messages.extend(coordinator.process_epoch(readings).messages)
        check_well_formed(messages)
        assert coordinator.failed_zones == frozenset()

        # every owner entry must point at a zone that actually tracks the
        # tag — anything else would be a permanent orphan
        orphans = [
            tag
            for tag, zone_id in coordinator._owner.items()
            if tag not in coordinator.zones[zone_id].spire.estimates
        ]
        assert orphans == []
        kinds = [w.kind for w in coordinator.quarantine.warnings]
        assert WarningKind.ZONE_FAILED in kinds
        assert WarningKind.ZONE_RECOVERED in kinds

    def test_failover_disabled_coordinator_matches_seed_behavior(self):
        """Without checkpoint_interval the coordinator runs exactly as
        before: no replay buffers, no checkpoints, working handoff."""
        sim, _ = warehouse_zones(duration=120)
        zones = partition_by_location(
            sim.layout.readers,
            {
                "inbound": ["entry-door", "receiving-belt"],
                "storage": ["shelf-1", "shelf-2"],
                "outbound": ["packaging-area", "exit-belt", "exit-door"],
            },
            sim.layout.registry,
        )
        coordinator = Coordinator(zones)
        assert not coordinator.failover_enabled
        messages = []
        for readings in sim.stream:
            messages.extend(coordinator.process_epoch(readings).messages)
        check_well_formed(messages)
        assert coordinator._checkpoints == {}


# ---------------------------------------------------------------------------
# fail_zone's closures against the merged stream (property)
# ---------------------------------------------------------------------------


class MergedStreamMirror:
    """The oracle: the open intervals of every object in the merged
    stream, and the messages that would close them — what the rebuilt
    zone's compressor must report without having seen that stream."""

    def __init__(self):
        self.location = {}  # obj -> (place, vs)
        self.containments = {}  # obj -> {container: vs}

    def track(self, messages):
        for msg in messages:
            if msg.kind is EventKind.START_LOCATION:
                self.location[msg.obj] = (msg.place, msg.vs)
            elif msg.kind is EventKind.END_LOCATION:
                self.location.pop(msg.obj, None)
            elif msg.kind is EventKind.START_CONTAINMENT:
                self.containments.setdefault(msg.obj, {})[msg.container] = msg.vs
            elif msg.kind is EventKind.END_CONTAINMENT:
                self.containments.get(msg.obj, {}).pop(msg.container, None)

    def closures(self, tags, now):
        out = []
        for tag in sorted(tags):
            held = self.containments.get(tag, {})
            out.extend(end_containment(tag, c, held[c], now) for c in sorted(held))
            if tag in self.location:
                out.append(end_location(tag, *self.location[tag], now))
        return out


TAGS = [case(1), case(2), item(1), item(2), item(3)]
reading_set = st.lists(st.sampled_from(TAGS), unique=True)
reader_schedules = st.lists(st.tuples(reading_set, reading_set), min_size=1, max_size=24)


@given(reader_schedules, st.sampled_from(["zone-a", "zone-b"]), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_fail_zone_closes_what_the_merged_stream_has_open(schedule, zone_id, interval):
    coordinator, *_ = two_zone_setup(checkpoint_interval=interval)
    mirror = MergedStreamMirror()
    messages = []
    for epoch, (at_dock, at_shelf) in enumerate(schedule):
        result = coordinator.process_epoch(epoch_readings(epoch, {0: at_dock, 1: at_shelf}))
        mirror.track(result.messages)
        messages.extend(result.messages)
    owned = [tag for tag, zone in coordinator._owner.items() if zone == zone_id]
    closures = coordinator.fail_zone(zone_id)
    assert closures == mirror.closures(owned, len(schedule) - 1)
    check_well_formed(messages + closures)
