"""Integration tests for the end-to-end Spire pipeline (Fig. 2)."""

import pytest

from repro.core.capture import ReaderInfo
from repro.core.params import InferenceParams
from repro.core.pipeline import Deployment, Spire
from repro.events.messages import EventKind
from repro.events.wellformed import check_well_formed
from repro.model.locations import UNKNOWN_COLOR
from repro.model.objects import PackagingLevel

from tests.conftest import case, epoch_readings, item, make_deployment, pallet

DOCK = ReaderInfo(reader_id=0, color=0)
BELT = ReaderInfo(reader_id=1, color=1, is_special=True, singulation_level=PackagingLevel.CASE)
SHELF = ReaderInfo(reader_id=2, color=2, period=10)
EXIT = ReaderInfo(reader_id=3, color=3, is_exit=True)

DEPLOYMENT = make_deployment(DOCK, BELT, SHELF, EXIT)


class TestDeployment:
    def test_complete_inference_period_is_lcm(self):
        assert DEPLOYMENT.complete_inference_period == 10
        assert make_deployment(DOCK, BELT).complete_inference_period == 1

    def test_color_periods_takes_fastest(self):
        fast = ReaderInfo(reader_id=7, color=2, period=1)
        deployment = make_deployment(SHELF, fast)
        assert deployment.color_periods() == {2: 1}

    def test_from_readers(self, small_sim):
        deployment = Deployment.from_readers(small_sim.layout.readers)
        assert len(deployment.readers) == len(small_sim.layout.readers)


class TestBasicProcessing:
    def test_observed_objects_tracked(self):
        spire = Spire(DEPLOYMENT)
        spire.process_epoch(epoch_readings(0, {0: [case(1), item(1)]}))
        assert spire.location_of(case(1)) == DOCK.color
        assert spire.location_of(item(1)) == DOCK.color
        assert spire.container_of(item(1)) == case(1)

    def test_unknown_object_queries(self):
        spire = Spire(DEPLOYMENT)
        assert spire.location_of(item(99)) == UNKNOWN_COLOR
        assert spire.container_of(item(99)) is None

    def test_first_epoch_emits_start_events(self):
        spire = Spire(DEPLOYMENT, compression_level=1)
        output = spire.process_epoch(epoch_readings(0, {0: [case(1), item(1)]}))
        kinds = [m.kind for m in output.messages]
        assert kinds.count(EventKind.START_LOCATION) == 2
        assert kinds.count(EventKind.START_CONTAINMENT) == 1

    def test_steady_state_emits_nothing(self):
        spire = Spire(DEPLOYMENT, compression_level=1)
        spire.process_epoch(epoch_readings(0, {0: [case(1), item(1)]}))
        for now in range(1, 6):
            output = spire.process_epoch(epoch_readings(now, {0: [case(1), item(1)]}))
            assert output.messages == []

    def test_invalid_compression_level_rejected(self):
        with pytest.raises(ValueError):
            Spire(DEPLOYMENT, compression_level=3)


class TestUnknownReader:
    """A batch naming an unregistered reader is refused before anything
    moves, so the corrected batch for the same epoch is still accepted."""

    EPOCHS = [
        {0: [pallet(1), case(1), item(1), item(2)]},
        {0: [pallet(1), case(1), item(1)], 1: [case(2), item(3)]},
        {1: [case(1), item(1), item(2)], 2: [case(2), item(3)]},
        {2: [case(1), case(2), item(1), item(2), item(3)]},
    ]

    def test_rejected_batch_leaves_no_trace(self):
        clean = Spire(DEPLOYMENT)
        expected = [
            clean.process_epoch(epoch_readings(now, by_reader)).messages
            for now, by_reader in enumerate(self.EPOCHS)
        ]

        spire = Spire(DEPLOYMENT)
        got = []
        for now, by_reader in enumerate(self.EPOCHS):
            if now == 2:
                # reader 99 sorts last: every known reader would have been
                # applied before the loop met it
                bad = epoch_readings(now, {**by_reader, 99: [item(9)]})
                with pytest.raises(KeyError, match="reading from unknown reader id 99"):
                    spire.process_epoch(bad)
                assert item(9) not in spire.graph
                assert {n.tag for n in spire.graph.colored_nodes()} == {
                    t for tags in self.EPOCHS[1].values() for t in tags
                }
            got.append(spire.process_epoch(epoch_readings(now, by_reader)).messages)
        assert got == expected


class TestCarriedForwardEstimates:
    def test_missed_reading_keeps_location(self):
        spire = Spire(DEPLOYMENT)
        spire.process_epoch(epoch_readings(0, {0: [case(1), item(1)]}))
        # item missed for a couple of epochs while its case is still seen
        for now in range(1, 3):
            spire.process_epoch(epoch_readings(now, {0: [case(1)]}))
        assert spire.location_of(item(1)) == DOCK.color

    def test_move_updates_location(self):
        spire = Spire(DEPLOYMENT)
        spire.process_epoch(epoch_readings(0, {0: [case(1), item(1)]}))
        spire.process_epoch(epoch_readings(1, {1: [case(1), item(1)]}))
        assert spire.location_of(case(1)) == BELT.color

    def test_long_absence_becomes_missing(self):
        spire = Spire(DEPLOYMENT)
        spire.process_epoch(epoch_readings(0, {0: [item(1)]}))
        messages = []
        for now in range(1, 31):
            readings = epoch_readings(now, {0: [case(9)]})  # keeps epochs flowing
            messages.extend(spire.process_epoch(readings).messages)
        assert spire.location_of(item(1)) == UNKNOWN_COLOR
        assert any(
            m.kind is EventKind.MISSING and m.obj == item(1) for m in messages
        )


class TestPartialCompleteSchedule:
    def test_complete_epochs_on_lcm_grid(self):
        spire = Spire(DEPLOYMENT)
        outputs = [
            spire.process_epoch(epoch_readings(now, {0: [item(1)]}))
            for now in range(21)
        ]
        complete_epochs = [o.epoch for o in outputs if o.complete]
        assert complete_epochs == [0, 10, 20]


class TestExitHandling:
    def test_exit_reading_retires_object(self):
        spire = Spire(DEPLOYMENT)
        spire.process_epoch(epoch_readings(0, {0: [case(1), item(1)]}))
        output = spire.process_epoch(epoch_readings(1, {3: [case(1), item(1)]}))
        assert set(output.departed) == {case(1), item(1)}
        assert case(1) not in spire.graph
        assert spire.tracked_objects == 0

    def test_exit_closes_intervals(self):
        spire = Spire(DEPLOYMENT, compression_level=1)
        spire.process_epoch(epoch_readings(0, {0: [case(1), item(1)]}))
        output = spire.process_epoch(epoch_readings(1, {3: [case(1), item(1)]}))
        kinds = [m.kind for m in output.messages]
        assert kinds.count(EventKind.END_LOCATION) >= 2

    def test_stream_well_formed_through_exit(self):
        spire = Spire(DEPLOYMENT, compression_level=1)
        messages = []
        messages += spire.process_epoch(epoch_readings(0, {0: [case(1), item(1)]})).messages
        messages += spire.process_epoch(epoch_readings(1, {1: [case(1), item(1)]})).messages
        messages += spire.process_epoch(epoch_readings(2, {3: [case(1), item(1)]})).messages
        check_well_formed(messages)


class TestConfirmationFlow:
    def test_belt_scan_fixes_ambiguous_containment(self):
        spire = Spire(DEPLOYMENT, params=InferenceParams(beta=0.4))
        # two cases and an item co-located at the dock: ambiguous
        spire.process_epoch(epoch_readings(0, {0: [case(1), case(2), item(1)]}))
        # belt scans case 2 together with the item: containment confirmed
        spire.process_epoch(epoch_readings(1, {1: [case(2), item(1)]}))
        assert spire.container_of(item(1)) == case(2)
        # the confirmation sticks through later co-location noise
        spire.process_epoch(epoch_readings(2, {2: [case(1), case(2), item(1)]}))
        assert spire.container_of(item(1)) == case(2)


class TestRunHelper:
    def test_run_processes_whole_stream(self, small_sim):
        deployment = Deployment.from_readers(small_sim.layout.readers)
        spire = Spire(deployment)
        outputs = spire.run(small_sim.stream)
        assert len(outputs) == len(small_sim.stream)
        check_well_formed([m for o in outputs for m in o.messages])

    def test_timings_recorded(self):
        spire = Spire(DEPLOYMENT)
        output = spire.process_epoch(epoch_readings(0, {0: [case(1), item(1)]}))
        assert output.update_seconds >= 0.0
        assert output.inference_seconds >= 0.0
