"""Tests for the fault layer: injector, resilient ingestion, dead readers."""

import pytest

from repro.core.capture import ReaderInfo
from repro.core.params import InferenceParams
from repro.core.pipeline import Spire
from repro.events.messages import EventKind
from repro.events.wellformed import check_well_formed
from repro.faults import (
    DelayBatches,
    DropBatches,
    DuplicateBatches,
    FaultInjector,
    ReaderOutage,
    ResilientStream,
    UnknownReaderReadings,
    WarningKind,
    schedule_from_dict,
)
from repro.readers.stream import EpochReadings

from tests.conftest import case, epoch_readings, item, make_deployment


def simple_stream(epochs: int = 30, readers: tuple[int, ...] = (0, 1)):
    """A deterministic little stream: both readers see a few tags each epoch."""
    batches = []
    for epoch in range(epochs):
        by_reader = {}
        for reader_id in readers:
            by_reader[reader_id] = [case(reader_id + 1), item(10 * reader_id + epoch % 3)]
        batches.append(epoch_readings(epoch, by_reader))
    return batches


# ---------------------------------------------------------------------------
# injector
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_no_schedule_is_identity(self):
        stream = simple_stream()
        out = list(FaultInjector(stream, [], seed=1))
        assert [b.epoch for b in out] == [b.epoch for b in stream]
        assert all(a.by_reader == b.by_reader for a, b in zip(out, stream))

    def test_deterministic_under_seed(self):
        schedule = [DropBatches(rate=0.3), DelayBatches(rate=0.3, max_delay=2)]
        first = [b.epoch for b in FaultInjector(simple_stream(), schedule, seed=42)]
        second = [b.epoch for b in FaultInjector(simple_stream(), schedule, seed=42)]
        assert first == second

    def test_reader_outage_silences_reader(self):
        schedule = [ReaderOutage(reader_id=1, start=5, duration=10)]
        out = list(FaultInjector(simple_stream(), schedule, seed=0))
        for batch in out:
            if 5 <= batch.epoch < 15:
                assert 1 not in batch.by_reader
            else:
                assert 1 in batch.by_reader
        # the source batches themselves are untouched
        assert all(1 in b.by_reader for b in simple_stream())

    def test_drop_removes_whole_batches(self):
        injector = FaultInjector(simple_stream(), [DropBatches(rate=1.0, start=10, end=12)], seed=0)
        epochs = [b.epoch for b in injector]
        assert 10 not in epochs and 11 not in epochs
        assert injector.dropped_epochs == [10, 11]

    def test_delay_delivers_out_of_order(self):
        injector = FaultInjector(
            simple_stream(), [DelayBatches(rate=1.0, max_delay=3, start=5, end=6)], seed=3
        )
        epochs = [b.epoch for b in injector]
        assert sorted(epochs) == list(range(30))
        assert epochs != list(range(30))
        assert injector.delayed_epochs == [5]
        assert epochs.index(5) > epochs.index(6)

    def test_duplicate_delivers_twice(self):
        injector = FaultInjector(
            simple_stream(), [DuplicateBatches(rate=1.0, start=7, end=8)], seed=0
        )
        epochs = [b.epoch for b in injector]
        assert epochs.count(7) == 2

    def test_unknown_reader_injects_readings(self):
        injector = FaultInjector(
            simple_stream(), [UnknownReaderReadings(reader_id=99, rate=1.0)], seed=0
        )
        out = list(injector)
        assert all(99 in b.by_reader and b.by_reader[99] for b in out)

    def test_schedule_from_dict_round_trip(self):
        schedule = schedule_from_dict(
            [
                {"kind": "reader_outage", "reader_id": 3, "start": 10, "duration": 50},
                {"kind": "drop_batches", "rate": 0.02},
                {"kind": "delay_batches", "rate": 0.05, "max_delay": 4},
                {"kind": "duplicate_batches", "rate": 0.01},
                {"kind": "unknown_reader", "reader_id": 77, "rate": 0.1},
            ]
        )
        assert [type(s).__name__ for s in schedule] == [
            "ReaderOutage",
            "DropBatches",
            "DelayBatches",
            "DuplicateBatches",
            "UnknownReaderReadings",
        ]

    def test_schedule_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            schedule_from_dict([{"kind": "meteor_strike"}])

    def test_schedule_from_dict_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="bad fields"):
            schedule_from_dict([{"kind": "drop_batches", "rate": 0.1, "frequency": 2}])


# ---------------------------------------------------------------------------
# resilient ingestion
# ---------------------------------------------------------------------------


class TestResilientStream:
    def test_passthrough_on_clean_stream(self):
        stream = simple_stream()
        out = list(ResilientStream(stream, max_delay=3))
        assert [b.epoch for b in out] == list(range(30))
        assert not ResilientStream(stream, max_delay=3).warnings

    def test_reorders_bounded_delay_losslessly(self):
        injector = FaultInjector(
            simple_stream(), [DelayBatches(rate=0.5, max_delay=3)], seed=9
        )
        resilient = ResilientStream(injector, max_delay=3)
        out = list(resilient)
        assert [b.epoch for b in out] == list(range(30))
        assert resilient.synthesized_epochs == 0
        # real content preserved for every epoch
        assert all(b.reading_count > 0 for b in out)

    def test_synthesizes_empty_epochs_for_drops(self):
        injector = FaultInjector(
            simple_stream(), [DropBatches(rate=1.0, start=10, end=13)], seed=0
        )
        resilient = ResilientStream(injector, max_delay=2)
        out = list(resilient)
        assert [b.epoch for b in out] == list(range(30))
        assert [b.epoch for b in out if b.reading_count == 0] == [10, 11, 12]
        assert resilient.synthesized_epochs == 3
        kinds = {w.kind for w in resilient.warnings}
        assert WarningKind.GAP_SYNTHESIZED in kinds

    def test_suppresses_duplicates(self):
        injector = FaultInjector(
            simple_stream(), [DuplicateBatches(rate=1.0)], seed=0
        )
        resilient = ResilientStream(injector, max_delay=2)
        out = list(resilient)
        assert [b.epoch for b in out] == list(range(30))
        assert sum(1 for w in resilient.warnings if w.kind == WarningKind.DUPLICATE_BATCH) == 30

    def test_quarantines_unknown_readers(self):
        injector = FaultInjector(
            simple_stream(), [UnknownReaderReadings(reader_id=99, rate=1.0)], seed=0
        )
        resilient = ResilientStream(injector, max_delay=0, known_readers={0, 1})
        out = list(resilient)
        assert all(99 not in b.by_reader for b in out)
        assert all(r.reader_id == 99 for r in resilient.quarantine.readings)
        assert any(w.kind == WarningKind.UNKNOWN_READER for w in resilient.warnings)

    def test_quarantines_late_batches(self):
        # epoch 3 arrives after the watermark (max_delay=1) has passed it
        batches = [epoch_readings(e, {0: [item(1)]}) for e in (0, 1, 2, 4, 5, 6, 3)]
        resilient = ResilientStream(batches, max_delay=1)
        out = list(resilient)
        assert [b.epoch for b in out] == list(range(7))
        synthesized = [b.epoch for b in out if b.reading_count == 0]
        assert synthesized == [3]
        late = [w for w in resilient.warnings if w.kind == WarningKind.LATE_BATCH]
        assert len(late) == 1 and late[0].epoch == 3
        assert resilient.quarantine.readings  # the late readings were held

    def test_output_always_feeds_the_strict_pipeline(self):
        """Whatever the injector does, the resilient output satisfies the
        monotonic, gap-free epoch contract Spire enforces."""
        schedule = [
            ReaderOutage(reader_id=0, start=5, duration=10),
            DropBatches(rate=0.2),
            DelayBatches(rate=0.3, max_delay=4),
            DuplicateBatches(rate=0.2),
            UnknownReaderReadings(reader_id=99, rate=0.2),
        ]
        injector = FaultInjector(simple_stream(60), schedule, seed=21)
        resilient = ResilientStream(injector, max_delay=4, known_readers={0, 1})
        epochs = [b.epoch for b in resilient]
        assert epochs == sorted(set(epochs))
        assert epochs == list(range(epochs[0], epochs[-1] + 1))


# ---------------------------------------------------------------------------
# a dead reader: the stated limit of §IV-B's decay model
# ---------------------------------------------------------------------------

DOCK = ReaderInfo(reader_id=0, color=0)
SHELF = ReaderInfo(reader_id=1, color=1, period=5)


class TestDeadReader:
    def test_a_dead_shelf_reader_reads_as_its_item_missing(self):
        """Silence is read as absence: an item last seen on a period-5 shelf
        whose reader dies at epoch 11 decays and is reported Missing, and
        the stream stays well-formed (docs/FAULTS.md, "Reader outages")."""
        spire = Spire(make_deployment(DOCK, SHELF), InferenceParams())
        messages = []
        for epoch in range(40):
            by_reader = {0: [case(9)]}  # keeps the dock side alive
            if epoch <= 10 and epoch % 5 == 0:
                by_reader[1] = [item(1)]  # shelf reports until the outage
            messages.extend(spire.process_epoch(epoch_readings(epoch, by_reader)).messages)
        assert any(
            m.kind is EventKind.MISSING and m.obj == item(1) for m in messages
        )
        check_well_formed(messages)


class TestEpochMonotonicity:
    def test_non_increasing_epoch_rejected(self):
        spire = Spire(make_deployment(DOCK))
        spire.process_epoch(epoch_readings(5, {0: [item(1)]}))
        with pytest.raises(ValueError, match="epoch 5 is not after the last processed epoch 5"):
            spire.process_epoch(epoch_readings(5, {0: [item(1)]}))
        with pytest.raises(ValueError, match="epoch 3 is not after the last processed epoch 5"):
            spire.process_epoch(epoch_readings(3, {0: [item(1)]}))

    def test_gaps_are_still_allowed(self):
        spire = Spire(make_deployment(DOCK))
        spire.process_epoch(epoch_readings(5, {0: [item(1)]}))
        spire.process_epoch(epoch_readings(9, {0: [item(1)]}))
        assert spire.location_of(item(1)) == DOCK.color


# ---------------------------------------------------------------------------
# property: every fault kind degrades gracefully into a well-formed stream
# ---------------------------------------------------------------------------

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.faults import ALL_FAULT_KINDS

_DEFAULT_SPECS = {
    ReaderOutage: ReaderOutage(reader_id=1, start=8, duration=15),
    DropBatches: DropBatches(rate=0.3),
    DelayBatches: DelayBatches(rate=0.4, max_delay=3),
    DuplicateBatches: DuplicateBatches(rate=0.3),
    UnknownReaderReadings: UnknownReaderReadings(reader_id=99, rate=0.4),
}


def movement_stream(epochs: int = 45):
    """Item 1 dwells at the dock, moves to the shelf, then departs."""
    batches = []
    for epoch in range(epochs):
        by_reader = {0: [case(9)]}
        if epoch < 6:
            by_reader[0].append(item(1))
        elif epoch < 30 and epoch % SHELF.period == 0:
            by_reader[1] = [item(1)]
        batches.append(epoch_readings(epoch, by_reader))
    return batches


@pytest.mark.parametrize("fault_kind", ALL_FAULT_KINDS, ids=lambda k: k.__name__)
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_output_well_formed_under_every_fault_kind(fault_kind, seed):
    assert set(_DEFAULT_SPECS) == set(ALL_FAULT_KINDS)
    injector = FaultInjector(movement_stream(), [_DEFAULT_SPECS[fault_kind]], seed=seed)
    resilient = ResilientStream(injector, max_delay=3, known_readers={0, 1})
    spire = Spire(make_deployment(DOCK, SHELF))
    messages = []
    for batch in resilient:  # Spire itself enforces strict epoch order here
        messages.extend(spire.process_epoch(batch).messages)
    check_well_formed(messages)


# ---------------------------------------------------------------------------
# acceptance: combined fault schedule on the warehouse trace
# ---------------------------------------------------------------------------


def test_combined_faults_bounded_degradation(small_sim):
    """ISSUE acceptance: 50-epoch reader outage + 2% drops + bounded
    out-of-order completes cleanly, well-formed, degradation < 10 points."""
    from repro.experiments.runner import ground_truth_stream
    from repro.metrics.events import f_measure
    from repro.core.pipeline import Deployment

    sim = small_sim
    deployment = Deployment.from_readers(sim.layout.readers, sim.layout.registry)
    reference = ground_truth_stream(sim)
    max_delay = 3
    tolerance = max(r.period for r in sim.layout.readers) + max_delay + 2

    baseline = Spire(deployment, InferenceParams())
    baseline_messages = []
    for batch in sim.stream:
        baseline_messages.extend(baseline.process_epoch(batch).messages)

    shelf = next(r for r in sim.layout.readers if "shelf" in r.location.name)
    schedule = [
        ReaderOutage(reader_id=shelf.reader_id, start=200, duration=50),
        DropBatches(rate=0.02),
        DelayBatches(rate=0.05, max_delay=max_delay),
    ]
    injector = FaultInjector(sim.stream, schedule, seed=7)
    resilient = ResilientStream(
        injector, max_delay=max_delay, known_readers=deployment.readers
    )
    faulted = Spire(deployment, InferenceParams())
    faulted_messages = []
    for batch in resilient:
        faulted_messages.extend(faulted.process_epoch(batch).messages)

    check_well_formed(baseline_messages)
    check_well_formed(faulted_messages)
    f_base = f_measure(baseline_messages, reference, tolerance)
    f_fault = f_measure(faulted_messages, reference, tolerance)
    degradation = 100.0 * (f_base - f_fault)
    assert degradation < 10.0
