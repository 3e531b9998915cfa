"""Reference catalogue vs compiled patterns: byte-for-byte equivalence.

The acceptance property of the pattern compiler: every hand-coded
catalogue pattern (``tests/reference_patterns.py``), re-expressed as a
:mod:`repro.sase` library definition, produces the **identical encoded
notification bodies** (the bytes a batch frame carries) over chaos-enabled simulated streams (drops +
delays, three pinned seeds) and over the Table III growth workload.  The
compiled side runs inside a :class:`StandingQueryEngine`, routed and
shared as the server runs it; the reference is driven bare, over its own
expansion and index.  Also covers the subscription edge cases that ride along in this change:
unknown-id unsubscribe, resubscribe after overflow eviction, and
notification ordering across two subscriptions to the same pattern.
"""

from __future__ import annotations

import pytest

from repro.compression.decompress import StreamingLevel2Decompressor
from repro.distributed import Coordinator, Zone
from repro.experiments.table3 import (
    DEFAULT_CASES_PER_PALLET,
    DEFAULT_SEED,
    duration_for,
    table3_config,
)
from repro.model.objects import PackagingLevel, TagId
from repro.query.index import EventStreamIndex
from repro.sase import library
from repro.serving import protocol
from repro.serving.engine import StandingQueryEngine
from repro.simulator.warehouse import WarehouseSimulator

from tests.reference_patterns import (
    DwellExceeded,
    LeftWithoutContainer,
    MissingOverdue,
    ObjectWatch,
    PlaceWatch,
    Tail,
)
from tests.test_serving_e2e import _chaos_epochs

SEEDS = [5, 17, 29]

#: the Table III growth workload (nothing leaves the shelves), grown to
#: this many tracked objects: long dwells, many objects per place, and
#: the items that fall off their case on the receiving belt
TABLE3 = "table3"
TABLE3_MILESTONE = 1500


def _replay(sim, epochs):
    coordinator = Coordinator(
        [Zone.build("all", sim.layout.readers, sim.layout.registry)]
    )
    batches = []
    for readings in epochs:
        result = coordinator.process_epoch(readings)
        batches.append((result.epoch, result.messages))
    return batches


def _interpret(seed: int):
    """One chaos-enabled run: the interpreted per-epoch message batches."""
    sim, epochs = _chaos_epochs(seed)
    batches = _replay(sim, epochs)
    places = sorted(
        {msg.place for _, messages in batches for msg in messages
         if msg.place is not None}
    )
    return batches, places


def _trace(name):
    """``(batches, obj, place, k)``: a stream and catalogue arguments
    anchored to objects and places that occur in it."""
    if name != TABLE3:
        batches, places = _interpret(name)
        assert places, "chaos run produced no located events"
        return batches, TagId(PackagingLevel.CASE, 1), places[0], 5
    duration = duration_for([TABLE3_MILESTONE], DEFAULT_CASES_PER_PALLET)
    sim = WarehouseSimulator(
        table3_config(DEFAULT_CASES_PER_PALLET, duration, DEFAULT_SEED)
    ).run()
    belt = sim.layout.receiving_belt.color
    return _replay(sim, sim.stream), TagId(PackagingLevel.CASE, 3), belt, 25


def _pattern_pairs(obj, place, k):
    """(reference, compiled) pairs covering the whole catalogue."""
    return [
        (Tail(), library.tail()),
        (Tail(obj=obj, place=place), library.tail(obj=obj, place=place)),
        (ObjectWatch(obj=obj), library.object_watch(obj)),
        (PlaceWatch(place=place), library.place_watch(place)),
        (DwellExceeded(place=place, k=k), library.dwell_exceeded(place, k)),
        (MissingOverdue(k=k), library.missing_overdue(k)),
        (LeftWithoutContainer(place=place), library.left_without_container(place)),
    ]


def _frames_per_epoch(pattern, batches, subscribe_at=0):
    """Run one compiled pattern through its own engine; encoded
    notification bodies per epoch.

    ``subscribe_at`` delays the subscription to that epoch index, so the
    prime path (seeding from the live index) is compared too.
    """
    engine = StandingQueryEngine(expand_level2=True)
    sub = None
    frames = []
    for position, (epoch, messages) in enumerate(batches):
        if position == subscribe_at:
            sub = engine.subscribe(pattern, max_queue=1 << 20)
        engine.publish(epoch, messages)
        notes = sub.drain() if sub is not None else []
        frames.append([protocol.encode_notification(note) for note in notes])
    return frames


def _reference_frames(pattern, batches, subscribe_at=0):
    """The same for a reference pattern: primed from the index as it
    stood before epoch ``subscribe_at``, then handed every expanded
    batch from that epoch on."""
    expander = StreamingLevel2Decompressor()
    index = EventStreamIndex()
    last_epoch = None
    frames = []
    for position, (epoch, messages) in enumerate(batches):
        if position == subscribe_at:
            pattern.prime(index, last_epoch)
        batch = [out for msg in messages for out in expander.feed(msg)]
        batch.extend(expander.flush())
        index.extend(batch)
        last_epoch = epoch
        notes = pattern.evaluate(epoch, batch, index) if position >= subscribe_at else []
        frames.append([protocol.encode_notification(note) for note in notes])
    return frames


@pytest.mark.parametrize("trace", [*SEEDS, TABLE3])
def test_catalogue_byte_equivalence_across_chaos_seeds(trace):
    batches, obj, place, k = _trace(trace)
    matches = 0
    for reference, compiled in _pattern_pairs(obj, place, k):
        expected = _reference_frames(reference, batches)
        actual = _frames_per_epoch(compiled, batches)
        assert actual == expected, (
            f"{type(reference).__name__} diverged (trace {trace}): "
            f"{sum(map(len, actual))} vs {sum(map(len, expected))} frames"
        )
        matches += sum(map(len, expected))
    assert matches, "the catalogue matched nothing: the trace is degenerate"


def test_mid_stream_subscription_prime_is_equivalent():
    """Subscribing mid-stream (prime path) matches the legacy patterns."""
    batches, places = _interpret(SEEDS[0])
    midpoint = len(batches) // 2
    place, k = places[0], 5
    pairs = [
        (DwellExceeded(place=place, k=k), library.dwell_exceeded(place, k)),
        (MissingOverdue(k=k), library.missing_overdue(k)),
    ]
    for reference, compiled in pairs:
        expected = _reference_frames(reference, batches, subscribe_at=midpoint)
        actual = _frames_per_epoch(compiled, batches, subscribe_at=midpoint)
        assert actual == expected, f"{type(reference).__name__} diverged after prime"


# ---------------------------------------------------------------------------
# subscription edge cases
# ---------------------------------------------------------------------------


class TestSubscriptionEdgeCases:
    def test_unsubscribe_unknown_id_is_a_clean_no(self):
        engine = StandingQueryEngine()
        assert engine.unsubscribe(12345) is False
        sub = engine.subscribe(library.tail())
        assert engine.unsubscribe(sub.sub_id) is True
        assert engine.unsubscribe(sub.sub_id) is False  # already gone

    def test_resubscribe_after_overflow_eviction_starts_clean(self):
        batches, _ = _interpret(SEEDS[0])
        engine = StandingQueryEngine(expand_level2=True)
        sub = engine.subscribe(library.tail(), max_queue=4)
        for epoch, messages in batches[: len(batches) // 2]:
            engine.publish(epoch, messages)
        assert sub.dropped > 0, "tiny queue should have overflowed"
        engine.unsubscribe(sub.sub_id)

        fresh = engine.subscribe(library.tail(), max_queue=1 << 20)
        assert fresh.sub_id != sub.sub_id  # ids are never recycled
        assert fresh.dropped == 0 and not fresh.queue
        epoch, messages = batches[len(batches) // 2]
        engine.publish(epoch, messages)
        notes = fresh.drain()
        # the fresh subscription sees only post-resubscribe epochs
        assert notes and all(note.epoch == epoch for note in notes)

    def test_two_subscriptions_to_the_same_pattern_order_identically(self):
        batches, places = _interpret(SEEDS[0])
        engine = StandingQueryEngine(expand_level2=True)
        first = engine.subscribe(library.place_watch(places[0]), max_queue=1 << 20)
        second = engine.subscribe(library.place_watch(places[0]), max_queue=1 << 20)
        for epoch, messages in batches:
            engine.publish(epoch, messages)
        a = [protocol.encode_notification(n) for n in first.drain()]
        b = [protocol.encode_notification(n) for n in second.drain()]
        assert a and a == b
