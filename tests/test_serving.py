"""Unit tests for the serving layer: patterns, engine, wire protocol.

The live-index property (incremental extension == fresh batch build after
every epoch, across chaos seeds) and the asyncio end-to-end paths live in
``test_serving_e2e.py``; this module covers the transport-free pieces.
"""

from __future__ import annotations

import pytest

from repro.events.messages import (
    end_containment,
    end_location,
    missing,
    start_containment,
    start_location,
)
from repro.faults.warnings import Quarantine, WarningKind
from repro.sase import compile_pattern, library
from repro.serving import protocol
from repro.serving.engine import ServingStats, StandingQueryEngine, Subscription
from repro.serving.patterns import (
    PATTERN_DWELL,
    PATTERN_LEFT_WITHOUT_CONTAINER,
    PATTERN_MISSING,
    PATTERN_OBJECT,
    PATTERN_PLACE,
    PATTERN_TAIL,
    Notification,
    PatternSpec,
    pattern_from_spec,
)

from tests.conftest import case, item

L1, L2, L3 = 0, 1, 2


def _publish(engine, epoch, messages):
    return engine.publish(epoch, messages)


class TestSimplePatterns:
    def test_tail_forwards_everything(self):
        engine = StandingQueryEngine()
        sub = engine.subscribe(library.tail())
        _publish(engine, 0, [start_location(item(1), L1, 0),
                             start_location(case(1), L1, 0)])
        notes = engine.drain(sub.sub_id)
        assert len(notes) == 2
        assert all(n.kind == "event" for n in notes)

    def test_tail_place_filter(self):
        engine = StandingQueryEngine()
        sub = engine.subscribe(library.tail(place=L2))
        _publish(engine, 0, [start_location(item(1), L1, 0)])
        assert engine.drain(sub.sub_id) == []
        _publish(engine, 1, [end_location(item(1), L1, 0, 1),
                             start_location(item(1), L2, 1)])
        notes = engine.drain(sub.sub_id)
        assert [n.place for n in notes] == [L2]

    def test_object_watch_includes_containment(self):
        engine = StandingQueryEngine()
        sub = engine.subscribe(library.object_watch(obj=case(1)))
        _publish(engine, 0, [start_location(item(1), L1, 0),
                             start_location(case(1), L1, 0),
                             start_containment(item(1), case(1), 0)])
        notes = engine.drain(sub.sub_id)
        # the case's own location event + the containment edge it anchors
        assert len(notes) == 2
        assert all(n.obj == case(1) or n.container == case(1) for n in notes)

    def test_place_watch_ignores_containment(self):
        engine = StandingQueryEngine()
        sub = engine.subscribe(library.place_watch(place=L1))
        _publish(engine, 0, [start_location(item(1), L1, 0),
                             start_containment(item(1), case(1), 0)])
        notes = engine.drain(sub.sub_id)
        assert len(notes) == 1
        assert notes[0].kind == "place_event"


class TestThresholdPatterns:
    def test_dwell_fires_once_per_stay(self):
        engine = StandingQueryEngine()
        sub = engine.subscribe(library.dwell_exceeded(place=L1, k=3))
        _publish(engine, 0, [start_location(item(1), L1, 0)])
        _publish(engine, 1, [])
        _publish(engine, 2, [])
        assert engine.drain(sub.sub_id) == []
        _publish(engine, 3, [])
        notes = engine.drain(sub.sub_id)
        assert len(notes) == 1
        assert notes[0].kind == "dwell_exceeded"
        assert notes[0].value == 3
        # no re-fire while the stay continues
        _publish(engine, 4, [])
        assert engine.drain(sub.sub_id) == []
        # a new stay starts a new episode
        _publish(engine, 5, [end_location(item(1), L1, 0, 5)])
        _publish(engine, 6, [start_location(item(1), L1, 6)])
        _publish(engine, 9, [])
        notes = engine.drain(sub.sub_id)
        assert len(notes) == 1 and notes[0].value == 3

    def test_dwell_primed_from_live_index(self):
        engine = StandingQueryEngine()
        _publish(engine, 0, [start_location(item(1), L1, 0)])
        _publish(engine, 1, [])
        # subscribe mid-stay: the clock counts from epoch 0, not from now
        sub = engine.subscribe(library.dwell_exceeded(place=L1, k=3))
        _publish(engine, 2, [])
        assert engine.drain(sub.sub_id) == []
        _publish(engine, 3, [])
        notes = engine.drain(sub.sub_id)
        assert len(notes) == 1 and notes[0].value == 3

    def test_missing_overdue(self):
        engine = StandingQueryEngine()
        sub = engine.subscribe(library.missing_overdue(k=2))
        _publish(engine, 0, [start_location(item(1), L1, 0)])
        _publish(engine, 4, [end_location(item(1), L1, 0, 4),
                             missing(item(1), L1, 4)])
        _publish(engine, 5, [])
        assert engine.drain(sub.sub_id) == []
        _publish(engine, 6, [])
        notes = engine.drain(sub.sub_id)
        assert len(notes) == 1
        assert notes[0].kind == "missing_overdue"
        assert notes[0].place == L1

    def test_missing_cancelled_by_relocation(self):
        engine = StandingQueryEngine()
        sub = engine.subscribe(library.missing_overdue(k=3))
        _publish(engine, 0, [start_location(item(1), L1, 0)])
        _publish(engine, 2, [end_location(item(1), L1, 0, 2),
                             missing(item(1), L1, 2)])
        _publish(engine, 3, [start_location(item(1), L2, 3)])
        _publish(engine, 10, [])
        assert engine.drain(sub.sub_id) == []


class TestContainmentAnomaly:
    def _setup(self, engine):
        _publish(engine, 0, [
            start_location(item(1), L1, 0),
            start_location(case(1), L1, 0),
            start_containment(item(1), case(1), 0),
        ])

    def test_item_leaves_without_case(self):
        engine = StandingQueryEngine()
        sub = engine.subscribe(library.left_without_container(place=L1))
        self._setup(engine)
        _publish(engine, 5, [
            end_containment(item(1), case(1), 0, 5),
            end_location(item(1), L1, 0, 5),
            start_location(item(1), L2, 5),
        ])
        notes = engine.drain(sub.sub_id)
        assert len(notes) == 1
        note = notes[0]
        assert note.kind == "left_without_container"
        assert note.obj == item(1)
        assert note.container == case(1)
        assert note.place == L1

    def test_moving_with_case_is_not_anomalous(self):
        engine = StandingQueryEngine()
        sub = engine.subscribe(library.left_without_container(place=L1))
        self._setup(engine)
        _publish(engine, 5, [
            end_location(item(1), L1, 0, 5),
            start_location(item(1), L2, 5),
            end_location(case(1), L1, 0, 5),
            start_location(case(1), L2, 5),
        ])
        assert engine.drain(sub.sub_id) == []

    def test_uncontained_departure_is_not_anomalous(self):
        engine = StandingQueryEngine()
        sub = engine.subscribe(library.left_without_container(place=L1))
        _publish(engine, 0, [start_location(item(2), L1, 0)])
        _publish(engine, 5, [end_location(item(2), L1, 0, 5),
                             start_location(item(2), L2, 5)])
        assert engine.drain(sub.sub_id) == []

    def test_missing_departure_counts(self):
        engine = StandingQueryEngine()
        sub = engine.subscribe(library.left_without_container(place=L1))
        self._setup(engine)
        _publish(engine, 5, [
            end_containment(item(1), case(1), 0, 5),
            end_location(item(1), L1, 0, 5),
            missing(item(1), L1, 5),
        ])
        notes = engine.drain(sub.sub_id)
        assert len(notes) == 1 and notes[0].container == case(1)


class TestEngine:
    def test_backpressure_drops_oldest_and_warns(self):
        quarantine = Quarantine()
        engine = StandingQueryEngine(quarantine=quarantine)
        sub = engine.subscribe(library.tail(), max_queue=3)
        batch = [start_location(item(n), L1, 0) for n in range(1, 6)]
        _publish(engine, 0, batch)
        assert len(sub.queue) == 3
        # oldest dropped: the survivors are the 3 most recent events
        notes = engine.drain(sub.sub_id)
        assert [n.obj for n in notes] == [item(3), item(4), item(5)]
        assert engine.stats.notifications_dropped == 2
        assert quarantine.counts().get(WarningKind.SUBSCRIPTION_OVERFLOW) == 1

    def test_push_trims_the_overflow_of_a_partly_full_queue(self):
        notes = [Notification(kind="event", epoch=n) for n in range(12)]
        sub = Subscription(1, library.tail(), max_queue=4)
        assert sub.push(notes[:2]) == 0
        assert sub.push(notes[2:6]) == 2 and list(sub.queue) == notes[2:6]
        # a burst longer than the queue: only its tail survives
        assert sub.push(notes[6:]) == 6 and list(sub.queue) == notes[8:]
        assert sub.dropped == 8

    def test_raising_pattern_is_quarantined_and_the_epoch_goes_on(self):
        """A pattern that compiles but is ill-typed raises at its first
        evaluation; it leaves with its subscribers, nobody else notices."""
        quarantine = Quarantine()
        engine = StandingQueryEngine(quarantine=quarantine)
        bad_source = "SEQ(any e) WHERE e.place < 'x'"
        bad = [engine.subscribe(compile_pattern(bad_source)) for _ in range(2)]
        healthy = engine.subscribe(library.tail())
        assert len(engine.runtimes) == 2

        _publish(engine, 0, [start_location(item(1), L1, 0)])

        assert [n.obj for n in engine.drain(healthy.sub_id)] == [item(1)]
        # one notice per evicted member, naming the exception type
        assert [sub_id for sub_id, _ in engine.evicted] == [s.sub_id for s in bad]
        for _, note in engine.evicted:
            assert note.kind == "subscription_evicted" and "TypeError" in note.detail
        assert [r.pattern for r in engine.runtimes.values()] == [healthy.pattern]
        assert set(engine.subscriptions) == {healthy.sub_id}
        assert engine.stats.subscriptions_evicted == 2
        # one warning for the pattern, not one per subscriber
        assert quarantine.counts() == {WarningKind.PATTERN_QUARANTINED: 1}

        _publish(engine, 1, [start_location(item(2), L1, 1)])
        assert engine.evicted == []
        assert [n.obj for n in engine.drain(healthy.sub_id)] == [item(2)]

    def test_quarantine_spares_neither_durable_nor_routed_subscriptions(self):
        engine = StandingQueryEngine()
        engine.subscribe(compile_pattern("SEQ(arrival a) WHERE a.place == 0 AND a.vs < 'x'"))
        restored = StandingQueryEngine()
        assert restored.restore_subscriptions(engine.dump_subscriptions()) == 1
        (sub,) = restored.subscriptions.values()
        assert sub.durable
        _publish(restored, 0, [start_location(item(1), L1, 0)])
        assert [sub_id for sub_id, _ in restored.evicted] == [sub.sub_id]
        assert not restored.runtimes and not restored.subscriptions
        # its routes went with it: no table still hands events to the runtime
        assert not any(restored._kind_routes.values())
        assert not any(table for _, table in restored._key_routes.values())
        assert _publish(restored, 1, [start_location(item(2), L1, 1)]) == 0

    def test_unsubscribe_stops_delivery(self):
        engine = StandingQueryEngine()
        sub = engine.subscribe(library.tail())
        assert engine.unsubscribe(sub.sub_id) is True
        assert engine.unsubscribe(sub.sub_id) is False
        _publish(engine, 0, [start_location(item(1), L1, 0)])
        assert engine.drain(sub.sub_id) == []
        assert engine.stats.active_subscriptions == 0

    def test_level2_expansion_feeds_patterns(self):
        # a level-2 stream moves contained objects implicitly (only the
        # container's move is emitted); with expansion on, an object watch
        # on the contained item still sees its moves
        from repro.compression.level2 import ContainmentCompressor

        compressor = ContainmentCompressor()
        epoch0 = []
        epoch0 += compressor.observe(item(1), L1, case(1), now=0)
        epoch0 += compressor.observe(case(1), L1, None, now=0)
        epoch5 = []
        epoch5 += compressor.observe(item(1), L2, case(1), now=5)
        epoch5 += compressor.observe(case(1), L2, None, now=5)

        engine = StandingQueryEngine(expand_level2=True)
        sub = engine.subscribe(library.object_watch(obj=item(1)))
        _publish(engine, 0, epoch0)
        engine.drain(sub.sub_id)
        _publish(engine, 5, epoch5)
        notes = engine.drain(sub.sub_id)
        assert any(n.place == L2 for n in notes)
        assert engine.index.location_of(item(1), 6) == L2

    def test_stats_latency_histogram(self):
        stats = ServingStats()
        stats.observe_query(0.0000005)   # < 1 µs -> bucket 0
        stats.observe_query(0.003)       # ~3 ms
        assert stats.queries_served == 2
        assert stats.latency_buckets[0] == 1
        assert sum(stats.latency_buckets.values()) == 2
        assert len(stats.summary_lines()) >= 4

    def test_subscription_rejects_bad_queue(self):
        with pytest.raises(ValueError):
            Subscription(1, library.tail(), max_queue=0)


class TestPatternSpecs:
    @pytest.mark.parametrize("spec", [
        PatternSpec(PATTERN_TAIL, place=L1),
        PatternSpec(PATTERN_OBJECT, obj=item(1)),
        PatternSpec(PATTERN_PLACE, place=L2),
        PatternSpec(PATTERN_DWELL, place=L1, k=5),
        PatternSpec(PATTERN_MISSING, k=3),
        PatternSpec(PATTERN_LEFT_WITHOUT_CONTAINER, place=L1),
    ])
    def test_spec_round_trip(self, spec):
        assert pattern_from_spec(spec).spec() == spec

    @pytest.mark.parametrize("spec", [
        PatternSpec(PATTERN_OBJECT),                 # object watch needs obj
        PatternSpec(PATTERN_PLACE),                  # place watch needs place
        PatternSpec(PATTERN_DWELL, place=L1, k=0),   # k must be >= 1
        PatternSpec(PATTERN_MISSING, k=0),
        PatternSpec(PATTERN_LEFT_WITHOUT_CONTAINER),
        PatternSpec(99),
    ])
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            pattern_from_spec(spec)


class TestProtocol:
    def test_query_round_trip(self):
        payload = protocol.encode_query(
            7, protocol.Q_VISITORS, obj=item(3), place=L2, t1=10, t2=20
        )
        op, request_id = protocol.decode_request_header(payload)
        assert (op, request_id) == (protocol.OP_QUERY, 7)
        assert protocol.decode_query(payload) == (
            protocol.Q_VISITORS, item(3), L2, 10, 20
        )

    def test_query_none_fields(self):
        payload = protocol.encode_query(1, protocol.Q_PATH, obj=item(1))
        kind, obj, place, t1, t2 = protocol.decode_query(payload)
        assert (kind, obj) == (protocol.Q_PATH, item(1))
        assert place is None and t1 is None and t2 is None

    def test_subscribe_round_trip(self):
        spec = PatternSpec(PATTERN_DWELL, place=L1, k=9)
        payload = protocol.encode_subscribe(3, spec, max_queue=64)
        decoded, max_queue = protocol.decode_subscribe(payload)
        assert decoded == spec and max_queue == 64

    def test_reply_round_trip(self):
        payload = protocol.encode_reply(5, protocol.encode_scalar(L2))
        assert protocol.frame_type(payload) == protocol.FRAME_REPLY
        request_id, status, body = protocol.decode_reply(payload)
        assert (request_id, status) == (5, protocol.STATUS_OK)
        assert protocol.decode_scalar(body) == L2

    def test_error_reply(self):
        payload = protocol.encode_error_reply(2, "boom")
        _, status, body = protocol.decode_reply(payload)
        assert status == protocol.STATUS_ERROR and body == b"boom"

    def test_tag_list_round_trip(self):
        tags = [item(1), case(2), item(3)]
        assert protocol.decode_tag_list(protocol.encode_tag_list(tags)) == tags
        assert protocol.decode_tag_list(protocol.encode_tag_list([])) == []

    def test_path_round_trip(self):
        from repro.events.messages import INFINITY
        from repro.query.index import Interval

        path = [Interval(L1, 0, 5), Interval(L2, 5, INFINITY)]
        assert protocol.decode_path(protocol.encode_path(path)) == path

    def test_event_round_trip(self):
        note = Notification(
            kind="left_without_container",
            epoch=42,
            obj=item(1),
            place=L1,
            container=case(9),
            value=3,
            detail="left L0 at 41; case:9 stayed",
        )
        assert protocol.decode_notification(protocol.encode_notification(note)) == note
        _, groups = protocol.decode_event_batch(
            protocol.encode_event_batch(42, [([17], [note])])
        )
        assert groups == [([17], [note])]

    def test_scalar_none(self):
        assert protocol.decode_scalar(protocol.encode_scalar(None)) is None

    def test_stats_round_trip(self):
        stats = {"queries_served": 4, "latency_buckets": {"3": 2}}
        assert protocol.decode_stats_body(protocol.encode_stats_body(stats)) == stats
