"""Fan-out tier coverage: shared runtimes, tiered backpressure, protocol
v2 batched frames, subscription persistence, and the redesigned
subscription API.

Pins the load-bearing properties of the 10k-subscriber serving redesign:

* **Shared fan-out equivalence** — N duplicate subscribers through one
  shared runtime receive notifications *byte-identical* (under the wire
  codec) to N independent engines, while the pattern is evaluated once
  per epoch instead of N times.
* **Tiered backpressure** — drop-oldest with a warning first; after
  ``evict_after`` consecutive overflowing publishes the subscriber is
  evicted with a quarantine warning and an eviction notice (durable —
  restored — subscriptions are exempt).
* **Batched event frames** — ``FRAME_EVENT_BATCH`` survives arbitrary
  transport chunk boundaries and duplicate-subscriber grouping.
* **Persistence** — ``dump_subscriptions``/``restore_subscriptions``
  round-trips ids and canonical pattern text, re-coalescing duplicates
  into shared runtimes.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.wire import FrameDecoder, encode_frame, encode_frames
from repro.events.messages import missing, start_containment, start_location
from repro.faults.warnings import WarningKind
from repro.sase import compile_pattern, library
from repro.serving import protocol
from repro.serving.engine import StandingQueryEngine, describe_pattern
from repro.serving.patterns import (
    NOTIFY_SUBSCRIPTION_EVICTED,
    PATTERN_PLACE,
    PATTERN_TAIL,
    Notification,
    PatternSpec,
    pattern_from_spec,
)

from tests.conftest import case, item

L1, L2, L3 = 0, 1, 2


def _epochs(n: int):
    """n epochs with enough traffic that a place watch fires every epoch."""
    out = []
    for t in range(n):
        out.append(
            (t, [start_location(item(1 + t), L1, t),
                 start_location(case(1 + t), L2, t)])
        )
    return out


# ---------------------------------------------------------------------------
# shared fan-out tree
# ---------------------------------------------------------------------------


class TestSharedFanout:
    def test_duplicate_specs_share_one_runtime(self):
        engine = StandingQueryEngine()
        subs = [
            engine.subscribe(pattern_from_spec(PatternSpec(PATTERN_PLACE, place=L1)))
            for _ in range(5)
        ]
        assert len(engine.runtimes) == 1
        assert len({s.sub_id for s in subs}) == 5
        engine.publish(0, [start_location(item(1), L1, 0)])
        assert engine.stats.pattern_evaluations == 1
        for sub in subs:
            assert len(engine.drain(sub.sub_id)) == 1

    def test_textual_variants_share_via_canonical_source(self):
        engine = StandingQueryEngine()
        a = engine.subscribe(
            compile_pattern("PATTERN SEQ(arrival a) WHERE a.place == 0")
        )
        b = engine.subscribe(
            compile_pattern("PATTERN   SEQ( arrival   a )\nWHERE a.place==0")
        )
        assert len(engine.runtimes) == 1
        assert a.runtime is b.runtime

    def test_distinct_patterns_do_not_share(self):
        engine = StandingQueryEngine()
        engine.subscribe(pattern_from_spec(PatternSpec(PATTERN_PLACE, place=L1)))
        engine.subscribe(pattern_from_spec(PatternSpec(PATTERN_PLACE, place=L2)))
        engine.subscribe(library.tail())
        assert len(engine.runtimes) == 3

    def test_unsubscribe_retires_empty_runtime(self):
        engine = StandingQueryEngine()
        a = engine.subscribe(library.place_watch(place=L1))
        b = engine.subscribe(library.place_watch(place=L1))
        assert len(engine.runtimes) == 1
        engine.unsubscribe(a.sub_id)
        assert len(engine.runtimes) == 1
        engine.unsubscribe(b.sub_id)
        assert len(engine.runtimes) == 0

    def test_shared_matches_independent_engines_byte_for_byte(self):
        """N dups on one engine == N single-subscriber engines, under the
        wire codec — the shared tree must be an invisible optimization."""
        dups = 4
        shared = StandingQueryEngine()
        shared_subs = [
            shared.subscribe(pattern_from_spec(PatternSpec(PATTERN_PLACE, place=L1)))
            for _ in range(dups)
        ]
        solo = [StandingQueryEngine() for _ in range(dups)]
        solo_subs = [
            e.subscribe(pattern_from_spec(PatternSpec(PATTERN_PLACE, place=L1)))
            for e in solo
        ]
        for epoch, batch in _epochs(6):
            shared.publish(epoch, batch)
            for e in solo:
                e.publish(epoch, batch)
        blobs = []
        for d in range(dups):
            blobs.append(
                b"".join(protocol.encode_notification(n)
                         for n in shared.drain(shared_subs[d].sub_id))
            )
            solo_blob = b"".join(
                protocol.encode_notification(n)
                for n in solo[d].drain(solo_subs[d].sub_id)
            )
            assert blobs[d] == solo_blob
        assert len(set(blobs)) == 1 and blobs[0]
        assert shared.stats.pattern_evaluations == 6
        assert sum(e.stats.pattern_evaluations for e in solo) == 6 * dups

    def test_late_joiner_gets_events_from_join_onward(self):
        engine = StandingQueryEngine()
        early = engine.subscribe(library.place_watch(place=L1))
        engine.publish(0, [start_location(item(1), L1, 0)])
        late = engine.subscribe(library.place_watch(place=L1))
        assert early.runtime is late.runtime
        engine.publish(1, [start_location(item(2), L1, 1)])
        assert len(engine.drain(early.sub_id)) == 2
        assert len(engine.drain(late.sub_id)) == 1


# ---------------------------------------------------------------------------
# tiered backpressure: drop-oldest -> eviction
# ---------------------------------------------------------------------------


class TestTieredBackpressure:
    def _overflowing_engine(self, evict_after: int):
        engine = StandingQueryEngine(evict_after=evict_after)
        sub = engine.subscribe(library.place_watch(place=L1), max_queue=1)
        return engine, sub

    def test_slow_consumer_evicted_after_streak(self):
        engine, sub = self._overflowing_engine(evict_after=3)
        # queue of 1 + two matches per epoch -> every publish overflows
        for t in range(3):
            engine.publish(t, [start_location(item(1 + 2 * t), L1, t),
                               start_location(item(2 + 2 * t), L1, t)])
            if t < 2:
                assert sub.sub_id in engine.subscriptions
        assert sub.sub_id not in engine.subscriptions
        assert engine.stats.subscriptions_evicted == 1
        assert len(engine.runtimes) == 0
        [(evicted_id, note)] = engine.evicted
        assert evicted_id == sub.sub_id
        assert note.kind == NOTIFY_SUBSCRIPTION_EVICTED
        assert "evicted after 3 consecutive overflowing epochs" in note.detail
        assert describe_pattern(sub.pattern) in note.detail

    def test_clean_push_resets_the_streak(self):
        engine, sub = self._overflowing_engine(evict_after=2)
        overflow = [start_location(item(1), L1, 0), start_location(item(2), L1, 0)]
        engine.publish(0, overflow)
        assert sub.overflow_streak == 1
        engine.drain(sub.sub_id)
        engine.publish(1, [start_location(item(3), L1, 1)])  # fits: streak resets
        assert sub.overflow_streak == 0
        engine.publish(2, overflow)
        assert sub.sub_id in engine.subscriptions  # streak restarted at 1

    def test_eviction_disabled_by_default(self):
        engine, sub = self._overflowing_engine(evict_after=0)
        overflow = [start_location(item(1), L1, 0), start_location(item(2), L1, 0)]
        for t in range(10):
            engine.publish(t, overflow)
        assert sub.sub_id in engine.subscriptions
        assert engine.stats.subscriptions_evicted == 0

    def test_negative_evict_after_is_rejected(self):
        # 0 is the documented "off"; a negative streak bound would evict
        # at the first overflow
        with pytest.raises(ValueError, match="evict_after must be >= 0"):
            StandingQueryEngine(evict_after=-1)

    def test_durable_subscriptions_are_exempt(self):
        engine = StandingQueryEngine(evict_after=1)
        sub = engine.subscribe(library.place_watch(place=L1), max_queue=1)
        data = engine.dump_subscriptions()
        restored = StandingQueryEngine(evict_after=1)
        assert restored.restore_subscriptions(data) == 1
        overflow = [start_location(item(1), L1, 0), start_location(item(2), L1, 0)]
        for t in range(5):
            restored.publish(t, overflow)
        assert sub.sub_id in restored.subscriptions  # durable: never evicted

    def test_overflow_and_eviction_warnings_name_the_pattern(self):
        engine = StandingQueryEngine(evict_after=1)
        sub = engine.subscribe(library.place_watch(place=L1), max_queue=1)
        canonical = describe_pattern(sub.pattern)
        engine.publish(
            0, [start_location(item(1), L1, 0), start_location(item(2), L1, 0)]
        )
        kinds = [w.kind for w in engine.quarantine.warnings]
        assert WarningKind.SUBSCRIPTION_OVERFLOW in kinds
        assert WarningKind.SUBSCRIPTION_EVICTED in kinds
        for warning in engine.quarantine.warnings:
            assert canonical in warning.detail
            assert "1 subscriber(s)" in warning.detail


# ---------------------------------------------------------------------------
# protocol v2: batched event frames + feature negotiation
# ---------------------------------------------------------------------------


def _sample_groups():
    notes_a = [
        Notification(kind="place_event", epoch=7, obj=item(1), place=L1),
        Notification(kind="dwell_exceeded", epoch=7, obj=item(1), place=L1,
                     value=12, detail="dwelling"),
    ]
    notes_b = [
        Notification(kind="missing_overdue", epoch=7, obj=case(2), value=9),
    ]
    return [([3, 5, 11], notes_a), ([8], notes_b), ([2, 4], [])]


class TestEventBatchCodec:
    def test_round_trip(self):
        payload = protocol.encode_event_batch(7, _sample_groups())
        epoch, groups = protocol.decode_event_batch(payload)
        assert epoch == 7
        assert [ids for ids, _ in groups] == [[3, 5, 11], [8], [2, 4]]
        assert groups[0][1][0].obj == item(1)
        assert groups[0][1][1].value == 12
        assert groups[1][1][0].kind == "missing_overdue"
        assert groups[2][1] == []

    def test_notes_shared_within_a_group(self):
        epoch, groups = protocol.decode_event_batch(
            protocol.encode_event_batch(3, _sample_groups())
        )
        ids, notes = groups[0]
        # one decode per group: every member sub id sees the same objects
        assert len(ids) == 3 and len(notes) == 2

    def test_batch_equals_singles(self):
        """The batched codec must carry exactly what per-sub FRAME_EVENT
        frames would have carried."""
        groups = _sample_groups()
        payload = protocol.encode_event_batch(7, groups)
        _, decoded = protocol.decode_event_batch(payload)
        for (ids, notes), (dids, dnotes) in zip(groups, decoded):
            assert ids == dids
            for want, got in zip(notes, dnotes):
                for sub_id in ids:
                    single = protocol.decode_event(
                        protocol.encode_event(sub_id, want)
                    )
                    assert single == (sub_id, got)

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 16, 64, 4096])
    def test_framed_batch_survives_fixed_chunking(self, chunk_size):
        frames = [
            encode_frame(protocol.encode_event_batch(e, _sample_groups()))
            for e in range(4)
        ]
        data = b"".join(frames)
        decoder = FrameDecoder()
        out = []
        for start in range(0, len(data), chunk_size):
            out.extend(decoder.feed(data[start:start + chunk_size]))
        assert decoder.pending == 0
        assert len(out) == 4
        for e, payload in enumerate(out):
            epoch, groups = protocol.decode_event_batch(payload)
            assert epoch == e and len(groups) == 3

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=97), min_size=1, max_size=40))
    def test_framed_batch_survives_arbitrary_chunking(self, sizes):
        data = b"".join(
            encode_frame(protocol.encode_event_batch(e, _sample_groups()))
            for e in range(3)
        )
        decoder = FrameDecoder()
        out, pos, i = [], 0, 0
        while pos < len(data):
            step = sizes[i % len(sizes)]
            out.extend(decoder.feed(data[pos:pos + step]))
            pos += step
            i += 1
        assert [protocol.decode_event_batch(p)[0] for p in out] == [0, 1, 2]

    def test_encode_frames_coalesces(self):
        payloads = [b"abc", b"", b"0123456789"]
        blob = encode_frames(payloads)
        assert blob == b"".join(encode_frame(p) for p in payloads)
        assert FrameDecoder().feed(blob) == payloads

    def test_configure_round_trip(self):
        payload = protocol.encode_configure(9, protocol.FLAG_BATCH_EVENTS)
        assert protocol.decode_configure(payload) == protocol.FLAG_BATCH_EVENTS
        body = protocol.encode_configured(protocol.FLAG_BATCH_EVENTS)
        assert protocol.decode_configured(body) == protocol.FLAG_BATCH_EVENTS

    def test_eviction_notice_codes(self):
        note = Notification(kind=NOTIFY_SUBSCRIPTION_EVICTED, epoch=4,
                            value=17, detail="slow consumer")
        sub_id, decoded = protocol.decode_event(protocol.encode_event(12, note))
        assert sub_id == 12 and decoded == note


# ---------------------------------------------------------------------------
# persistence: canonical pattern text across restarts
# ---------------------------------------------------------------------------


class TestSubscriptionPersistence:
    def test_round_trip_preserves_ids_and_recoalesces(self):
        engine = StandingQueryEngine()
        a = engine.subscribe(library.place_watch(place=L1), max_queue=7)
        b = engine.subscribe(pattern_from_spec(PatternSpec(PATTERN_PLACE, place=L1)))
        c = engine.subscribe(
            compile_pattern("PATTERN SEQ(arrival a) WHERE a.place == 1")
        )
        # a string holding a quote: its canonical text must parse again
        d = engine.subscribe(compile_pattern('SEQ(any e) WHERE e.kind == "it\'s"'))
        data = engine.dump_subscriptions()

        restored = StandingQueryEngine()
        assert restored.restore_subscriptions(data) == 4
        assert set(restored.subscriptions) == {a.sub_id, b.sub_id, c.sub_id, d.sub_id}
        assert restored.subscriptions[a.sub_id].max_queue == 7
        assert restored.subscriptions[d.sub_id].pattern.ast == d.pattern.ast
        # spec twins re-coalesce into one runtime; each sase pattern is its own
        assert len(restored.runtimes) == 3
        # new subscriptions never collide with restored ids
        fresh = restored.subscribe(library.tail())
        assert fresh.sub_id > max(a.sub_id, b.sub_id, c.sub_id, d.sub_id)

    def test_restored_engine_delivers_equivalently(self):
        engine = StandingQueryEngine()
        sub = engine.subscribe(
            compile_pattern("PATTERN SEQ(arrival a) WHERE a.place == 0")
        )
        restored = StandingQueryEngine()
        restored.restore_subscriptions(engine.dump_subscriptions())
        for epoch, batch in _epochs(4):
            engine.publish(epoch, batch)
            restored.publish(epoch, batch)
        want = [protocol.encode_notification(n) for n in engine.drain(sub.sub_id)]
        got = [protocol.encode_notification(n) for n in restored.drain(sub.sub_id)]
        assert want == got and want

    def test_version_mismatch_rejected(self):
        engine = StandingQueryEngine()
        with pytest.raises(ValueError):
            engine.restore_subscriptions(b'{"version": 99, "subscriptions": []}')

    def test_server_save_load_round_trip(self, tmp_path):
        from repro.serving.server import SpireServer

        state = tmp_path / "subs.json"
        server = SpireServer()
        server.engine.subscribe(library.place_watch(place=L1))
        server.engine.subscribe(library.place_watch(place=L1))
        assert server.save_subscriptions(state) == 2
        reborn = SpireServer()
        assert reborn.load_subscriptions(state) == 2
        assert len(reborn.engine.runtimes) == 1
        assert reborn.load_subscriptions(tmp_path / "missing.json") == 0


# ---------------------------------------------------------------------------
# client/server: negotiation, handles, eviction notices, batched push
# ---------------------------------------------------------------------------


def _drive(engine_server, epoch, batch):
    return engine_server.publish_epoch(epoch, batch)


class TestServingV2EndToEnd:
    def test_batched_push_and_handle_api(self):
        async def run():
            from repro.serving.client import SpireClient
            from repro.serving.server import SpireServer

            async with SpireServer() as server:
                client = await SpireClient.connect(server.host, server.port)
                try:
                    assert client.features & protocol.FLAG_BATCH_EVENTS
                    subs = [
                        await client.subscribe(PatternSpec(PATTERN_PLACE, place=L1))
                        for _ in range(3)
                    ]
                    assert len(server.engine.runtimes) == 1
                    for epoch, batch in _epochs(2):
                        await _drive(server, epoch, batch)
                    for sub in subs:
                        first = await sub.next(timeout=5)
                        assert first.kind == "place_event" and first.place == L1
                    assert (await client.stats())["shared_runtimes"] == 1
                finally:
                    await client.close()

        asyncio.run(run())

    def test_unbatched_fallback_still_delivers(self):
        async def run():
            from repro.serving.client import SpireClient
            from repro.serving.server import SpireServer

            async with SpireServer() as server:
                client = await SpireClient.connect(
                    server.host, server.port, batch_events=False
                )
                try:
                    assert client.features == 0
                    sub = await client.subscribe(PatternSpec(PATTERN_PLACE, place=L1))
                    await _drive(server, 0, [start_location(item(1), L1, 0)])
                    note = await sub.next(timeout=5)
                    assert note.kind == "place_event"
                finally:
                    await client.close()

        asyncio.run(run())

    def test_subscribe_accepts_source_text_and_returns_handle(self):
        async def run():
            from repro.serving.client import SpireClient
            from repro.serving.server import SpireServer

            async with SpireServer() as server:
                client = await SpireClient.connect(server.host, server.port)
                try:
                    sub = await client.subscribe(
                        "PATTERN SEQ(arrival a) WHERE a.place == 0"
                    )
                    assert sub.id >= 0 and not sub.evicted
                    await _drive(server, 0, [start_location(item(1), L1, 0)])
                    note = await sub.next(timeout=5)
                    assert note.obj == item(1)
                    assert await sub.cancel()
                    with pytest.raises(Exception):
                        await sub.next(timeout=0.1)
                finally:
                    await client.close()

        asyncio.run(run())

    def test_slow_consumer_eviction_over_tcp(self):
        async def run():
            from repro.serving.client import ServingError, SpireClient
            from repro.serving.server import SpireServer

            async with SpireServer(evict_after=2) as server:
                client = await SpireClient.connect(server.host, server.port)
                try:
                    sub = await client.subscribe(
                        PatternSpec(PATTERN_PLACE, place=L1), max_queue=1
                    )
                    # server-side queue of 1, two fresh arrivals per epoch:
                    # every publish overflows and the streak never resets
                    for t in range(3):
                        await _drive(server, t, [
                            start_location(item(1 + 2 * t), L1, t),
                            start_location(item(2 + 2 * t), L1, t),
                        ])
                    while not sub.evicted:
                        await sub.next(timeout=5)
                    with pytest.raises(ServingError):
                        await sub.next(timeout=1)
                    assert (await client.stats())["subscriptions_evicted"] == 1
                    assert (await client.stats())["active_subscriptions"] == 0
                finally:
                    await client.close()

        asyncio.run(run())


# ---------------------------------------------------------------------------
# session API + multi-process front-end
# ---------------------------------------------------------------------------


class TestSessionSubscribe:
    @pytest.fixture(scope="class")
    def sim(self):
        from repro.simulator.config import SimulationConfig
        from repro.simulator.warehouse import WarehouseSimulator

        config = SimulationConfig(duration=60, pallet_period=40, seed=11)
        return WarehouseSimulator(config).run()

    def test_session_subscribe_and_drain(self, sim):
        from repro.api import SessionSubscription, SpireConfig, SpireSession

        with SpireSession(SpireConfig.from_simulation(sim)) as session:
            tail = session.subscribe(PatternSpec(PATTERN_TAIL))
            assert isinstance(tail, SessionSubscription)
            drained = 0
            for readings in sim.stream:
                session.process_epoch(readings)
                drained += len(tail.drain())
            assert drained > 0
            assert tail.pending() == 0
            assert tail.next() is None
            assert tail.cancel()
            assert not tail.cancel()  # idempotent
            assert session.serving_engine.stats.active_subscriptions == 0

    def test_session_subscribe_shares_runtimes(self, sim):
        from repro.api import SpireConfig, SpireSession

        with SpireSession(SpireConfig.from_simulation(sim)) as session:
            subs = [session.subscribe(PatternSpec(PATTERN_TAIL)) for _ in range(4)]
            assert len({s.id for s in subs}) == 4
            assert len(session.serving_engine.runtimes) == 1
            for readings in list(sim.stream)[:10]:
                session.process_epoch(readings)
            blobs = {
                b"".join(protocol.encode_notification(n) for n in s.drain())
                for s in subs
            }
            assert len(blobs) == 1  # byte-identical across duplicate handles

    def test_session_subscribe_accepts_source_text(self, sim):
        from repro.api import SpireConfig, SpireSession

        with SpireSession(SpireConfig.from_simulation(sim)) as session:
            sub = session.subscribe("PATTERN SEQ(arrival a)")
            for readings in list(sim.stream)[:20]:
                session.process_epoch(readings)
            notes = sub.drain()
            assert notes and all(n.kind == "sase_match" for n in notes)


class TestMultiProcessFrontend:
    def test_two_acceptors_share_a_port_and_replicate(self):
        async def run():
            from repro.serving.client import SpireClient
            from repro.serving.frontend import MultiProcessFrontend

            async with MultiProcessFrontend(acceptors=2) as frontend:
                assert frontend.port != 0
                for epoch, batch in _epochs(3):
                    await frontend.publish_epoch(epoch, batch)
                # every accepted connection (kernel-balanced) must answer
                # from an identical replica
                for _ in range(4):
                    client = await SpireClient.connect(frontend.host, frontend.port)
                    try:
                        assert await client.location_of(item(1), 2) == L1
                        stats = await client.stats()
                        assert stats["epochs_published"] == 3
                    finally:
                        await client.close()
            totals = frontend.stats_dict()
            assert totals["acceptors"] == 2
            assert totals["epochs_published"] == 6  # 3 epochs x 2 replicas

        asyncio.run(run())

    def test_negative_evict_after_is_rejected_before_any_acceptor_starts(self):
        # the acceptors build their engines in child processes, where the
        # engine's own check would be lost
        from repro.serving.frontend import MultiProcessFrontend

        with pytest.raises(ValueError, match="evict_after must be >= 0"):
            MultiProcessFrontend(acceptors=1, evict_after=-1)

    def test_uvloop_probe_never_raises(self):
        from repro.serving.frontend import try_install_uvloop

        assert try_install_uvloop() in (True, False)
