"""`SpireSession` facade tests: one constructor over every execution mode.

The session is a composition layer (DESIGN.md §11): whatever mode the
config selects — local :class:`Spire`, serial :class:`Coordinator`,
multi-process :class:`ParallelCoordinator` — processing a stream through
the session must produce exactly what driving the wrapped engine
directly would, and the cross-cutting extras (resilient ingestion,
checkpoints, metrics, trace logs, TCP serving) ride along.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal

import pytest

from repro.api import SpireConfig, SpireSession
from repro.core.checkpoint import loads_spire
from repro.core.pipeline import Deployment, Spire
from repro.distributed import Coordinator, ParallelCoordinator, partition_by_location
from repro.events.codec import encode_stream
from repro.events.messages import INFINITY, EventKind, EventMessage
from repro.events.wellformed import check_well_formed
from repro.sase import library
from repro.serving.client import SpireClient
from repro.simulator.config import SimulationConfig
from repro.simulator.warehouse import WarehouseSimulator

ZONE_MAP = {
    "inbound": ["entry-door", "receiving-belt"],
    "storage": ["shelf-1", "shelf-2"],
    "outbound": ["packaging-area", "exit-belt", "exit-door"],
}


@pytest.fixture(scope="module")
def sim():
    config = SimulationConfig(
        duration=150,
        pallet_period=60,
        cases_per_pallet_min=2,
        cases_per_pallet_max=3,
        items_per_case=4,
        read_rate=0.9,
        shelf_read_period=10,
        num_shelves=2,
        shelving_time_mean=80,
        shelving_time_jitter=20,
        seed=23,
    )
    return WarehouseSimulator(config).run()


def _messages(results) -> bytes:
    return encode_stream([m for r in results for m in r.messages])


# ---------------------------------------------------------------------------
# construction / mode selection
# ---------------------------------------------------------------------------


def test_config_validates_readers():
    with pytest.raises(ValueError, match="non-empty"):
        SpireSession(SpireConfig())


def test_trace_with_workers_is_rejected(sim, tmp_path):
    config = SpireConfig.from_simulation(
        sim, workers=2, trace_path=tmp_path / "t.jsonl"
    )
    with pytest.raises(ValueError, match="trace_path is not supported with workers"):
        SpireSession(config)


def test_mode_selection(sim):
    local = SpireSession(SpireConfig.from_simulation(sim))
    assert local.mode == "local"
    assert isinstance(local.engine, Spire)
    assert local.coordinator is None

    with SpireSession(SpireConfig.from_simulation(sim, zone_map=ZONE_MAP)) as serial:
        assert serial.mode == "serial"
        assert type(serial.coordinator) is Coordinator
        assert serial.spire is None
        assert set(serial.coordinator.zones) == set(ZONE_MAP)


def test_workers_without_zone_map_builds_one_site_zone(sim):
    with SpireSession(SpireConfig.from_simulation(sim, workers=1)) as session:
        assert session.mode == "parallel"
        assert isinstance(session.coordinator, ParallelCoordinator)
        assert set(session.coordinator.zones) == {"site"}


def test_from_simulation_and_overrides(sim):
    config = SpireConfig.from_simulation(sim, compression_level=1)
    assert list(config.readers) == list(sim.layout.readers)
    assert config.registry is sim.layout.registry
    assert config.compression_level == 1
    assert config.with_overrides(strict=True).strict is True
    assert config.strict is False  # with_overrides does not mutate


# ---------------------------------------------------------------------------
# processing equivalence: session == wrapped engine, per mode
# ---------------------------------------------------------------------------


def test_local_session_matches_plain_spire(sim):
    with SpireSession(SpireConfig.from_simulation(sim)) as session:
        results = session.process(sim.stream)
    deployment = Deployment.from_readers(sim.layout.readers, sim.layout.registry)
    spire = Spire(deployment)
    direct = [spire.process_epoch(readings) for readings in sim.stream]
    assert _messages(results) == _messages(direct)
    assert [r.epoch for r in results] == [r.epoch for r in direct]


def test_serial_session_matches_plain_coordinator(sim):
    with SpireSession(SpireConfig.from_simulation(sim, zone_map=ZONE_MAP)) as session:
        results = session.process(sim.stream)
    zones = partition_by_location(sim.layout.readers, ZONE_MAP, sim.layout.registry)
    direct = Coordinator(zones).run(sim.stream)
    assert _messages(results) == _messages(direct)
    check_well_formed([m for r in results for m in r.messages])


def test_parallel_session_matches_serial_stream(sim):
    with SpireSession(SpireConfig.from_simulation(sim, zone_map=ZONE_MAP)) as serial:
        expected = _messages(serial.process(sim.stream))
    with SpireSession(
        SpireConfig.from_simulation(sim, zone_map=ZONE_MAP, workers=2)
    ) as parallel:
        assert parallel.mode == "parallel"
        assert _messages(parallel.process(sim.stream)) == expected


def test_resilient_ingestion_synthesizes_gaps(sim):
    epochs = list(sim.stream)
    with_gap = epochs[:40] + epochs[43:]  # drop three whole epochs
    with SpireSession(
        SpireConfig.from_simulation(sim, resilient=True, max_delay=2)
    ) as session:
        results = session.process(with_gap)
    # the resilient wrapper re-synthesizes the missing epochs
    assert [r.epoch for r in results] == [e.epoch for e in epochs]


# ---------------------------------------------------------------------------
# queries and fault operations
# ---------------------------------------------------------------------------


def test_site_wide_queries_each_mode(sim):
    tags = sorted(sim.truth.snapshots[-1].locations)[:5]
    assert tags
    answers = []
    for overrides in ({}, {"zone_map": ZONE_MAP}, {"zone_map": ZONE_MAP, "workers": 2}):
        with SpireSession(SpireConfig.from_simulation(sim, **overrides)) as session:
            session.process(sim.stream)
            answers.append(
                [(session.location_of(t), session.container_of(t)) for t in tags]
            )
            owner = session.owner_of(tags[0])
            assert owner == "local" if session.mode == "local" else owner in ZONE_MAP
    assert answers[0] == answers[1] == answers[2]


def test_fault_operations_require_sharding(sim):
    with SpireSession(SpireConfig.from_simulation(sim)) as session:
        with pytest.raises(ValueError, match="sharded session"):
            session.fail_zone("storage")
        with pytest.raises(ValueError, match="sharded session"):
            session.recover_zone("storage")


def test_failover_through_the_session(sim):
    epochs = list(sim.stream)
    config = SpireConfig.from_simulation(sim, zone_map=ZONE_MAP, checkpoint_interval=20)
    with SpireSession(config) as session:
        messages = []
        for i, readings in enumerate(epochs):
            if i == 60:
                messages.extend(session.fail_zone("storage"))
            if i == 90:
                messages.extend(session.recover_zone("storage"))
            messages.extend(session.process_epoch(readings).messages)
    check_well_formed(messages)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def test_checkpoint_local(sim):
    with SpireSession(SpireConfig.from_simulation(sim)) as session:
        session.process(sim.stream)
        blobs = session.checkpoint()
        assert set(blobs) == {"local"}
        restored = loads_spire(blobs["local"])
        tag = sorted(sim.truth.snapshots[-1].locations)[0]
        assert restored.location_of(tag) == session.location_of(tag)


def test_checkpoint_serial_covers_every_zone(sim):
    with SpireSession(SpireConfig.from_simulation(sim, zone_map=ZONE_MAP)) as session:
        session.process(sim.stream)
        blobs = session.checkpoint()
    assert set(blobs) == set(ZONE_MAP)
    assert all(isinstance(b, bytes) and b for b in blobs.values())


def test_checkpoint_parallel_requires_interval(sim):
    epochs = list(sim.stream)[:30]
    with SpireSession(
        SpireConfig.from_simulation(sim, zone_map=ZONE_MAP, workers=2)
    ) as session:
        session.process(epochs)
        with pytest.raises(ValueError, match="checkpoint_interval"):
            session.checkpoint()
    with SpireSession(
        SpireConfig.from_simulation(
            sim, zone_map=ZONE_MAP, workers=2, checkpoint_interval=10
        )
    ) as session:
        session.process(epochs)
        blobs = session.checkpoint()
    assert set(blobs) == set(ZONE_MAP)


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------


def test_metrics_disabled_snapshot_is_empty(sim):
    with SpireSession(SpireConfig.from_simulation(sim)) as session:
        session.process(list(sim.stream)[:10])
        assert session.metrics is None
        assert session.metrics_snapshot() == {"series": [], "help": {}}
        assert session.render_metrics() == ""


def test_metrics_enabled_counts_readings(sim):
    epochs = list(sim.stream)
    total = sum(len(tags) for e in epochs for tags in e.by_reader.values())
    with SpireSession(SpireConfig.from_simulation(sim, metrics=True)) as session:
        session.process(epochs)
        snapshot = session.metrics_snapshot()
        readings = [
            e for e in snapshot["series"] if e["name"] == "spire_readings_total"
        ]
        assert sum(e["value"] for e in readings) == total
        assert "spire_readings_total" in session.render_metrics()


def test_trace_log_records_each_epoch(sim, tmp_path):
    path = tmp_path / "trace.jsonl"
    epochs = list(sim.stream)[:20]
    with SpireSession(SpireConfig.from_simulation(sim, trace_path=path)) as session:
        session.process(epochs)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    epoch_records = [r for r in records if r["kind"] == "epoch"]
    assert [r["epoch"] for r in epoch_records] == [e.epoch for e in epochs]
    assert all({"update", "inference"} <= set(r["spans"]) for r in epoch_records)


def test_serial_trace_is_zone_tagged(sim, tmp_path):
    path = tmp_path / "trace.jsonl"
    epochs = list(sim.stream)[:20]
    config = SpireConfig.from_simulation(sim, zone_map=ZONE_MAP, trace_path=path)
    with SpireSession(config) as session:
        session.process(epochs)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    zones = {r["zone"] for r in records if r["kind"] == "epoch"}
    assert zones == set(ZONE_MAP)


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------

_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" -?[0-9].*$"  # value (int, float, scientific)
)


def assert_prometheus_well_formed(text: str) -> None:
    """Structural checks on a text-exposition scrape (the CI serving-smoke
    contract): every sample line parses, every series has a # TYPE."""
    assert text.endswith("\n")
    typed = set()
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            name, kind = line.split()[2:4]
            assert kind in {"counter", "gauge", "histogram"}
            typed.add(name)
        elif not line.startswith("#"):
            assert _SAMPLE_LINE.match(line), line
            base = line.split("{")[0].split(" ")[0]
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix) and base.removesuffix(suffix) in typed:
                    base = base.removesuffix(suffix)
            assert base in typed, line


def test_serve_and_pump_over_tcp(sim):
    async def run():
        config = SpireConfig.from_simulation(sim, zone_map=ZONE_MAP, metrics=True)
        with SpireSession(config) as session:
            async with session.serve() as server:
                pumped = await session.pump(server, sim.stream)
                client = await SpireClient.connect(server.host, server.port)
                try:
                    stats = await client.stats()
                    text = await client.metrics()
                finally:
                    await client.close()
        return pumped, stats, text

    pumped, stats, text = asyncio.run(run())
    assert pumped == len(sim.stream)
    assert stats["epochs_published"] == pumped
    # the scrape carries serving counters and zone-labelled substrate ones
    assert f"spire_serving_epochs_published_total {pumped}" in text
    assert 'spire_readings_total{zone="inbound"}' in text
    for core in (
        "spire_serving_queries_total",
        "spire_serving_query_latency_microseconds_count",
        "spire_epochs_total",
        "spire_update_seconds_count",
        "spire_coordinator_epochs_total",
    ):
        assert core in text, core
    assert_prometheus_well_formed(text)


def _stream_seen_by(notes) -> list[EventMessage]:
    """The event stream a tail subscriber received.  A notification says
    what happened to whom and when it arrived, but not ``Vs``: an end
    message takes the ``Vs`` of the interval it closes — or -1 when its
    subject has none open, which ``check_well_formed`` rejects."""
    kinds = list(EventKind)
    opened: dict = {}
    stream = []
    for note in notes:
        kind = kinds[note.value]
        vs, ve = note.epoch, note.epoch
        if kind in (EventKind.START_LOCATION, EventKind.START_CONTAINMENT):
            opened[note.obj, note.container] = vs
            ve = INFINITY
        elif kind is not EventKind.MISSING:
            vs = opened.pop((note.obj, note.container), -1)
        stream.append(EventMessage(kind, note.obj, vs, ve, note.place, note.container))
    return stream


def test_a_killed_worker_process_never_reaches_the_subscriber(sim):
    """Every layer above the coordinator inherits the worker-lost policy:
    the notifications a TCP subscriber receives from a session whose
    worker is SIGKILLed at epoch 60 are, one for one, those of the same
    session left alone."""

    async def run(kill: bool):
        config = SpireConfig.from_simulation(
            sim, workers=2, zone_map=ZONE_MAP, checkpoint_interval=10, expand_level2=False
        )
        with SpireSession(config) as session:
            workers = session.coordinator._workers

            def kill_one(_epoch, pumped):
                if kill and pumped == 60:
                    os.kill(workers[0].process.pid, signal.SIGKILL)

            async with session.serve() as server:
                async with await SpireClient.connect(server.host, server.port) as client:
                    tail = await client.subscribe(library.tail(), max_queue=1_000_000)
                    pumped = await session.pump(server, sim.stream, on_epoch=kill_one)
                    published = server.engine.stats.notifications_delivered
                    notes = [await tail.next(timeout=5) for _ in range(published)]
                    assert tail.dropped == 0 and len(tail) == 0
            return pumped, notes, session.coordinator.quarantine.counts()

    pumped, notes, counts = asyncio.run(run(kill=True))
    assert pumped == len(sim.stream)
    assert counts["worker_lost"] == 1 and counts["zone_rehomed"] == 2
    _, undisturbed, quiet = asyncio.run(run(kill=False))
    assert "worker_lost" not in quiet
    assert notes == undisturbed
    check_well_formed(_stream_seen_by(notes))
