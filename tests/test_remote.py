"""Remote-transport suite: TCP workers, supervision, and network faults.

The acceptance bar mirrors ``test_parallel.py``'s — **byte-identical**
merged output against the serial :class:`Coordinator` — and extends it
across the transport layer (DESIGN.md §12, docs/SCALING.md):

* clean 3-worker TCP runs reproduce the serial stream exactly;
* transient network faults (drop/delay/duplicate, injected by
  :class:`NetFaultProxy`) are absorbed by the retry layer, leaving the
  stream untouched;
* a worker crash *between* epochs reproduces the stream a scripted
  serial ``fail_zone`` / ``recover_zone`` pair emits at that boundary
  (the ``worker-death`` row of ``tests/test_coordination_contract.py``);
* a permanent partition (or a worker-side error) degrades to fewer
  workers with a well-formed stream instead of aborting.
"""

from __future__ import annotations

import pytest

from repro.api import SpireConfig, SpireSession
from repro.distributed import (
    Coordinator,
    RemoteCoordinator,
    RetryPolicy,
    partition_by_location,
    wire,
)
from repro.distributed.remote import (
    WorkerDaemon,
    parse_address,
    spawn_worker_process,
)
from repro.distributed.worker import WireWorker, WorkerStats
from repro.events.codec import decode_stream, encode_stream
from repro.events.messages import start_location
from repro.events.wellformed import check_well_formed
from repro.faults.injector import schedule_from_dict
from repro.faults.network import (
    NetDelay,
    NetDrop,
    NetDup,
    NetFaultProxy,
    NetPartition,
    WorkerCrash,
    split_net_schedule,
)
from repro.faults.warnings import WarningKind
from repro.model.objects import PackagingLevel, TagId
from repro.obs.metrics import MetricRegistry, render_prometheus
from repro.simulator.warehouse import WarehouseSimulator

from tests.test_parallel import ASSIGNMENT, _config, _epochs, _run, _zones


def _serial_stream(config, chaos_seed=None, actions=None, interval=10) -> bytes:
    sim, epochs = _epochs(config, chaos_seed)
    return _run(Coordinator(_zones(sim), checkpoint_interval=interval), epochs, actions)


# ---------------------------------------------------------------------------
# addresses and envelopes
# ---------------------------------------------------------------------------


class TestParseAddress:
    def test_forms(self):
        assert parse_address("node-7:7171") == ("node-7", 7171)
        assert parse_address(":7171") == ("127.0.0.1", 7171)
        assert parse_address(("host", 9)) == ("host", 9)
        assert parse_address(["host", "9"]) == ("host", 9)

    def test_missing_port_rejected(self):
        with pytest.raises(ValueError, match="no port"):
            parse_address("just-a-host")


class TestEnvelopes:
    def test_request_reply_round_trip(self):
        body = b"payload"
        msg_type, seq, payload = wire.decode_envelope(wire.encode_request(41, body))
        assert (msg_type, seq, payload) == (wire.MSG_REQUEST, 41, body)
        msg_type, seq, payload = wire.decode_envelope(wire.encode_reply(41, b"ok"))
        assert (msg_type, seq, payload) == (wire.MSG_REPLY, 41, b"ok")

    def test_ping_pong_and_hello(self):
        assert wire.decode_envelope(wire.encode_ping(7))[:2] == (wire.MSG_PING, 7)
        assert wire.decode_envelope(wire.encode_pong(7))[:2] == (wire.MSG_PONG, 7)
        ack = wire.encode_hello_ack("w-1", 123, 4)
        name, pid, zones = wire.decode_hello_ack(wire.decode_envelope(ack)[2])
        assert (name, pid, zones) == ("w-1", 123, 4)

    def test_bare_message_is_not_an_envelope(self):
        with pytest.raises(wire.WireError):
            wire.decode_envelope(wire.encode_ok())


class _CannedReply(WireWorker):
    """A handle whose worker answers with fixed bytes."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.stats = WorkerStats()

    def recv_bytes(self) -> bytes:
        return self.data


def _epoch_reply(*patches: tuple[int, int]) -> bytes:
    """A one-zone epoch reply (one message, one departed tag) with each
    ``(offset, byte)`` of ``patches`` written into the zone result."""
    msg = start_location(TagId(PackagingLevel.ITEM, 1), 0, 3)
    zone = bytearray(
        wire.encode_epoch_result([msg], [TagId(PackagingLevel.ITEM, 2)], 0.0, 0.0, None)
    )
    for offset, value in patches:
        zone[offset] = value
    return wire.encode_epoch_batch_result([(0, bytes(zone))])


def _release_reply() -> bytes:
    msg = start_location(TagId(PackagingLevel.ITEM, 1), 0, 3)
    record = wire.encode_record({"tag": TagId(PackagingLevel.ITEM, 1)})
    release = bytearray(wire.encode_release_result([(record, [msg])]))
    release[-25] = 0xFF  # the closing message's kind code
    return bytes(release)


class TestUndecodableReplies:
    """Whatever about a reply fails to decode surfaces from ``collect()``
    as a ``WireError``, which the coordinator counts as the worker's loss."""

    def test_an_intact_reply_decodes(self):
        [(zone_index, messages, departed, *_)] = _CannedReply(_epoch_reply()).collect()
        assert zone_index == 0 and len(messages) == 1
        assert departed == [TagId(PackagingLevel.ITEM, 2)]

    @pytest.mark.parametrize(
        "data",
        [
            # the epoch block's first record: kind code 255
            _epoch_reply((5, 0xFF)),
            # the departed tag key's level byte (bits 48-55 of the key at 34)
            _epoch_reply((34 + 6, 0x0F)),
            _release_reply(),
            wire.encode_epoch_batch_result(
                [(0, wire.encode_epoch_result([], [], 0.0, 0.0, None, b"{not json"))]
            ),
            wire.encode_epoch_batch_result([(0, b"\x41\x00")]),  # truncated zone result
            bytes([99]),  # no such reply type
        ],
        ids=["message-kind", "departed-level", "release-block", "metrics", "truncated", "type"],
    )
    def test_collect_raises_wire_error(self, data):
        with pytest.raises(wire.WireError):
            _CannedReply(data).collect()


# ---------------------------------------------------------------------------
# daemon reply cache (exactly-once effect)
# ---------------------------------------------------------------------------


class _FakeConn:
    """Captures what the daemon would send on its socket."""

    def __init__(self):
        self.sent: list[bytes] = []

    def sendall(self, data: bytes) -> None:
        self.sent.append(data)


def _install_frame(seq: int) -> bytes:
    from repro.core.checkpoint import dumps_spire

    config = _config(seed=5, duration=10)
    sim = WarehouseSimulator(config).run()
    zone = _zones(sim)[0]
    blob = dumps_spire(zone.spire)
    return wire.encode_request(seq, wire.encode_install(0, blob, zone_id=zone.zone_id))


class TestDaemonReplyCache:
    def test_retry_is_answered_from_cache_not_reapplied(self):
        daemon = WorkerDaemon()
        conn = _FakeConn()
        assert daemon._handle_frame(conn, _install_frame(seq=1)) is True
        assert len(daemon._host.spires) == 1
        first_reply = conn.sent[-1]
        # poison the resident state: if the retry were *re-applied*, the
        # install would overwrite the sentinel
        (index,) = daemon._host.spires
        daemon._host.spires[index] = "sentinel"
        assert daemon._handle_frame(conn, _install_frame(seq=1)) is True
        assert conn.sent[-1] == first_reply
        assert daemon._host.spires[index] == "sentinel"
        daemon.stop()

    def test_stale_seq_beyond_cache_is_dropped(self):
        daemon = WorkerDaemon()
        conn = _FakeConn()
        daemon._last_seq = 500  # as if 500 requests were served and evicted
        assert daemon._handle_frame(conn, _install_frame(seq=3)) is True
        assert conn.sent == []  # no reply: the coordinator moved on long ago
        daemon.stop()

    def test_cache_evicts_oldest(self):
        daemon = WorkerDaemon(reply_cache=4)
        for seq in range(1, 9):
            daemon._remember(seq, b"r%d" % seq)
        assert list(daemon._cache) == [5, 6, 7, 8]
        daemon.stop()


# ---------------------------------------------------------------------------
# construction contracts
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_checkpoint_interval_required(self):
        sim, _ = _epochs(_config(seed=5, duration=10))
        with pytest.raises(ValueError, match="checkpoint_interval"):
            RemoteCoordinator(_zones(sim), workers=2, checkpoint_interval=None)

    def test_addresses_xor_workers(self):
        sim, _ = _epochs(_config(seed=5, duration=10))
        with pytest.raises(ValueError, match="exactly one"):
            RemoteCoordinator(_zones(sim))
        with pytest.raises(ValueError, match="exactly one"):
            RemoteCoordinator(_zones(sim), addresses=[":1"], workers=1)
        with pytest.raises(ValueError, match=">= 1"):
            RemoteCoordinator(_zones(sim), workers=0)


# ---------------------------------------------------------------------------
# schedule plumbing
# ---------------------------------------------------------------------------


class TestNetSchedule:
    def test_json_kinds(self):
        schedule = schedule_from_dict(
            [
                {"kind": "net_delay", "rate": 0.1, "seconds": 0.01},
                {"kind": "net_drop", "rate": 0.05, "start": 10},
                {"kind": "net_dup", "rate": 0.05, "end": 500},
                {"kind": "net_partition", "start": 40, "duration": 20},
                {"kind": "worker_crash", "worker": 1, "at_epoch": 60},
                {"kind": "drop_batches", "rate": 0.03},
            ]
        )
        assert [type(s) for s in schedule] == [
            NetDelay, NetDrop, NetDup, NetPartition, WorkerCrash, type(schedule[-1]),
        ]
        stream_specs, net_specs, crashes = split_net_schedule(schedule)
        assert [type(s) for s in net_specs] == [NetDelay, NetDrop, NetDup, NetPartition]
        assert crashes == [WorkerCrash(worker=1, at_epoch=60)]
        assert len(stream_specs) == 1

    def test_run_remote_rejects_bad_schedules(self):
        from repro.experiments.remote import run_remote

        with pytest.raises(ValueError, match="transport faults only"):
            run_remote(schedule=schedule_from_dict([{"kind": "drop_batches", "rate": 0.1}]))
        with pytest.raises(ValueError, match="names worker"):
            run_remote(workers=2, schedule=[WorkerCrash(worker=5, at_epoch=10)])
        with pytest.raises(ValueError, match="at_epoch"):
            run_remote(workers=2, schedule=[WorkerCrash(worker=0, at_epoch=0)])


# ---------------------------------------------------------------------------
# equivalence: clean, under transport chaos, and across a crash
# ---------------------------------------------------------------------------


class TestRemoteEquivalence:
    def test_clean_run_byte_identical(self):
        config = _config(seed=7)
        serial = _serial_stream(config)
        sim, epochs = _epochs(config)
        with RemoteCoordinator(
            _zones(sim), workers=3, checkpoint_interval=10
        ) as remote:
            stream = _run(remote, epochs)
        assert stream == serial
        assert len(serial) > 0

    def test_chaos_ingestion_byte_identical(self):
        """Reader-stream chaos and the TCP transport compose cleanly."""
        config = _config(seed=13)
        serial = _serial_stream(config, chaos_seed=99)
        sim, epochs = _epochs(config, chaos_seed=99)
        with RemoteCoordinator(
            _zones(sim), workers=2, checkpoint_interval=10
        ) as remote:
            assert _run(remote, epochs) == serial

    def test_transport_faults_absorbed_by_retries(self):
        """Drop + delay + duplication on every link: byte-identical."""
        config = _config(seed=7)
        serial = _serial_stream(config)
        sim, epochs = _epochs(config)
        daemons = [WorkerDaemon() for _ in range(3)]
        proxies = []
        try:
            schedule = [
                NetDrop(rate=0.05),
                NetDelay(rate=0.1, seconds=0.01),
                NetDup(rate=0.05),
            ]
            for i, daemon in enumerate(daemons):
                daemon.start()
                proxies.append(NetFaultProxy(daemon.address, schedule, seed=21 + i))
            # a dropped frame costs one per-attempt deadline (a dropped
            # HELLO the connect one): keep those short and the resend
            # budget deep instead of the reverse
            policy = RetryPolicy(
                connect_timeout=0.2, request_timeout=0.06, max_retries=16,
                backoff_base=0.01, backoff_max=0.1,
            )
            remote = RemoteCoordinator(
                _zones(sim),
                addresses=[proxy.address for proxy in proxies],
                policy=policy,
                checkpoint_interval=10,
            )
            stream = _run(remote, epochs)
            stats = remote.supervisor.stats
        finally:
            for proxy in proxies:
                proxy.stop()
            for daemon in daemons:
                daemon.stop()
        assert stream == serial
        assert stats.worker_deaths == 0
        # the schedule really perturbed the link; the retry layer hid it
        assert stats.retries + stats.dup_replies > 0


# ---------------------------------------------------------------------------
# degradation: permanent partition, worker-side error
# ---------------------------------------------------------------------------


class TestDegradation:
    def test_permanent_partition_degrades_cleanly(self):
        """A blackholed worker is declared dead; the run completes."""
        config = _config(seed=11)
        sim, epochs = _epochs(config)
        daemons = [WorkerDaemon() for _ in range(3)]
        for daemon in daemons:
            daemon.start()
        # only worker 0's link is partitioned, and never heals
        proxy = NetFaultProxy(
            daemons[0].address, [NetPartition(start=40, duration=10**9)], seed=3
        )
        policy = RetryPolicy(
            connect_timeout=0.3,  # a reconnect through the blackhole waits this out
            request_timeout=0.3,
            max_retries=2,
            backoff_base=0.01,
            lease_interval=0.5,
            max_missed_leases=2,
        )
        remote = RemoteCoordinator(
            _zones(sim),
            addresses=[proxy.address] + [d.address for d in daemons[1:]],
            policy=policy,
            checkpoint_interval=10,
        )
        try:
            stream = _run(remote, epochs)
            stats = remote.supervisor.stats
            counts = dict(remote.quarantine.counts())
        finally:
            proxy.stop()
            for daemon in daemons:
                daemon.stop()
        assert stats.worker_deaths == 1
        assert counts[WarningKind.WORKER_LOST] == 1
        check_well_formed(list(decode_stream(stream)))

    def test_worker_error_fails_over_with_traceback(self):
        """MSG_ERROR mid-run: the worker is retired, its zones rehome."""
        config = _config(seed=7)
        sim, epochs = _epochs(config)
        remote = RemoteCoordinator(_zones(sim), workers=2, checkpoint_interval=10)
        try:
            parts = []
            for i, readings in enumerate(epochs):
                if i == 50:
                    # corrupt every resident substrate on daemon 0: its
                    # next request raises, and the daemon reports the
                    # traceback as MSG_ERROR (state lost by contract)
                    daemon = remote._daemons[0]
                    for index in list(daemon._host.spires):
                        daemon._host.spires[index] = None
                parts.append(encode_stream(remote.process_epoch(readings).messages))
            stats = remote.supervisor.stats
            warnings = [
                w for w in remote.quarantine.warnings
                if w.kind == WarningKind.WORKER_LOST
            ]
        finally:
            remote.close()
        assert stats.worker_deaths == 1
        assert len(warnings) == 1
        assert "worker reported an error" in warnings[0].detail
        assert "Traceback" in warnings[0].detail
        check_well_formed(list(decode_stream(b"".join(parts))))


# ---------------------------------------------------------------------------
# the subprocess daemon and the session front door
# ---------------------------------------------------------------------------


class TestWorkerProcess:
    def test_spawned_daemon_serves_a_run_and_exits(self):
        config = _config(seed=5, duration=60)
        serial = _serial_stream(config, interval=10)
        sim, epochs = _epochs(config)
        proc, address = spawn_worker_process()
        try:
            with RemoteCoordinator(
                _zones(sim),
                addresses=[address],
                checkpoint_interval=10,
                stop_workers_on_close=True,
            ) as remote:
                stream = _run(remote, epochs)
            assert stream == serial
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()


class TestSessionRemoteMode:
    def test_workers_and_remote_workers_are_exclusive(self):
        sim = WarehouseSimulator(_config(seed=5, duration=10)).run()
        config = SpireConfig.from_simulation(sim, workers=2, remote_workers=2)
        with pytest.raises(ValueError, match="mutually exclusive"):
            SpireSession(config)

    def test_remote_session_matches_serial(self):
        sim = WarehouseSimulator(_config(seed=5, duration=100)).run()
        with SpireSession(
            SpireConfig.from_simulation(sim, zone_map=ASSIGNMENT)
        ) as serial:
            expected = [r.messages for r in serial.process(sim.stream)]
        with SpireSession(
            SpireConfig.from_simulation(sim, zone_map=ASSIGNMENT, remote_workers=2)
        ) as session:
            assert session.mode == "remote"
            assert isinstance(session.coordinator, RemoteCoordinator)
            results = session.process(sim.stream)
        assert [r.messages for r in results] == expected


class TestRemoteMetrics:
    def test_supervisor_counters_exported(self):
        sim, epochs = _epochs(_config(seed=5, duration=80))
        registry = MetricRegistry()
        with RemoteCoordinator(
            _zones(sim), workers=2, checkpoint_interval=10, metrics=registry
        ) as remote:
            for readings in epochs:
                remote.process_epoch(readings)
            snapshot = registry.snapshot()
        text = render_prometheus(snapshot)
        for name in (
            "spire_remote_requests_total",
            "spire_remote_workers",
            "spire_remote_rtt_seconds",
        ):
            assert name in text
