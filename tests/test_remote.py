"""Remote-transport suite: TCP workers, supervision, and network faults.

The acceptance bar mirrors ``test_parallel.py``'s — **byte-identical**
merged output against the serial :class:`Coordinator` — and extends it
across the transport layer (DESIGN.md §12, docs/SCALING.md):

* clean 3-worker TCP runs reproduce the serial stream exactly;
* a broken connection is a lost worker: a daemon that answers the
  redial (after reporting an error, or restarted on the same port)
  keeps its slot, one that does not (a permanent partition injected by
  :class:`NetFaultProxy`) hands its zones to the survivors — the stream
  is the serial one either way;
* a daemon's zones belong to the connection that installed them;
* the handshake and the subprocess launcher fail cleanly.

Worker deaths at the boundary, mid-request and found by a query are rows
of ``tests/test_coordination_contract.py``, shared with the pipe pool.
"""

from __future__ import annotations

import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.api import SpireConfig, SpireSession
from repro.distributed import (
    Coordinator,
    Deadlines,
    RemoteCoordinator,
    SupervisorStats,
    wire,
)
from repro.distributed.remote import (
    WorkerDaemon,
    parse_address,
    spawn_worker_process,
)
from repro.distributed.supervisor import dial_worker
from repro.distributed.worker import (
    SocketWorker,
    WorkerError,
    WorkerStats,
    ZoneHost,
    send_frame,
)
from repro.events.codec import encode_stream
from repro.events.messages import start_location
from repro.faults.injector import schedule_from_dict
from repro.faults.network import (
    NetDelay,
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


def _answer_hello_with(body: bytes, connections: int) -> socket.socket:
    """A listener that answers each of ``connections`` HELLOs with ``body``."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        for _ in range(connections):
            try:
                conn, _peer = listener.accept()
            except OSError:
                return  # the test closed the listener
            with conn:
                conn.recv(65536)
                conn.sendall(wire.encode_frame(body))

    threading.Thread(target=serve, daemon=True).start()
    return listener


class TestHandshake:
    def test_hello_ack_round_trip(self):
        ack = wire.encode_hello_ack("w-1", 123)
        assert wire.decode_hello_ack(ack) == ("w-1", 123)

    @pytest.mark.parametrize(
        "body",
        [
            bytes([wire.MSG_HELLO_ACK]) + b"abc",  # too short for the pid
            wire.encode_hello_ack("", 123) + b"\xff\xfe",  # name not UTF-8
        ],
        ids=["truncated", "not-utf8"],
    )
    def test_malformed_hello_ack_is_a_daemon_that_does_not_answer(self, body):
        with pytest.raises(wire.WireError, match="malformed HELLO_ACK"):
            wire.decode_hello_ack(body)
        listener = _answer_hello_with(body, connections=2)
        address = listener.getsockname()
        deadlines = Deadlines(connect_timeout=2.0)
        try:
            with pytest.raises(wire.WireError):
                dial_worker(0, address, deadlines, SupervisorStats())
            with WorkerDaemon() as daemon:
                daemon.start()
                worker = dial_worker(0, daemon.address, deadlines, SupervisorStats())
                # the redial reaches the listener that answers badly
                worker.connect = lambda: (socket.create_connection(address, 2.0), None)
                assert worker.respawn() is None
                worker.kill()
        finally:
            listener.close()


def _canned_reply(data: bytes) -> SocketWorker:
    """A handle whose worker answers its one request with fixed bytes."""
    ours, theirs = socket.socketpair()
    send_frame(theirs, wire.encode_hello_ack("canned", 0))
    send_frame(theirs, data)
    worker = SocketWorker(0, "canned", lambda: (ours, None), Deadlines(), SupervisorStats())
    worker.far_end = theirs  # open until the handle is dropped
    worker.submit((wire.MSG_STOP,))
    return worker


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
        [(zone_index, messages, departed, *_)] = _canned_reply(_epoch_reply()).collect()
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
            _canned_reply(data).collect()


# ---------------------------------------------------------------------------
# the daemon's zones belong to the connection
# ---------------------------------------------------------------------------


class TestDaemonState:
    def test_a_new_connection_starts_with_no_zones(self):
        sim, epochs = _epochs(_config(seed=5, duration=30))
        with WorkerDaemon() as daemon:
            daemon.start()
            with RemoteCoordinator(
                _zones(sim), addresses=[daemon.address], checkpoint_interval=10
            ) as remote:
                for readings in epochs:
                    remote.process_epoch(readings)
                query = (wire.MSG_QUERY, 0, wire.QUERY_LOCATION, next(iter(remote._owner)))
                remote._workers[0].submit(query)
                assert isinstance(remote._workers[0].collect(), int)  # zone 0 is there
            # the coordinator let go of its connection, not of the daemon
            worker = dial_worker(0, daemon.address, Deadlines(), SupervisorStats())
            worker.stats = WorkerStats()
            worker.submit(query)
            with pytest.raises(WorkerError, match="KeyError"):
                worker.collect()
            worker.kill()


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
                {"kind": "net_delay", "rate": 0.1, "seconds": 0.01, "end": 500},
                {"kind": "net_partition", "start": 40, "duration": 20},
                {"kind": "worker_crash", "worker": 1, "at_epoch": 60},
                {"kind": "drop_batches", "rate": 0.03},
            ]
        )
        assert [type(s) for s in schedule] == [
            NetDelay, NetPartition, WorkerCrash, type(schedule[-1]),
        ]
        stream_specs, net_specs, crashes = split_net_schedule(schedule)
        assert [type(s) for s in net_specs] == [NetDelay, NetPartition]
        assert crashes == [WorkerCrash(worker=1, at_epoch=60)]
        assert len(stream_specs) == 1
        # a live TCP connection neither loses nor duplicates a frame
        for kind in ("net_drop", "net_dup"):
            with pytest.raises(ValueError, match=f"unknown fault kind '{kind}'"):
                schedule_from_dict([{"kind": kind, "rate": 0.05}])

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


# ---------------------------------------------------------------------------
# a lost worker: redialled, else its zones move; the stream is the serial one
# ---------------------------------------------------------------------------


def _live_workers(remote) -> int:
    return sum(worker.alive for worker in remote._workers)


class TestDegradation:
    def test_permanent_partition_degrades_cleanly(self):
        """A blackholed link loses its worker, and the redial through the
        blackhole gets no HELLO_ACK: the zones move to the survivors."""
        config = _config(seed=11)
        serial = _serial_stream(config)
        sim, epochs = _epochs(config)
        daemons = [WorkerDaemon() for _ in range(3)]
        for daemon in daemons:
            daemon.start()
        # only worker 0's link is partitioned, and never heals; the delay
        # before it costs time only
        proxy = NetFaultProxy(
            daemons[0].address,
            [NetDelay(rate=0.1, seconds=0.005), NetPartition(start=40, duration=10**9)],
            seed=3,
        )
        remote = RemoteCoordinator(
            _zones(sim),
            addresses=[proxy.address] + [d.address for d in daemons[1:]],
            deadlines=Deadlines(connect_timeout=0.3, request_timeout=0.3, lease_interval=0.5),
            checkpoint_interval=10,
        )
        try:
            parts = [encode_stream(remote.process_epoch(r).messages) for r in epochs]
            stats = remote.supervisor.stats
            counts = dict(remote.quarantine.counts())
            live = _live_workers(remote)
            hosts = {worker.index for worker in remote._worker_of_zone.values()}
        finally:
            remote.close()
            proxy.stop()
            for daemon in daemons:
                daemon.stop()
        assert stats.worker_deaths == 1
        assert counts[WarningKind.WORKER_LOST] == 1
        assert live == 2 and hosts == {1, 2}
        assert b"".join(parts) == serial

    def test_worker_error_fails_over_with_traceback(self):
        """MSG_ERROR mid-run: the daemon drops that connection's zones and
        answers the redial, so they are rebuilt there."""
        config = _config(seed=7)
        serial = _serial_stream(config)
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
            live = _live_workers(remote)
            hosts = {worker.index for worker in remote._worker_of_zone.values()}
        finally:
            remote.close()
        assert stats.worker_deaths == 1
        assert len(warnings) == 1
        assert "worker reported an error" in warnings[0].detail
        assert "Traceback" in warnings[0].detail
        assert live == 2 and hosts == {0, 1}
        assert b"".join(parts) == serial

    def test_daemon_restarted_on_the_same_port_keeps_its_slot(self):
        config = _config(seed=7)
        serial = _serial_stream(config)
        sim, epochs = _epochs(config)
        remote = RemoteCoordinator(_zones(sim), workers=2, checkpoint_interval=10)
        restarted = None
        try:
            parts = []
            for i, readings in enumerate(epochs):
                if i == 50:
                    crashed = remote._daemons[0]
                    crashed.crash()
                    restarted = WorkerDaemon(port=crashed.port)
                    restarted.start()
                parts.append(encode_stream(remote.process_epoch(readings).messages))
            counts = dict(remote.quarantine.counts())
            live = _live_workers(remote)
            hosts = {worker.index for worker in remote._worker_of_zone.values()}
        finally:
            remote.close()
            if restarted is not None:
                restarted.stop()
        assert counts[WarningKind.WORKER_LOST] == 1
        assert live == 2 and hosts == {0, 1}
        assert b"".join(parts) == serial


    def test_a_home_lost_taking_zones_in_is_rehomed_in_turn(self, monkeypatch):
        """Daemon 0 crashes; daemon 1, picked as a home, fails the install:
        it is lost too and everything moves to daemon 2, exactly."""
        config = _config(seed=7)
        serial = _serial_stream(config)
        sim, epochs = _epochs(config)
        remote = RemoteCoordinator(_zones(sim), workers=3, checkpoint_interval=10)
        handle_request = ZoneHost.handle_request

        def failing_installs(host, request):
            if (
                request[0] == wire.MSG_INSTALL
                and threading.current_thread().name == remote._daemons[1].name
            ):
                raise RuntimeError("injected install fault")
            return handle_request(host, request)

        monkeypatch.setattr(ZoneHost, "handle_request", failing_installs)
        try:
            parts = []
            for i, readings in enumerate(epochs):
                if i == 50:
                    remote._daemons[0].crash()
                parts.append(encode_stream(remote.process_epoch(readings).messages))
            counts = dict(remote.quarantine.counts())
            live = _live_workers(remote)
            hosts = {worker.index for worker in remote._worker_of_zone.values()}
        finally:
            remote.close()
        assert counts[WarningKind.WORKER_LOST] == 2
        assert live == 1 and hosts == {2}
        assert b"".join(parts) == serial


# ---------------------------------------------------------------------------
# the subprocess daemon and the session front door
# ---------------------------------------------------------------------------


class TestWorkerProcess:
    def test_a_silent_child_times_out_and_is_reaped(self, monkeypatch):
        launched = []
        popen = subprocess.Popen

        def silent(args, **kwargs):
            launched.append(popen([sys.executable, "-c", "import time; time.sleep(60)"], **kwargs))
            return launched[-1]

        monkeypatch.setattr(subprocess, "Popen", silent)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="did not report its address in time"):
            spawn_worker_process(timeout=0.5)
        assert time.monotonic() - started < 1.5
        assert launched[0].returncode is not None

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
