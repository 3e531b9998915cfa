"""Zone workers: the resident-state core and the handles that reach it.

A *worker* hosts some of the site's zone substrates and serves the
coordinator's requests against them, strictly FIFO: install a zone,
process an epoch for all hosted zones, release or adopt migrating tags,
answer a point query, stop.  :class:`ZoneHost` is that core — the one
place a zone's :class:`~repro.core.pipeline.Spire` is driven — and
:meth:`ZoneHost.handle_request` its only entry point.

The coordinator talks to a *handle*: ``submit(request)`` and
``collect()`` (the reply to the oldest unanswered request), plus
``alive``, ``death_reason``, ``host``, ``kill(warn)``,
``abandon(reason, warn)``, ``respawn()`` and ``readable`` (DESIGN.md
§9).  :class:`InProcessWorker` calls a host in this process with the
request tuple as is.  :class:`SocketWorker` is every out-of-process
worker: it writes the request as one length-prefixed frame on a stream
socket, read at the far end by :func:`serve_connection` — in a forked
pool child over a socket pair, or in a TCP daemon — and reads the reply
back at its exact length, under the request deadline.  A handle may lose
a request or its reply only together with the worker: the coordinator
logs every state-changing request before submitting it and replays the
log through a :class:`ZoneHost` of its own when the worker is gone, so
``handle_request`` must stay a function of the resident state and the
request alone.
"""

from __future__ import annotations

import os
import select
import struct
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

from repro.core.checkpoint import dumps_spire, loads_spire
from repro.core.pipeline import Spire
from repro.distributed import wire
from repro.obs.metrics import MetricRegistry, snapshot_from_json, snapshot_to_json
from repro.readers.codec import decode_epoch_frame, encode_epoch_frame


@dataclass
class WorkerStats:
    """Observability counters for one coordinated run (all zones)."""

    epochs: int = 0
    bytes_to_workers: int = 0
    bytes_from_workers: int = 0
    fanout_s: float = 0.0  #: time spent encoding + writing requests
    fanin_wait_s: float = 0.0  #: time blocked waiting on worker replies
    checkpoint_s: float = 0.0  #: in-worker checkpoint time (sum)
    checkpoints: int = 0
    busy_s: dict[str, float] = field(default_factory=dict)  #: per-zone compute
    zone_epochs: dict[str, int] = field(default_factory=dict)

    def summary_lines(self) -> list[str]:
        """Human-readable block for the ``bench`` subcommand."""
        lines = [
            f"epochs coordinated      {self.epochs}",
            f"bytes to / from workers {self.bytes_to_workers} out / "
            f"{self.bytes_from_workers} back",
            f"fan-out / fan-in wait   {self.fanout_s:.3f}s / {self.fanin_wait_s:.3f}s",
            f"checkpoints (in-worker) {self.checkpoints} in {self.checkpoint_s:.3f}s",
        ]
        for zone_id in sorted(self.busy_s):
            epochs = self.zone_epochs.get(zone_id, 0) or 1
            lines.append(
                f"zone {zone_id:<12} busy {self.busy_s[zone_id]:.3f}s "
                f"({1e3 * self.busy_s[zone_id] / epochs:.3f} ms/epoch)"
            )
        return lines


class WorkerError(wire.WireError):
    """A worker answered :data:`wire.MSG_ERROR`: the text is its traceback
    and, by contract, its resident zone state is gone."""


#: what a handle raises when its worker is lost
LOST_WORKER_ERRORS = (wire.WireError, OSError, EOFError)


def loss_reason(exc: BaseException) -> str:
    """Why a worker whose handle raised ``exc`` (one of
    :data:`LOST_WORKER_ERRORS`) is lost, in every pool's words."""
    if isinstance(exc, WorkerError):
        return f"worker reported an error:\n{exc}"
    if isinstance(exc, wire.WireError):
        return f"undecodable reply: {exc}"
    if isinstance(exc, TimeoutError):
        return str(exc)  # "no reply within N s"
    return f"connection lost: {exc!r}"


def restore_zone(
    checkpoint: bytes, zone_id: str, metrics: bool, seed: dict | None
) -> Spire:
    """A substrate from checkpoint bytes, telemetry re-attached.

    Checkpoints never carry registries: with ``metrics`` a fresh registry
    labelled ``zone=zone_id`` is seeded from ``seed`` (the snapshot taken
    when the checkpoint was) *before* anything is replayed into the
    substrate, so replay re-increments it to the totals a crash-free run
    would show instead of silently zeroing the zone's counters.
    """
    spire = loads_spire(checkpoint)
    if metrics:
        registry = MetricRegistry(const_labels={"zone": zone_id})
        if seed:
            registry.restore(seed)
        spire.attach_metrics(registry)
    return spire


# ---------------------------------------------------------------------------
# the worker-side core
# ---------------------------------------------------------------------------


class ZoneHost:
    """Resident zone substrates, by dense zone index."""

    def __init__(self) -> None:
        self.spires: dict[int, Spire] = {}

    def handle_request(self, request: tuple):
        """Serve one coordinator request; returns its reply.

        ========================================== ==========================
        request                                    reply
        ========================================== ==========================
        ``(MSG_INSTALL, index, zone_id, spire,     ``None``
        blob)`` — ``blob`` is ``spire``'s
        checkpoint when the sender has it already
        ``(MSG_EPOCH, [(index, flags,              per entry ``(index,
        readings)])``                              messages, departed,
                                                   busy_s, checkpoint_s,
                                                   checkpoint, registry)``
        ``(MSG_RELEASE, index, now, tags)``        ``[(record, closing)]``
        ``(MSG_ADOPT, index, now, records)``       ``None``
        ``(MSG_QUERY, index, kind, tag)``          location color, or the
                                                   container's key (0: none)
        ``(MSG_STOP,)``                            ``None`` (caller stops)
        ========================================== ==========================

        Exceptions propagate (in process, to the coordinator's caller).
        """
        msg_type = request[0]
        if msg_type == wire.MSG_EPOCH:
            results = []
            for zone_index, flags, readings in request[1]:
                spire = self.spires[zone_index]
                start = time.perf_counter()
                output = spire.process_epoch(readings)
                busy_s = time.perf_counter() - start
                checkpoint = None
                checkpoint_s = 0.0
                if flags & wire.FLAG_CHECKPOINT:
                    start = time.perf_counter()
                    checkpoint = dumps_spire(spire)
                    checkpoint_s = time.perf_counter() - start
                results.append(
                    (
                        zone_index, output.messages, output.departed,
                        busy_s, checkpoint_s, checkpoint, spire.metrics,
                    )
                )
            return results
        if msg_type == wire.MSG_RELEASE:
            _, zone_index, now, tags = request
            spire = self.spires[zone_index]
            return [spire.release(tag, now) for tag in tags]
        if msg_type == wire.MSG_ADOPT:
            _, zone_index, now, records = request
            spire = self.spires[zone_index]
            for record in records:
                spire.adopt(record, now)
            return None
        if msg_type == wire.MSG_QUERY:
            _, zone_index, kind, tag = request
            spire = self.spires[zone_index]
            if kind == wire.QUERY_LOCATION:
                return spire.location_of(tag)
            if kind == wire.QUERY_CONTAINER:
                container = spire.container_of(tag)
                return 0 if container is None else container.key()
            raise ValueError(f"unknown query kind {kind}")
        if msg_type == wire.MSG_INSTALL:
            _, zone_index, _zone_id, spire, _blob = request
            self.spires[zone_index] = spire
            return None
        if msg_type == wire.MSG_STOP:
            return None
        raise ValueError(f"unknown message type {msg_type}")

    def serve_bytes(self, data: bytes) -> tuple[bytes, bool]:
        """``handle_request`` as an out-of-process worker runs it; returns
        the packed reply and whether the worker is done — after
        :data:`wire.MSG_STOP`, or after a failure, which is reported as
        :data:`wire.MSG_ERROR` (the traceback) and costs it its state."""
        try:
            request = unpack_request(data)
            reply = pack_reply(request[0], self.handle_request(request))
        except BaseException:
            self.spires.clear()
            return wire.encode_error(traceback.format_exc()), True
        return reply, request[0] == wire.MSG_STOP


# ---------------------------------------------------------------------------
# requests and replies as bytes (the wire layouts of repro.distributed.wire)
# ---------------------------------------------------------------------------


def pack_request(request: tuple) -> bytes:
    msg_type = request[0]
    if msg_type == wire.MSG_EPOCH:
        return wire.encode_epoch_batch(
            [
                (zone_index, flags, encode_epoch_frame(readings))
                for zone_index, flags, readings in request[1]
            ]
        )
    if msg_type == wire.MSG_RELEASE:
        return wire.encode_release(*request[1:])
    if msg_type == wire.MSG_ADOPT:
        _, zone_index, now, records = request
        return wire.encode_adopt(zone_index, now, [wire.encode_record(r) for r in records])
    if msg_type == wire.MSG_QUERY:
        return wire.encode_query(*request[1:])
    if msg_type == wire.MSG_INSTALL:
        _, zone_index, zone_id, spire, blob = request
        registry = spire.metrics
        return wire.encode_install(
            zone_index,
            blob if blob is not None else dumps_spire(spire),
            zone_id=zone_id,
            metrics=registry is not None,
            metrics_seed=b"" if registry is None else snapshot_to_json(registry.snapshot()),
        )
    if msg_type == wire.MSG_STOP:
        return wire.encode_stop()
    raise ValueError(f"unknown message type {msg_type}")


def unpack_request(data: bytes) -> tuple:
    msg_type = data[0] if data else 0
    if msg_type == wire.MSG_EPOCH:
        return (
            msg_type,
            [
                (zone_index, flags, decode_epoch_frame(frame)[0])
                for zone_index, flags, frame in wire.decode_epoch_batch(data)
            ],
        )
    if msg_type == wire.MSG_RELEASE:
        return (msg_type, *wire.decode_release(data))
    if msg_type == wire.MSG_ADOPT:
        return (msg_type, *wire.decode_adopt(data))
    if msg_type == wire.MSG_QUERY:
        return (msg_type, *wire.decode_query(data))
    if msg_type == wire.MSG_INSTALL:
        zone_index, checkpoint, zone_id, metrics_on, seed = wire.decode_install(data)
        spire = restore_zone(
            checkpoint, zone_id, metrics_on, snapshot_from_json(seed) if seed else None
        )
        return (msg_type, zone_index, zone_id, spire, checkpoint)
    if msg_type == wire.MSG_STOP:
        return (msg_type,)
    raise ValueError(f"unknown message type {msg_type}")


def pack_reply(msg_type: int, reply) -> bytes:
    """The reply to a request of ``msg_type``, as bytes."""
    if msg_type == wire.MSG_EPOCH:
        return wire.encode_epoch_batch_result(
            [
                (
                    zone_index,
                    wire.encode_epoch_result(
                        messages, departed, busy_s, checkpoint_s, checkpoint,
                        None if registry is None else snapshot_to_json(registry.snapshot()),
                    ),
                )
                for (
                    zone_index, messages, departed, busy_s, checkpoint_s, checkpoint, registry,
                ) in reply
            ]
        )
    if msg_type == wire.MSG_RELEASE:
        return wire.encode_release_result(
            [(wire.encode_record(record), closing) for record, closing in reply]
        )
    if msg_type == wire.MSG_QUERY:
        return wire.encode_query_result(reply)
    return wire.encode_ok()


def unpack_reply(data: bytes):
    """A packed reply as :meth:`ZoneHost.handle_request` returned it —
    except that a zone's registry arrives as its snapshot.  Raises
    :class:`WorkerError` for :data:`wire.MSG_ERROR`."""
    msg_type = data[0] if data else None
    if msg_type == wire.MSG_EPOCH_RESULT:
        results = []
        # a view, or the per-zone split copies every checkpoint blob once more
        for zone_index, zone_result in wire.decode_epoch_batch_result(memoryview(data)):
            *fields, checkpoint, metrics = wire.decode_epoch_result(zone_result)
            results.append(
                (
                    zone_index,
                    *fields,
                    None if checkpoint is None else bytes(checkpoint),
                    None if metrics is None else snapshot_from_json(bytes(metrics)),
                )
            )
        return results
    if msg_type == wire.MSG_RELEASE_RESULT:
        return [
            (wire.decode_record(record)[0], closing)
            for record, closing in wire.decode_release_result(data)
        ]
    if msg_type == wire.MSG_QUERY_RESULT:
        return wire.decode_query_result(data)
    if msg_type == wire.MSG_ERROR:
        raise WorkerError(data[1:].decode("utf-8", "replace"))
    wire.expect_ok(data)
    return None


# ---------------------------------------------------------------------------
# frames on a stream socket, and the worker's end of one
# ---------------------------------------------------------------------------


def send_frame(sock, payload) -> None:
    """Write one length-prefixed frame: header and payload go out in one
    ``sendmsg``, never concatenated (a reply can be megabytes)."""
    if len(payload) > wire.MAX_FRAME_BYTES:
        raise wire.WireError(f"frame of {len(payload)} bytes exceeds {wire.MAX_FRAME_BYTES}")
    header = wire.FRAME_HEADER.pack(len(payload))
    sent = sock.sendmsg([header, payload])
    if sent < len(header):
        sock.sendall(header[sent:])
        sent = len(header)
    if sent < len(header) + len(payload):
        sock.sendall(memoryview(payload)[sent - len(header) :])


def recv_frame(sock, deadline: float | None = None) -> bytearray:
    """Read one frame at its exact length: the header, then the payload
    into a buffer of the announced size — nothing past the frame is
    taken off the socket.  ``deadline`` (a :func:`time.monotonic` time)
    bounds the whole read: past it ``TimeoutError``; ``EOFError`` when
    the peer hung up; :class:`~repro.distributed.wire.WireError` for a
    header announcing more than ``MAX_FRAME_BYTES``."""
    (length,) = wire.FRAME_HEADER.unpack(_recv_exact(sock, wire.FRAME_HEADER.size, deadline))
    if length > wire.MAX_FRAME_BYTES:
        raise wire.WireError(f"frame of {length} bytes exceeds {wire.MAX_FRAME_BYTES}")
    return _recv_exact(sock, length, deadline)


def _recv_exact(sock, size: int, deadline: float | None) -> bytearray:
    buffer = bytearray(size)
    view = memoryview(buffer)
    got = 0
    while got < size:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError
            sock.settimeout(remaining)
        n = sock.recv_into(view[got:])
        if not n:
            raise EOFError("connection closed by the peer")
        got += n
    return buffer


def serve_connection(sock, host: ZoneHost, name: str) -> bool:
    """A worker's end of one coordinator connection: answer HELLO with
    ``name`` and this pid, PING with PONG, and every other frame with
    ``host``'s reply, FIFO, until the coordinator hangs up, stops it or
    a failure (reported as ``MSG_ERROR``) ends it.  Returns whether it
    ended with ``MSG_STOP``."""
    try:
        while True:
            data = recv_frame(sock)
            msg_type = data[0] if data else 0
            if msg_type == wire.MSG_HELLO:
                reply, done = wire.encode_hello_ack(name, os.getpid()), False
            elif msg_type == wire.MSG_PING:
                reply, done = wire.encode_pong(), False
            else:
                reply, done = host.serve_bytes(data)
            send_frame(sock, reply)
            if done:
                return reply[0] != wire.MSG_ERROR
    except (OSError, EOFError, wire.WireError):
        return False  # the connection is gone, and the zones go with it


# ---------------------------------------------------------------------------
# coordinator-side handles
# ---------------------------------------------------------------------------


class InProcessWorker:
    """The worker that is this process: a request runs when submitted."""

    index = 0
    alive = True
    readable = None  #: the reply exists as soon as the request does

    def __init__(self) -> None:
        self.host = ZoneHost()
        self._replies: deque = deque()

    def submit(self, request: tuple) -> None:
        self._replies.append(self.host.handle_request(request))

    def collect(self):
        return self._replies.popleft()

    def kill(self, warn=None) -> None:
        """Nothing to crash: the zones share the coordinator's fate."""


class SocketWorker:
    """One out-of-process worker: a stream socket to :func:`serve_connection`.

    ``connect()`` returns ``(socket, process)``: the process is the worker
    when this handle owns it (a forked pool child), else ``None`` (a TCP
    daemon is not ours to reap).  Construction completes the HELLO
    handshake within ``deadlines.connect_timeout`` or raises one of
    :data:`LOST_WORKER_ERRORS`.  ``collect()`` raises ``TimeoutError("no
    reply within N s")`` past ``deadlines.request_timeout`` and
    ``EOFError`` when the worker hung up: the zone state belongs to the
    connection, so a broken connection is a lost worker.  ``transport``
    (a :class:`~repro.distributed.supervisor.SupervisorStats`) counts
    requests, replies, deadline misses and deaths.
    """

    host = None
    _given_up: str | None = None  #: why the coordinator gave the worker up

    def __init__(self, index, name, connect, deadlines, transport, observe_rtt=None) -> None:
        self.index = index
        self.name = name
        self.connect = connect
        self.deadlines = deadlines
        self.transport = transport
        #: the pool's byte counters, rebound by the coordinator that owns the pool
        self.stats = WorkerStats()
        self._observe_rtt = observe_rtt
        self._sent: deque[float] = deque()  #: submit times of unanswered requests
        self.sock, self.process = connect()
        try:
            self.sock.settimeout(deadlines.connect_timeout)
            send_frame(self.sock, wire.encode_hello("coordinator"))
            wire.decode_hello_ack(self._recv(deadlines.connect_timeout))
        except BaseException:
            self.kill()
            raise

    @property
    def alive(self) -> bool:
        running = self.process is None or self.process.is_alive()
        return self._given_up is None and self.sock.fileno() >= 0 and running

    @property
    def readable(self):
        return None if self.sock.fileno() < 0 else self.sock

    @property
    def death_reason(self) -> str:
        if self._given_up is None and self.process is not None and not self.process.is_alive():
            return f"process exited with code {self.process.exitcode}"
        return self._given_up or "connection closed by the coordinator"

    def _recv(self, timeout: float) -> bytearray:
        """The next frame, within ``timeout`` seconds."""
        try:
            data = recv_frame(self.sock, time.monotonic() + timeout)
        except TimeoutError:
            self.transport.timeouts += 1
            raise TimeoutError(f"no reply within {timeout:g} s") from None
        self.last_activity = time.monotonic()
        return data

    def submit(self, request: tuple) -> None:
        payload = pack_request(request)
        self.sock.settimeout(self.deadlines.request_timeout)
        send_frame(self.sock, payload)
        self._sent.append(time.monotonic())
        self.transport.requests += 1
        self.stats.bytes_to_workers += len(payload)

    def collect(self):
        data = self._recv(self.deadlines.request_timeout)
        sent = self._sent.popleft()
        self.transport.replies += 1
        if self._observe_rtt is not None:
            self._observe_rtt(self.last_activity - sent)
        self.stats.bytes_from_workers += len(data)
        try:
            return unpack_reply(data)
        except (struct.error, ValueError) as exc:
            # truncated frames, bad message blocks, tag keys or metrics:
            # whatever does not decode is a wire error, which the
            # coordinator counts as the worker's loss
            raise wire.WireError(str(exc)) from exc

    # supervision probes of the TCP pool, between requests

    def check_eof(self) -> None:
        """Raise ``EOFError`` if the worker hung up; never blocks."""
        if select.select([self.sock], [], [], 0)[0]:
            if self.sock.recv(1):
                raise wire.WireError("unsolicited bytes from an idle worker")
            raise EOFError("connection closed by worker")

    def ping(self) -> None:
        """One heartbeat: the PONG must be back within the request deadline."""
        self.sock.settimeout(self.deadlines.request_timeout)
        send_frame(self.sock, wire.encode_ping())
        if self._recv(self.deadlines.request_timeout) != wire.encode_pong():
            raise wire.WireError("expected PONG")

    def kill(self, warn=None) -> None:
        """Let go of the worker: close the socket, after stopping a
        process this handle owns.  ``terminate`` (SIGTERM) can be absorbed
        by a worker wedged in uninterruptible I/O, so SIGKILL follows; a
        process that survives both is reported to ``warn`` (a ``detail ->
        None`` callable), so the leak lands in the quarantine."""
        process = self.process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=5)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
            if process.is_alive() and warn is not None:
                warn(
                    f"worker {self.index} (pid {process.pid}) survived "
                    "terminate and kill; leaking it as a zombie"
                )
        self.sock.close()

    def abandon(self, reason: str, warn=None) -> None:
        """The coordinator gives this worker up, and lets go of it now."""
        if self._given_up is None:
            self._given_up = reason
            self.transport.worker_deaths += 1
        self.kill(warn)

    def respawn(self) -> "SocketWorker | None":
        """A fresh worker in the same slot — a new process, or a new
        connection to the same daemon — or ``None`` when it does not
        answer HELLO (the lost worker's zones then go to the survivors)."""
        try:
            return SocketWorker(
                self.index, self.name, self.connect, self.deadlines,
                self.transport, self._observe_rtt,
            )
        except LOST_WORKER_ERRORS:
            return None
