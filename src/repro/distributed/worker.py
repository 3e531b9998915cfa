"""Zone workers: the resident-state core and the handles that reach it.

A *worker* hosts some of the site's zone substrates and serves the
coordinator's requests against them, strictly FIFO: install a zone,
process an epoch for all hosted zones, release or adopt migrating tags,
answer a point query, stop.  :class:`ZoneHost` is that core — the one
place a zone's :class:`~repro.core.pipeline.Spire` is driven — and
:meth:`ZoneHost.handle_request` its only entry point.

The coordinator talks to a *handle* with two methods, ``submit(request)``
and ``collect()`` (the reply to the oldest unanswered request).  Requests
and replies are the plain tuples of :meth:`ZoneHost.handle_request`:

* :class:`InProcessWorker` owns a host in this process and calls it with
  the request as is — nothing is encoded;
* :class:`WireWorker` is the shared half of every out-of-process handle:
  it packs the request into the :mod:`repro.distributed.wire` layouts,
  moves bytes through the subclass's ``send_bytes`` / ``recv_bytes``
  (a pipe in :mod:`repro.distributed.parallel`, a TCP connection in
  :mod:`repro.distributed.supervisor`), and unpacks the
  reply.  The far side unpacks, calls ``handle_request``, packs.

Beyond submit/collect a handle provides ``alive`` (checked at every
epoch boundary: a worker that is not is lost, and its zones are rebuilt
at a live home), ``death_reason`` (why, once it is not), ``host`` (the
resident :class:`ZoneHost` when the worker is this process, else
``None``), ``kill(warn)`` (crash it, or let go of what is left of it),
``abandon(reason, warn)`` (the coordinator gives the worker up),
``respawn()`` (a fresh worker for the same slot — where a lost worker's
zones are rebuilt — or ``None`` when none is to be had, a daemon that
does not answer, and they move in with the survivors) and ``readable`` (what
:func:`multiprocessing.connection.wait` watches for the next reply, or
``None`` when ``collect()`` should simply be called where the handle
stands: in process, over TCP, or with nothing left to watch).  A handle may lose a request or its reply only
together with the worker: the coordinator logs every state-changing
request before submitting it and replays the log through a
:class:`ZoneHost` of its own when the worker is gone, so
``handle_request`` must stay a function of the resident state and the
request alone.
"""

from __future__ import annotations

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
            f"bytes over pipes        {self.bytes_to_workers} out / "
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


class WireWorker:
    """submit/collect over a subclass's ``send_bytes`` / ``recv_bytes``."""

    host = None
    readable = None
    #: the pool's byte counters; bound by the coordinator that owns the pool
    stats: WorkerStats

    def submit(self, request: tuple) -> None:
        payload = pack_request(request)
        self.send_bytes(payload)
        self.stats.bytes_to_workers += len(payload)

    def collect(self):
        data = self.recv_bytes()
        self.stats.bytes_from_workers += len(data)
        try:
            return unpack_reply(data)
        except (struct.error, ValueError) as exc:
            # truncated frames, bad message blocks, tag keys or metrics:
            # whatever does not decode is a wire error, which the
            # coordinator counts as the worker's loss
            raise wire.WireError(str(exc)) from exc
