"""Wire protocol between the coordinator and its zone workers.

Every request and reply is one length-prefixed frame on a stream socket
— one end of a socket pair for a pool worker process, a TCP connection
for a worker daemon; :mod:`repro.distributed.worker` writes and reads
them.  This module is their one codec: :func:`encode_request` /
:func:`decode_request` and :func:`encode_reply` / :func:`decode_reply`
take and return the tuples that
:meth:`~repro.distributed.worker.ZoneHost.handle_request` takes and
returns, and each is the one place its direction and side branch on the
message type.  The first byte of a payload is the message type; the
layouts (DESIGN.md §9) are plain ``struct`` packing over the existing
compact codecs — epoch frames from :mod:`repro.readers.codec`,
event-message blocks from :mod:`repro.events.codec`, and checkpoint
blobs from :mod:`repro.core.checkpoint` — so nothing on the per-epoch
hot path goes through :mod:`pickle`.

Decoding is strict, because a payload is input from another process or
host: every length field is checked against the bytes left, and a
payload must be consumed exactly.  Whatever does not decode — truncated,
trailing bytes, an unknown type, a bad tag key, message block,
checkpoint or metrics snapshot — raises :class:`WireError`.

The protocol is strictly request/response per worker: the coordinator may
pipeline requests to different workers, but each worker consumes its
connection in FIFO order and answers every request exactly once.  That invariant is
what lets the fan-in loop take replies in whatever order the workers
finish and still know which request each one answers.

Zones are addressed by a dense index assigned at startup (the sorted
position of the zone id), not by their string ids — 4 bytes instead of a
length-prefixed string on every message.
"""

from __future__ import annotations

import struct

from repro.core.checkpoint import dumps_spire, loads_spire
from repro.core.pipeline import Spire
from repro.events.codec import decode_stream, encode_stream
from repro.model.objects import TagId
from repro.obs.metrics import MetricRegistry, snapshot_from_json, snapshot_to_json
from repro.readers.codec import decode_epoch_frame, encode_epoch_frame

# ---------------------------------------------------------------------------
# message types (first byte of every frame)
# ---------------------------------------------------------------------------

MSG_INSTALL = 1  #: coordinator -> worker: full substrate state for a zone
MSG_EPOCH = 2  #: coordinator -> worker: the epoch's shares for all its zones
MSG_RELEASE = 3  #: coordinator -> worker: release migrating tags from a zone
MSG_ADOPT = 4  #: coordinator -> worker: adopt handoff records into a zone
MSG_QUERY = 5  #: coordinator -> worker: point query against a zone
MSG_STOP = 6  #: coordinator -> worker: shut down cleanly

MSG_OK = 64  #: worker -> coordinator: generic acknowledgement
MSG_EPOCH_RESULT = 65  #: worker -> coordinator: messages/departures/stats
MSG_RELEASE_RESULT = 66  #: worker -> coordinator: records + closing messages
MSG_QUERY_RESULT = 67  #: worker -> coordinator: one signed query answer
MSG_ERROR = 127  #: worker -> coordinator: traceback text (worker is dead)

# connection traffic: the handshake that opens every worker connection, and
# the TCP pool's lease heartbeat (see :mod:`repro.distributed.supervisor`).
# Everything else is the messages above, one per frame, as is
MSG_HELLO = 16  #: coordinator -> worker: identify + open a connection
MSG_HELLO_ACK = 80  #: worker -> coordinator: worker pid and name
MSG_PING = 17  #: coordinator -> worker: lease heartbeat probe
MSG_PONG = 81  #: worker -> coordinator: heartbeat answer

#: queries routed by :data:`MSG_QUERY`
QUERY_LOCATION = 1
QUERY_CONTAINER = 2

#: sentinel for "no value" in signed slots (colors can be -1, so 0 and -1
#: are both taken; this mirrors the fast-checkpoint codec's convention)
NONE_SENTINEL = -(1 << 62)

# payload layouts: each struct below, and DESIGN.md §9's table of them

_TYPE = struct.Struct("<B")
_HEADER = struct.Struct("<BI")  # type, then a zone index, count or length
_QUERY_HEADER = struct.Struct("<BIBQ")  # type, zone index, query kind, tag key
_HANDOFF_HEADER = struct.Struct("<BIqI")  # type, zone index, now, n tags or records
_QUERY_RESULT = struct.Struct("<Bq")  # type, answer
_U32 = struct.Struct("<I")

_BATCH_ENTRY = struct.Struct("<IBI")  # zone index, flags, frame length
_ZONE_RESULT = struct.Struct("<II")  # zone index, result length

#: install header: type, zone index, flags, zone id length, metrics-seed
#: length (the zone id and seed follow; the checkpoint blob is the remainder)
_INSTALL_HEADER = struct.Struct("<BIBHI")

#: flag bits on MSG_INSTALL
FLAG_METRICS = 1  #: worker must attach a zone-labelled metric registry

#: flag bits on MSG_EPOCH
FLAG_CHECKPOINT = 1  #: checkpoint the zone after processing this epoch

#: one handoff record (see ``Spire.release``): tag key, recent color,
#: seen_at, confirmed parent key (0 = none), confirmed_at, conflicts
_RECORD = struct.Struct("<QqqQqq")

#: epoch-result stats: busy seconds, checkpoint seconds
_RESULT_STATS = struct.Struct("<dd")


class WireError(RuntimeError):
    """Raised on malformed frames or a worker-reported failure."""


class WorkerError(WireError):
    """A worker answered :data:`MSG_ERROR`: the text is its traceback
    and, by contract, its resident zone state is gone."""


# ---------------------------------------------------------------------------
# byte-stream framing
# ---------------------------------------------------------------------------
#
# A 4-byte length prefix per frame.  Worker connections read a frame at its
# exact length (``repro.distributed.worker.recv_frame``); the serving tier
# splits whatever chunks arrive with :class:`FrameDecoder`.

FRAME_HEADER = struct.Struct("<I")

#: refuse absurd frames rather than buffering an attacker-controlled length
MAX_FRAME_BYTES = 64 * 1024 * 1024


def check_frame_length(length: int) -> None:
    """The one frame-length rule, for every writer and reader of frames:
    a payload of more than ``MAX_FRAME_BYTES`` is a :class:`WireError`."""
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")


def encode_frame(payload: bytes) -> bytes:
    """Length-prefix one payload for a byte-stream transport."""
    check_frame_length(len(payload))
    return FRAME_HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental splitter for length-prefixed frames.

    ``feed`` absorbs whatever chunk the transport produced (frames may be
    split or coalesced arbitrarily) and returns the payloads completed so
    far, in order.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> list[bytes]:
        self._buffer.extend(chunk)
        frames: list[bytes] = []
        while True:
            if len(self._buffer) < FRAME_HEADER.size:
                return frames
            (length,) = FRAME_HEADER.unpack_from(self._buffer)
            check_frame_length(length)
            end = FRAME_HEADER.size + length
            if len(self._buffer) < end:
                return frames
            frames.append(bytes(self._buffer[FRAME_HEADER.size : end]))
            del self._buffer[:end]


class _Payload:
    """One payload, read front to back: a read past its end, or bytes left
    over at :meth:`end`, is a :class:`WireError`."""

    __slots__ = ("view", "offset")

    def __init__(self, data) -> None:
        self.view = memoryview(data)
        self.offset = 0

    def take(self, size: int) -> memoryview:
        """The next ``size`` bytes, which must be in the payload."""
        start = self.offset
        left = len(self.view) - start
        if size > left:
            raise WireError(f"truncated frame: {size} bytes wanted at offset {start}, {left} left")
        self.offset = start + size
        return self.view[start : self.offset]

    def unpack(self, layout: struct.Struct) -> tuple:
        return layout.unpack(self.take(layout.size))

    def sized(self) -> memoryview:
        """A block behind its 4-byte length."""
        (size,) = self.unpack(_U32)
        return self.take(size)

    def tags(self, count: int) -> list[TagId]:
        keys = struct.unpack(f"<{count}Q", self.take(8 * count))
        return [TagId.from_key(key) for key in keys]

    def end(self) -> None:
        left = len(self.view) - self.offset
        if left:
            raise WireError(f"{left} trailing bytes after the frame")


def _encode_record(record: dict) -> bytes:
    """Pack one ``Spire.release`` handoff record."""
    tag: TagId = record["tag"]
    recent = record.get("recent_color")
    confirmed = record.get("confirmed_parent")
    return _RECORD.pack(
        tag.key(),
        NONE_SENTINEL if recent is None else recent,
        record.get("seen_at", 0),
        0 if confirmed is None else confirmed.key(),
        record.get("confirmed_at", -1),
        record.get("confirmed_conflicts", 0),
    )


def _decode_record(tag_key, recent, seen_at, confirmed_key, confirmed_at, conflicts) -> dict:
    """One handoff record from its unpacked :data:`_RECORD` fields."""
    return {
        "tag": TagId.from_key(tag_key),
        "recent_color": None if recent == NONE_SENTINEL else recent,
        "seen_at": seen_at,
        "confirmed_parent": None if confirmed_key == 0 else TagId.from_key(confirmed_key),
        "confirmed_at": confirmed_at,
        "confirmed_conflicts": conflicts,
    }


# ---------------------------------------------------------------------------
# requests and replies: the one codec
# ---------------------------------------------------------------------------


def encode_request(request: tuple) -> bytes:
    """The payload of one :meth:`~repro.distributed.worker.ZoneHost.
    handle_request` request tuple.  An install ships the substrate's
    checkpoint — ``blob`` when the sender has it, else encoded here —
    and, when the substrate has a registry, its snapshot as the seed of
    the worker's own (checkpoints never carry registries, so the seed is
    what keeps counter totals across recovery installs)."""
    msg_type = request[0]
    if msg_type == MSG_EPOCH:
        parts = [_HEADER.pack(MSG_EPOCH, len(request[1]))]
        for zone_index, flags, readings in request[1]:
            frame = encode_epoch_frame(readings)
            parts += (_BATCH_ENTRY.pack(zone_index, flags, len(frame)), frame)
        return b"".join(parts)
    if msg_type in (MSG_RELEASE, MSG_ADOPT):
        _, zone_index, now, items = request  # tags to release, records to adopt
        head = _HANDOFF_HEADER.pack(msg_type, zone_index, now, len(items))
        if msg_type == MSG_RELEASE:
            return head + struct.pack(f"<{len(items)}Q", *(tag.key() for tag in items))
        return head + b"".join(_encode_record(record) for record in items)
    if msg_type == MSG_QUERY:
        _, zone_index, kind, tag = request
        return _QUERY_HEADER.pack(MSG_QUERY, zone_index, kind, tag.key())
    if msg_type == MSG_INSTALL:
        _, zone_index, zone_id, spire, blob = request
        registry = spire.metrics
        zone_bytes = zone_id.encode("utf-8")
        seed = b"" if registry is None else snapshot_to_json(registry.snapshot())
        flags = 0 if registry is None else FLAG_METRICS
        return b"".join(
            (
                _INSTALL_HEADER.pack(MSG_INSTALL, zone_index, flags, len(zone_bytes), len(seed)),
                zone_bytes,
                seed,
                dumps_spire(spire) if blob is None else blob,
            )
        )
    if msg_type == MSG_STOP:
        return _TYPE.pack(MSG_STOP)
    raise ValueError(f"unknown message type {msg_type}")


def decode_request(data) -> tuple:
    """The request tuple an :func:`encode_request` payload carries; an
    install's substrate is restored from its checkpoint (see
    :func:`restore_zone`).  Raises :class:`WireError` for anything that
    does not decode."""
    payload = _Payload(data)
    msg_type = data[0] if len(data) else None
    try:
        if msg_type == MSG_EPOCH:
            _, count = payload.unpack(_HEADER)
            entries = []
            for _ in range(count):
                zone_index, flags, size = payload.unpack(_BATCH_ENTRY)
                readings, end = decode_epoch_frame(payload.take(size))
                if end != size:
                    raise WireError(f"{size - end} trailing bytes after an epoch frame")
                entries.append((zone_index, flags, readings))
            request = (msg_type, entries)
        elif msg_type in (MSG_RELEASE, MSG_ADOPT):
            _, zone_index, now, count = payload.unpack(_HANDOFF_HEADER)
            if msg_type == MSG_RELEASE:
                items = payload.tags(count)
            else:
                records = _RECORD.iter_unpack(payload.take(count * _RECORD.size))
                items = [_decode_record(*fields) for fields in records]
            request = (msg_type, zone_index, now, items)
        elif msg_type == MSG_QUERY:
            _, zone_index, kind, tag_key = payload.unpack(_QUERY_HEADER)
            request = (msg_type, zone_index, kind, TagId.from_key(tag_key))
        elif msg_type == MSG_INSTALL:
            _, zone_index, flags, zone_len, seed_len = payload.unpack(_INSTALL_HEADER)
            zone_id = str(payload.take(zone_len), "utf-8")
            seed = snapshot_from_json(bytes(payload.take(seed_len))) if seed_len else None
            checkpoint = bytes(payload.take(len(payload.view) - payload.offset))
            spire = restore_zone(checkpoint, zone_id, bool(flags & FLAG_METRICS), seed)
            request = (msg_type, zone_index, zone_id, spire, checkpoint)
        elif msg_type == MSG_STOP:
            payload.unpack(_TYPE)
            request = (msg_type,)
        else:
            raise WireError(f"unknown request type {msg_type}")
        payload.end()
    except WireError:
        raise
    except Exception as exc:  # whatever the bytes make a decoder raise
        raise WireError(str(exc)) from exc
    return request


def encode_reply(msg_type: int, reply) -> bytes:
    """The payload of ``reply``, which ``handle_request`` returned for a
    request of ``msg_type``; a zone's registry travels as its snapshot."""
    if msg_type == MSG_EPOCH:
        parts = [_HEADER.pack(MSG_EPOCH_RESULT, len(reply))]
        for zone_index, messages, departed, busy_s, checkpoint_s, checkpoint, registry in reply:
            block = encode_stream(messages)
            checkpoint = checkpoint or b""
            metrics = b"" if registry is None else snapshot_to_json(registry.snapshot())
            result = (
                _HEADER.pack(MSG_EPOCH_RESULT, len(block)),
                block,
                _U32.pack(len(departed)),
                struct.pack(f"<{len(departed)}Q", *(tag.key() for tag in departed)),
                _RESULT_STATS.pack(busy_s, checkpoint_s),
                _U32.pack(len(checkpoint)),
                checkpoint,
                _U32.pack(len(metrics)),
                metrics,
            )
            parts.append(_ZONE_RESULT.pack(zone_index, sum(map(len, result))))
            parts += result
        return b"".join(parts)
    if msg_type == MSG_RELEASE:
        parts = [_HEADER.pack(MSG_RELEASE_RESULT, len(reply))]
        for record, closing in reply:
            block = encode_stream(closing)
            parts += (_encode_record(record), _U32.pack(len(block)), block)
        return b"".join(parts)
    if msg_type == MSG_QUERY:
        return _QUERY_RESULT.pack(MSG_QUERY_RESULT, reply)
    return _TYPE.pack(MSG_OK)


def encode_error(traceback_text: str) -> bytes:
    """The reply of a worker whose request failed (its state is gone)."""
    return _TYPE.pack(MSG_ERROR) + traceback_text.encode("utf-8")


def decode_reply(data):
    """The reply :func:`encode_reply` wrote, as ``handle_request``
    returned it — except that a zone's registry arrives as its snapshot.
    Raises :class:`WorkerError` for :data:`MSG_ERROR` and
    :class:`WireError` for anything that does not decode."""
    payload = _Payload(data)
    msg_type = data[0] if len(data) else None
    try:
        if msg_type == MSG_EPOCH_RESULT:
            _, count = payload.unpack(_HEADER)
            reply = []
            for _ in range(count):
                zone_index, size = payload.unpack(_ZONE_RESULT)
                result = _Payload(payload.take(size))
                result_type, block_size = result.unpack(_HEADER)
                if result_type != MSG_EPOCH_RESULT:
                    raise WireError(f"zone result of type {result_type}")
                messages = decode_stream(result.take(block_size))
                departed = result.tags(*result.unpack(_U32))
                busy_s, checkpoint_s = result.unpack(_RESULT_STATS)
                checkpoint = bytes(result.sized()) or None
                metrics = bytes(result.sized())
                result.end()
                reply.append(
                    (
                        zone_index, messages, departed, busy_s, checkpoint_s, checkpoint,
                        snapshot_from_json(metrics) if metrics else None,
                    )
                )
        elif msg_type == MSG_RELEASE_RESULT:
            _, count = payload.unpack(_HEADER)
            reply = []
            for _ in range(count):
                record = _decode_record(*payload.unpack(_RECORD))
                reply.append((record, decode_stream(payload.sized())))
        elif msg_type == MSG_QUERY_RESULT:
            _, reply = payload.unpack(_QUERY_RESULT)
        elif msg_type == MSG_OK:
            payload.unpack(_TYPE)
            reply = None
        elif msg_type == MSG_ERROR:
            raise WorkerError(str(payload.view[1:], "utf-8", "replace"))
        else:
            raise WireError(f"unknown reply type {msg_type}")
        payload.end()
    except WireError:
        raise
    except Exception as exc:  # whatever the bytes make a decoder raise
        raise WireError(str(exc)) from exc
    return reply


def restore_zone(checkpoint: bytes, zone_id: str, metrics: bool, seed: dict | None) -> Spire:
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
# connection traffic
# ---------------------------------------------------------------------------

_HELLO_ACK = struct.Struct("<Bq")  # type, worker pid
PING = bytes([MSG_PING])  #: the lease heartbeat probe, whole
PONG = bytes([MSG_PONG])  #: its answer


def encode_hello(name: str) -> bytes:
    """Coordinator's connection opener: identifies the supervisor."""
    return bytes([MSG_HELLO]) + name.encode("utf-8")


def encode_hello_ack(name: str, pid: int) -> bytes:
    """Worker's handshake answer: its pid and name."""
    return _HELLO_ACK.pack(MSG_HELLO_ACK, pid) + name.encode("utf-8")


def decode_hello_ack(data: bytes) -> tuple[str, int]:
    """Returns (worker name, pid); anything else is a :class:`WireError`."""
    if not data or data[0] != MSG_HELLO_ACK:
        raise WireError(f"expected HELLO_ACK, got message type {data[0] if data else None}")
    try:
        _, pid = _HELLO_ACK.unpack_from(data)
        return data[_HELLO_ACK.size :].decode("utf-8"), pid
    except (struct.error, UnicodeDecodeError) as exc:
        raise WireError(f"malformed HELLO_ACK: {exc}") from exc
