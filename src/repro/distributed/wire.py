"""Wire protocol between the parallel coordinator and its zone workers.

Every request and reply is one length-prefixed frame on a stream socket
— one end of a socket pair for a pool worker process, a TCP connection
for a worker daemon; :mod:`repro.distributed.worker` writes and reads
them.  The first byte is the
message type; the payload layouts below are plain ``struct`` packing
over the existing compact codecs —
epoch frames from :mod:`repro.readers.codec`, event-message blocks from
:mod:`repro.events.codec`, and checkpoint blobs from
:mod:`repro.core.checkpoint` — so nothing on the per-epoch hot path goes
through :mod:`pickle`.

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

from repro.events.codec import decode_stream, encode_stream
from repro.events.messages import EventMessage
from repro.model.objects import TagId

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

_HEADER = struct.Struct("<BI")  # type, zone index
_QUERY_HEADER = struct.Struct("<BIBQ")  # type, zone index, query kind, tag key
_RELEASE_HEADER = struct.Struct("<BIqI")  # type, zone index, now, n tags
_ADOPT_HEADER = struct.Struct("<BIqI")  # type, zone index, now, n records
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")

#: flag bits on MSG_EPOCH
FLAG_CHECKPOINT = 1  #: checkpoint the zone after processing this epoch

#: one handoff record (see ``Spire.release``): tag key, recent color,
#: seen_at, confirmed parent key (0 = none), confirmed_at, conflicts
_RECORD = struct.Struct("<QqqQqq")

#: epoch-result stats: busy seconds, checkpoint seconds
_RESULT_STATS = struct.Struct("<dd")


class WireError(RuntimeError):
    """Raised on malformed frames or a worker-reported failure."""


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


def encode_frame(payload: bytes) -> bytes:
    """Length-prefix one payload for a byte-stream transport."""
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
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
            if length > MAX_FRAME_BYTES:
                raise WireError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
            end = FRAME_HEADER.size + length
            if len(self._buffer) < end:
                return frames
            frames.append(bytes(self._buffer[FRAME_HEADER.size : end]))
            del self._buffer[:end]


def _expect(data: bytes, msg_type: int) -> None:
    if not data or data[0] != msg_type:
        got = data[0] if data else None
        raise WireError(f"expected message type {msg_type}, got {got}")


# ---------------------------------------------------------------------------
# handoff records
# ---------------------------------------------------------------------------


def encode_record(record: dict) -> bytes:
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


def decode_record(data: bytes, offset: int = 0) -> tuple[dict, int]:
    """Unpack one handoff record; returns (record, next offset)."""
    tag_key, recent, seen_at, confirmed_key, confirmed_at, conflicts = _RECORD.unpack_from(
        data, offset
    )
    record = {
        "tag": TagId.from_key(tag_key),
        "recent_color": None if recent == NONE_SENTINEL else recent,
        "seen_at": seen_at,
        "confirmed_parent": None if confirmed_key == 0 else TagId.from_key(confirmed_key),
        "confirmed_at": confirmed_at,
        "confirmed_conflicts": conflicts,
    }
    return record, offset + _RECORD.size


# ---------------------------------------------------------------------------
# coordinator -> worker requests
# ---------------------------------------------------------------------------


#: install payload header after the common header: flags, zone id length,
#: metrics-seed length (the checkpoint blob is the remainder)
_INSTALL_EXTRA = struct.Struct("<BHI")

#: flag bits on MSG_INSTALL
FLAG_METRICS = 1  #: worker must attach a zone-labelled metric registry


def encode_install(
    zone_index: int,
    checkpoint: bytes,
    zone_id: str = "",
    metrics: bool = False,
    metrics_seed: bytes = b"",
) -> bytes:
    """Ship a zone substrate to its worker.

    ``metrics=True`` directs the worker to attach a registry labelled
    ``zone=zone_id`` and to snapshot it into every epoch reply;
    ``metrics_seed`` (a JSON snapshot) pre-loads the registry so counter
    totals survive recovery installs — checkpoints never carry
    registries themselves.
    """
    zone_bytes = zone_id.encode("utf-8")
    flags = FLAG_METRICS if metrics else 0
    return (
        _HEADER.pack(MSG_INSTALL, zone_index)
        + _INSTALL_EXTRA.pack(flags, len(zone_bytes), len(metrics_seed))
        + zone_bytes
        + metrics_seed
        + checkpoint
    )


def decode_install(data: bytes) -> tuple[int, bytes, str, bool, bytes]:
    """Returns (zone index, checkpoint, zone id, metrics enabled, seed)."""
    _, zone_index = _HEADER.unpack_from(data)
    offset = _HEADER.size
    flags, zone_len, seed_len = _INSTALL_EXTRA.unpack_from(data, offset)
    offset += _INSTALL_EXTRA.size
    zone_id = data[offset : offset + zone_len].decode("utf-8")
    offset += zone_len
    seed = data[offset : offset + seed_len]
    offset += seed_len
    return zone_index, data[offset:], zone_id, bool(flags & FLAG_METRICS), seed


_BATCH_ENTRY = struct.Struct("<IBI")  # zone index, flags, frame length


def encode_epoch_batch(entries: list[tuple[int, int, bytes]]) -> bytes:
    """One epoch for *all* of a worker's zones: ``(zone_index, flags,
    epoch frame)`` per entry.  A single round trip per worker per
    epoch instead of one per zone."""
    parts = [bytes([MSG_EPOCH]), _U32.pack(len(entries))]
    for zone_index, flags, frame in entries:
        parts.append(_BATCH_ENTRY.pack(zone_index, flags, len(frame)))
        parts.append(frame)
    return b"".join(parts)


def decode_epoch_batch(data: bytes) -> list[tuple[int, int, bytes]]:
    offset = 1
    (count,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    entries = []
    for _ in range(count):
        zone_index, flags, frame_len = _BATCH_ENTRY.unpack_from(data, offset)
        offset += _BATCH_ENTRY.size
        entries.append((zone_index, flags, data[offset : offset + frame_len]))
        offset += frame_len
    return entries


def encode_epoch_batch_result(results: list[tuple[int, bytes]]) -> bytes:
    """Per zone (request order): its :func:`encode_epoch_result` bytes."""
    parts = [bytes([MSG_EPOCH_RESULT]), _U32.pack(len(results))]
    for zone_index, result in results:
        parts.append(_U32.pack(zone_index))
        parts.append(_U32.pack(len(result)))
        parts.append(result)
    return b"".join(parts)


def decode_epoch_batch_result(data: bytes) -> list[tuple[int, bytes]]:
    _expect(data, MSG_EPOCH_RESULT)
    offset = 1
    (count,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    results = []
    for _ in range(count):
        (zone_index,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        (result_len,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        results.append((zone_index, data[offset : offset + result_len]))
        offset += result_len
    return results


def encode_release(zone_index: int, now: int, tags: list[TagId]) -> bytes:
    head = _RELEASE_HEADER.pack(MSG_RELEASE, zone_index, now, len(tags))
    return head + struct.pack(f"<{len(tags)}Q", *(tag.key() for tag in tags))


def decode_release(data: bytes) -> tuple[int, int, list[TagId]]:
    _, zone_index, now, n_tags = _RELEASE_HEADER.unpack_from(data)
    keys = struct.unpack_from(f"<{n_tags}Q", data, _RELEASE_HEADER.size)
    return zone_index, now, [TagId.from_key(key) for key in keys]


def encode_adopt(zone_index: int, now: int, records: list[bytes]) -> bytes:
    head = _ADOPT_HEADER.pack(MSG_ADOPT, zone_index, now, len(records))
    return head + b"".join(records)


def decode_adopt(data: bytes) -> tuple[int, int, list[dict]]:
    _, zone_index, now, n_records = _ADOPT_HEADER.unpack_from(data)
    records = []
    offset = _ADOPT_HEADER.size
    for _ in range(n_records):
        record, offset = decode_record(data, offset)
        records.append(record)
    return zone_index, now, records


def encode_query(zone_index: int, kind: int, tag: TagId) -> bytes:
    return _QUERY_HEADER.pack(MSG_QUERY, zone_index, kind, tag.key())


def decode_query(data: bytes) -> tuple[int, int, TagId]:
    _, zone_index, kind, tag_key = _QUERY_HEADER.unpack_from(data)
    return zone_index, kind, TagId.from_key(tag_key)


def encode_stop() -> bytes:
    return bytes([MSG_STOP])


# ---------------------------------------------------------------------------
# worker -> coordinator replies
# ---------------------------------------------------------------------------


def encode_ok() -> bytes:
    return bytes([MSG_OK])


def expect_ok(data: bytes) -> None:
    _expect(data, MSG_OK)


def encode_error(traceback_text: str) -> bytes:
    return bytes([MSG_ERROR]) + traceback_text.encode("utf-8")


def encode_epoch_result(
    messages: list[EventMessage],
    departed: list[TagId],
    busy_s: float,
    checkpoint_s: float,
    checkpoint: bytes | None,
    metrics: bytes | None = None,
) -> bytes:
    """``metrics`` is the zone registry's cumulative JSON snapshot (only
    present when the install enabled telemetry for the zone)."""
    message_block = encode_stream(messages)
    parts = [
        bytes([MSG_EPOCH_RESULT]),
        _U32.pack(len(message_block)),
        message_block,
        _U32.pack(len(departed)),
        struct.pack(f"<{len(departed)}Q", *(tag.key() for tag in departed)),
        _RESULT_STATS.pack(busy_s, checkpoint_s),
        _U32.pack(0 if checkpoint is None else len(checkpoint)),
        checkpoint or b"",
        _U32.pack(0 if metrics is None else len(metrics)),
        metrics or b"",
    ]
    return b"".join(parts)


def decode_epoch_result(
    data: bytes,
) -> tuple[list[EventMessage], list[TagId], float, float, bytes | None, bytes | None]:
    _expect(data, MSG_EPOCH_RESULT)
    offset = 1
    (n_bytes,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    messages = decode_stream(data[offset : offset + n_bytes])
    offset += n_bytes
    (n_departed,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    departed_keys = struct.unpack_from(f"<{n_departed}Q", data, offset)
    offset += 8 * n_departed
    busy_s, checkpoint_s = _RESULT_STATS.unpack_from(data, offset)
    offset += _RESULT_STATS.size
    (ckpt_len,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    checkpoint = data[offset : offset + ckpt_len] if ckpt_len else None
    offset += ckpt_len
    (metrics_len,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    metrics = data[offset : offset + metrics_len] if metrics_len else None
    departed = [TagId.from_key(key) for key in departed_keys]
    return messages, departed, busy_s, checkpoint_s, checkpoint, metrics


def encode_release_result(releases: list[tuple[bytes, list[EventMessage]]]) -> bytes:
    """Per released tag (in request order): its record and closing messages."""
    parts = [bytes([MSG_RELEASE_RESULT]), _U32.pack(len(releases))]
    for record, closing in releases:
        block = encode_stream(closing)
        parts.append(record)
        parts.append(_U32.pack(len(block)))
        parts.append(block)
    return b"".join(parts)


def decode_release_result(data: bytes) -> list[tuple[bytes, list[EventMessage]]]:
    _expect(data, MSG_RELEASE_RESULT)
    offset = 1
    (count,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    releases: list[tuple[bytes, list[EventMessage]]] = []
    for _ in range(count):
        record = data[offset : offset + _RECORD.size]
        offset += _RECORD.size
        (block_len,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        closing = decode_stream(data[offset : offset + block_len])
        offset += block_len
        releases.append((record, closing))
    return releases


def encode_query_result(value: int) -> bytes:
    return bytes([MSG_QUERY_RESULT]) + _I64.pack(value)


def decode_query_result(data: bytes) -> int:
    _expect(data, MSG_QUERY_RESULT)
    (value,) = _I64.unpack_from(data, 1)
    return value


# ---------------------------------------------------------------------------
# connection traffic
# ---------------------------------------------------------------------------

_HELLO_ACK = struct.Struct("<Bq")  # type, worker pid


def encode_hello(name: str) -> bytes:
    """Coordinator's connection opener: identifies the supervisor."""
    return bytes([MSG_HELLO]) + name.encode("utf-8")


def encode_hello_ack(name: str, pid: int) -> bytes:
    """Worker's handshake answer: its pid and name."""
    return _HELLO_ACK.pack(MSG_HELLO_ACK, pid) + name.encode("utf-8")


def decode_hello_ack(data: bytes) -> tuple[str, int]:
    """Returns (worker name, pid); anything else is a :class:`WireError`."""
    _expect(data, MSG_HELLO_ACK)
    try:
        _, pid = _HELLO_ACK.unpack_from(data)
        return data[_HELLO_ACK.size :].decode("utf-8"), pid
    except (struct.error, UnicodeDecodeError) as exc:
        raise WireError(f"malformed HELLO_ACK: {exc}") from exc


def encode_ping() -> bytes:
    return bytes([MSG_PING])


def encode_pong() -> bytes:
    return bytes([MSG_PONG])
