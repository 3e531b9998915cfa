"""Binary protocol of the serving front-end.

Every message is one length-prefixed frame
(:func:`repro.distributed.wire.encode_frame` /
:class:`~repro.distributed.wire.FrameDecoder`); payloads are plain
``struct`` packing in the style of the coordinator↔worker wire protocol,
and tag/none conventions are shared with it
(:data:`~repro.distributed.wire.NONE_SENTINEL`, tag key 0 = no tag).

Client → server payloads start with ``op(1) | request_id(4)``; the server
answers every request with exactly one reply frame carrying the same
request id, so a client may pipeline requests.  Subscription matches
arrive as unsolicited ``FRAME_EVENT_BATCH`` frames: one per published
epoch per connection, with subscriptions that drained the identical
notification sequence sharing one encoded group.  An eviction notice is
one more group, ``([sub_id], [notice])``.  Clients demultiplex on the
first byte.

Ops:

* ``OP_QUERY`` — one-shot point/range query against the live index;
* ``OP_SUBSCRIBE`` — register a standing pattern; replies with the
  subscription id, then batch frames carry its matches after each
  served epoch;
* ``OP_SUBSCRIBE_PATTERN`` — like subscribe, but the payload is pattern
  *source text* compiled server-side (:mod:`repro.sase`); compile errors
  come back as error replies carrying the compiler message;
* ``OP_UNSUBSCRIBE`` — stop a subscription the requesting connection
  opened (its queued notifications may still be in flight);
* ``OP_STATS`` — serving counters as JSON (diagnostics, not hot path);
* ``OP_METRICS`` — the merged telemetry registry rendered as Prometheus
  text exposition (scrape-ready; see docs/OBSERVABILITY.md).

Codes are extended, never renumbered: op 7 (a retired feature
negotiation) and frame type 65 (a retired per-event push frame) stay
reserved, and a server answers op 7 with an ``unknown op`` error reply.
"""

from __future__ import annotations

import json
import struct

from repro.distributed.wire import NONE_SENTINEL, WireError
from repro.events.messages import INFINITY
from repro.model.objects import TagId
from repro.query.index import Interval
from repro.serving.patterns import Notification, PatternSpec

# ---------------------------------------------------------------------------
# frame types / ops
# ---------------------------------------------------------------------------

OP_QUERY = 1
OP_SUBSCRIBE = 2
OP_UNSUBSCRIBE = 3
OP_STATS = 4
OP_METRICS = 5
OP_SUBSCRIBE_PATTERN = 6  # pattern source text, compiled server-side
# 7 is reserved (retired feature negotiation)

FRAME_REPLY = 64
# 65 is reserved (retired per-event push frame)
FRAME_EVENT_BATCH = 66  # one coalesced frame per epoch per connection

STATUS_OK = 0
STATUS_ERROR = 1

# one-shot query kinds
Q_LOCATION = 1
Q_CONTAINER = 2
Q_CONTENTS = 3
Q_OBJECTS_AT = 4
Q_VISITORS = 5
Q_PATH = 6
Q_TOP_LEVEL = 7
Q_DWELL = 8
Q_IS_MISSING = 9

#: notification kind <-> wire code (stable; extend, never renumber)
NOTIFY_CODES = {
    "event": 1,
    "object_event": 2,
    "place_event": 3,
    "dwell_exceeded": 4,
    "missing_overdue": 5,
    "left_without_container": 6,
    "sase_match": 7,
    "subscription_evicted": 8,
}
NOTIFY_KINDS = {code: kind for kind, code in NOTIFY_CODES.items()}

_REQUEST = struct.Struct("<BI")  # op, request id
_QUERY = struct.Struct("<BQqqq")  # kind, obj key, place, t1, t2
_SUBSCRIBE = struct.Struct("<BQqqI")  # pattern kind, obj key, place, k, max queue
_UNSUBSCRIBE = struct.Struct("<I")  # subscription id
_REPLY = struct.Struct("<BIB")  # frame type, request id, status
_NOTIFICATION = struct.Struct("<BqQqQq")  # kind, epoch, obj, place, container, value
_I64 = struct.Struct("<q")
_U32 = struct.Struct("<I")
_PATH_ENTRY = struct.Struct("<qqq")  # place, vs, ve (NONE_SENTINEL = open)
_EVENT_BATCH = struct.Struct("<BqI")  # frame type, epoch, group count


def _pack_tag(tag: TagId | None) -> int:
    return 0 if tag is None else tag.key()


def _unpack_tag(key: int) -> TagId | None:
    return None if key == 0 else TagId.from_key(key)


def _pack_place(place: int | None) -> int:
    return NONE_SENTINEL if place is None else place


def _unpack_place(value: int) -> int | None:
    return None if value == NONE_SENTINEL else value


# ---------------------------------------------------------------------------
# client -> server
# ---------------------------------------------------------------------------


def encode_query(
    request_id: int,
    kind: int,
    obj: TagId | None = None,
    place: int | None = None,
    t1: int | None = None,
    t2: int | None = None,
) -> bytes:
    return _REQUEST.pack(OP_QUERY, request_id) + _QUERY.pack(
        kind, _pack_tag(obj), _pack_place(place), _pack_place(t1), _pack_place(t2)
    )


def decode_query(payload: bytes) -> tuple[int, TagId | None, int | None, int | None, int | None]:
    kind, obj_key, place, t1, t2 = _QUERY.unpack_from(payload, _REQUEST.size)
    return (
        kind,
        _unpack_tag(obj_key),
        _unpack_place(place),
        _unpack_place(t1),
        _unpack_place(t2),
    )


def encode_subscribe(request_id: int, spec: PatternSpec, max_queue: int = 1024) -> bytes:
    return _REQUEST.pack(OP_SUBSCRIBE, request_id) + _SUBSCRIBE.pack(
        spec.kind, _pack_tag(spec.obj), _pack_place(spec.place), spec.k, max_queue
    )


def decode_subscribe(payload: bytes) -> tuple[PatternSpec, int]:
    kind, obj_key, place, k, max_queue = _SUBSCRIBE.unpack_from(payload, _REQUEST.size)
    return PatternSpec(kind, obj=_unpack_tag(obj_key), place=_unpack_place(place), k=k), max_queue


def encode_subscribe_pattern(request_id: int, source: str, max_queue: int = 1024) -> bytes:
    """Subscribe with pattern source text (compiled by the server).

    A compile failure comes back as a ``STATUS_ERROR`` reply whose body
    is the compiler's message (syntax errors carry the source offset).
    """
    return (
        _REQUEST.pack(OP_SUBSCRIBE_PATTERN, request_id)
        + _U32.pack(max_queue)
        + source.encode("utf-8")
    )


def decode_subscribe_pattern(payload: bytes) -> tuple[str, int]:
    """Returns (pattern source, max queue)."""
    (max_queue,) = _U32.unpack_from(payload, _REQUEST.size)
    source = payload[_REQUEST.size + _U32.size :].decode("utf-8")
    return source, max_queue


def encode_unsubscribe(request_id: int, sub_id: int) -> bytes:
    return _REQUEST.pack(OP_UNSUBSCRIBE, request_id) + _UNSUBSCRIBE.pack(sub_id)


def decode_unsubscribe(payload: bytes) -> int:
    (sub_id,) = _UNSUBSCRIBE.unpack_from(payload, _REQUEST.size)
    return sub_id


def encode_stats_request(request_id: int) -> bytes:
    return _REQUEST.pack(OP_STATS, request_id)


def encode_metrics_request(request_id: int) -> bytes:
    return _REQUEST.pack(OP_METRICS, request_id)


def decode_request_header(payload: bytes) -> tuple[int, int]:
    """Op and request id of a client frame."""
    try:
        return _REQUEST.unpack_from(payload)
    except struct.error as exc:
        raise WireError(f"malformed request frame: {exc}") from exc


# ---------------------------------------------------------------------------
# server -> client
# ---------------------------------------------------------------------------


def encode_reply(request_id: int, body: bytes = b"", status: int = STATUS_OK) -> bytes:
    return _REPLY.pack(FRAME_REPLY, request_id, status) + body


def encode_error_reply(request_id: int, message: str) -> bytes:
    return encode_reply(request_id, message.encode("utf-8"), status=STATUS_ERROR)


def decode_reply(payload: bytes) -> tuple[int, int, bytes]:
    """Returns (request id, status, body)."""
    _, request_id, status = _REPLY.unpack_from(payload)
    return request_id, status, payload[_REPLY.size :]


def encode_scalar(value: int | None) -> bytes:
    return _I64.pack(NONE_SENTINEL if value is None else value)


def decode_scalar(body: bytes) -> int | None:
    (value,) = _I64.unpack_from(body)
    return None if value == NONE_SENTINEL else value


def encode_tag_value(tag: TagId | None) -> bytes:
    return _I64.pack(_pack_tag(tag))


def decode_tag_value(body: bytes) -> TagId | None:
    (key,) = _I64.unpack_from(body)
    return _unpack_tag(key)


def encode_tag_list(tags: list[TagId]) -> bytes:
    return _U32.pack(len(tags)) + struct.pack(f"<{len(tags)}Q", *(t.key() for t in tags))


def decode_tag_list(body: bytes) -> list[TagId]:
    (count,) = _U32.unpack_from(body)
    keys = struct.unpack_from(f"<{count}Q", body, _U32.size)
    return [TagId.from_key(key) for key in keys]


def encode_path(intervals: list[Interval]) -> bytes:
    parts = [_U32.pack(len(intervals))]
    for interval in intervals:
        ve = NONE_SENTINEL if interval.ve == INFINITY else int(interval.ve)
        parts.append(_PATH_ENTRY.pack(interval.value, interval.vs, ve))
    return b"".join(parts)


def decode_path(body: bytes) -> list[Interval]:
    (count,) = _U32.unpack_from(body)
    offset = _U32.size
    out = []
    for _ in range(count):
        place, vs, ve = _PATH_ENTRY.unpack_from(body, offset)
        offset += _PATH_ENTRY.size
        out.append(Interval(place, vs, INFINITY if ve == NONE_SENTINEL else ve))
    return out


def encode_stats_body(stats_dict: dict) -> bytes:
    return json.dumps(stats_dict, sort_keys=True).encode("utf-8")


def decode_stats_body(body: bytes) -> dict:
    return json.loads(body.decode("utf-8"))


def encode_metrics_body(text: str) -> bytes:
    return text.encode("utf-8")


def decode_metrics_body(body: bytes) -> str:
    return body.decode("utf-8")


def encode_subscribed(sub_id: int) -> bytes:
    return _U32.pack(sub_id)


def decode_subscribed(body: bytes) -> int:
    (sub_id,) = _U32.unpack_from(body)
    return sub_id


def encode_notification(note: Notification) -> bytes:
    """One notification body, as carried in a batch group."""
    code = NOTIFY_CODES.get(note.kind)
    if code is None:
        raise WireError(f"unknown notification kind {note.kind!r}")
    return _NOTIFICATION.pack(
        code,
        note.epoch,
        _pack_tag(note.obj),
        _pack_place(note.place),
        _pack_tag(note.container),
        note.value,
    ) + note.detail.encode("utf-8")


def decode_notification(body: bytes, offset: int = 0, end: int | None = None) -> Notification:
    """Inverse of :func:`encode_notification` over ``body[offset:end]``."""
    code, epoch, obj_key, place, container_key, value = _NOTIFICATION.unpack_from(
        body, offset
    )
    kind = NOTIFY_KINDS.get(code)
    if kind is None:
        raise WireError(f"unknown notification code {code}")
    detail = body[offset + _NOTIFICATION.size : end].decode("utf-8")
    return Notification(
        kind=kind,
        epoch=epoch,
        obj=_unpack_tag(obj_key),
        place=_unpack_place(place),
        container=_unpack_tag(container_key),
        value=value,
        detail=detail,
    )


def encode_event_batch(
    epoch: int, groups: list[tuple[list[int], list[Notification]]]
) -> bytes:
    """Coalesce one epoch's push traffic for one connection.

    ``groups`` pairs a list of subscription ids with the notification
    sequence each of them received — subscribers whose drained sequences
    are identical share one encoded copy.  Layout::

        type(1) | epoch(8) | n_groups(4)
        per group:  n_subs(4) | sub_id(4)×n_subs
                    n_notes(4) | [len(4) | notification body]×n_notes
    """
    parts = [_EVENT_BATCH.pack(FRAME_EVENT_BATCH, epoch, len(groups))]
    for sub_ids, notes in groups:
        parts.append(_U32.pack(len(sub_ids)))
        parts.append(struct.pack(f"<{len(sub_ids)}I", *sub_ids))
        parts.append(_U32.pack(len(notes)))
        for note in notes:
            body = encode_notification(note)
            parts.append(_U32.pack(len(body)))
            parts.append(body)
    return b"".join(parts)


def decode_event_batch(
    payload: bytes,
) -> tuple[int, list[tuple[list[int], list[Notification]]]]:
    """Inverse of :func:`encode_event_batch`; notes are decoded once per
    group and the same objects are shared across that group's sub ids."""
    _, epoch, n_groups = _EVENT_BATCH.unpack_from(payload)
    offset = _EVENT_BATCH.size
    groups: list[tuple[list[int], list[Notification]]] = []
    for _ in range(n_groups):
        (n_subs,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        sub_ids = list(struct.unpack_from(f"<{n_subs}I", payload, offset))
        offset += 4 * n_subs
        (n_notes,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        notes = []
        for _ in range(n_notes):
            (length,) = _U32.unpack_from(payload, offset)
            offset += _U32.size
            notes.append(decode_notification(payload, offset, offset + length))
            offset += length
        groups.append((sub_ids, notes))
    return epoch, groups


def frame_type(payload: bytes) -> int:
    """First byte of a server frame (FRAME_REPLY or FRAME_EVENT_BATCH)."""
    if not payload:
        raise WireError("empty frame")
    return payload[0]
