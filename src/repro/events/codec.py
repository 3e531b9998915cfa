"""Binary codec for event messages.

The compression-ratio accounting charges a fixed
:data:`~repro.events.messages.EVENT_MESSAGE_BYTES` per message; this module
provides the actual wire format backing that number, so streams can be
persisted or shipped between processes:

``kind(1) | obj level(1) | obj serial(6) | place/container(8) | Vs(4) | Ve(4)``

25 bytes per message, little-endian.  ``Ve = ∞`` is encoded as the
all-ones unsigned 32-bit value; the place/container field holds a signed
location color for location messages (``-1`` = unknown) or a packed
(level, serial) tag for containment messages.

There is one encode loop (:func:`encode_stream`) and one decode loop
(:func:`decode_stream`); every other entry point — one message, a file,
a stream arriving in chunks — is a call to them.  The decode loop builds
each message as the tuple it is, from lookup tables, without calling the
:class:`~repro.events.messages.EventMessage` constructor or the Enum
machinery: it makes the constructor's checks itself, so it yields exactly
the messages the constructor would accept, and every malformed record —
unknown kind or level, an interval that ends before it starts, a
``Missing`` that is not a point, a timestamp the encoder would refuse —
raises :class:`CodecError`.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterable, Iterator

from repro.events.messages import (
    EVENT_MESSAGE_BYTES,
    INFINITY,
    EventKind,
    EventMessage,
)
from repro.model.objects import LEVEL_BY_VALUE, TagId

#: canonical on-wire layout; its size equals EVENT_MESSAGE_BYTES so the
#: sizing metrics reflect the real encoding:
#: B kind | B levels (obj in low nibble, partner in high nibble)
#: I+H obj serial (48 bit) | I+H partner serial/place (48 bit)
#: L Vs | L Ve | 3 reserved bytes
WIRE_FORMAT = struct.Struct("<BBIHIHLL3x")

#: kind by wire code (the code is the kind's definition order)
_KINDS = tuple(EventKind)
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}
_CONTAINMENT_CODES = frozenset(_KIND_CODES[kind] for kind in _KINDS if kind.is_containment)
_MISSING_CODE = _KIND_CODES[EventKind.MISSING]

_VE_INFINITY = 0xFFFFFFFF
_SERIAL_MAX = (1 << 48) - 1
_LOW32 = 0xFFFFFFFF


class CodecError(ValueError):
    """Raised when a message cannot be encoded or bytes cannot be decoded."""


def encode_stream(messages: Iterable[EventMessage]) -> bytes:
    """Encode messages into one contiguous byte string."""
    pack = WIRE_FORMAT.pack
    kind_codes = _KIND_CODES
    parts = []
    for kind, (obj_level, obj_serial), vs, ve, place, container in messages:
        if not 0 <= obj_serial <= _SERIAL_MAX:
            raise CodecError(f"object serial {obj_serial} out of 48-bit range")
        code = kind_codes[kind]
        if code in _CONTAINMENT_CODES:
            partner_level, partner_value = container
            if not 0 <= partner_value <= _SERIAL_MAX:
                raise CodecError(f"container serial {partner_value} out of 48-bit range")
        else:
            partner_level = 0
            # location colors are small; store as unsigned with +1 bias so
            # the unknown location (-1) encodes as 0
            partner_value = (place if place is not None else -1) + 1
            if not 0 <= partner_value <= _SERIAL_MAX:
                raise CodecError(f"location color {place} out of encodable range")
        ve_raw = _VE_INFINITY if ve == INFINITY else int(ve)
        if not (0 <= vs < _VE_INFINITY and 0 <= ve_raw <= _VE_INFINITY) or (
            ve_raw == _VE_INFINITY and ve != INFINITY
        ):
            raise CodecError(f"timestamps out of 32-bit range: [{vs}, {ve}]")
        parts.append(
            pack(
                code,
                obj_level | (partner_level << 4),
                obj_serial & _LOW32,
                obj_serial >> 32,
                partner_value & _LOW32,
                partner_value >> 32,
                vs,
                ve_raw,
            )
        )
    return b"".join(parts)


def decode_stream(data: bytes) -> list[EventMessage]:
    """Decode a contiguous byte string back into messages."""
    size = WIRE_FORMAT.size
    if len(data) % size:
        raise CodecError(
            f"stream length {len(data)} is not a multiple of the {size}-byte record"
        )
    kinds = _KINDS
    n_kinds = len(kinds)
    levels_of = LEVEL_BY_VALUE
    containment = _CONTAINMENT_CODES
    message = EventMessage
    tag = TagId
    new = tuple.__new__
    out: list[EventMessage] = []
    append = out.append
    for code, levels, obj_low, obj_high, partner_low, partner_high, vs, ve in (
        WIRE_FORMAT.iter_unpack(data)
    ):
        if code >= n_kinds:
            raise _bad_record(data, len(out), f"unknown message kind code {code}")
        obj_level = levels_of.get(levels & 0x0F)
        if obj_level is None:
            raise _bad_record(data, len(out), "invalid packaging level")
        # finite Ve decodes as int so a decode -> str round trip matches
        # the original message exactly
        if ve == _VE_INFINITY:
            if vs == _VE_INFINITY:
                raise _bad_record(data, len(out), "Vs out of range")
            ve = INFINITY
        elif ve < vs:
            raise _bad_record(data, len(out), "validity interval ends before it starts")
        obj = new(tag, (obj_level, (obj_high << 32) | obj_low))
        if code in containment:
            partner_level = levels_of.get(levels >> 4)
            if partner_level is None:
                raise _bad_record(data, len(out), "invalid container level")
            container = new(tag, (partner_level, (partner_high << 32) | partner_low))
            append(new(message, (kinds[code], obj, vs, ve, None, container)))
        else:
            if code == _MISSING_CODE and ve != vs:
                raise _bad_record(data, len(out), "Missing messages are singletons with Ve = Vs")
            place = ((partner_high << 32) | partner_low) - 1
            append(new(message, (kinds[code], obj, vs, ve, place, None)))
    return out


def _bad_record(data: bytes, index: int, reason: str) -> CodecError:
    size = WIRE_FORMAT.size
    record = bytes(data[index * size : (index + 1) * size])
    return CodecError(f"record {index}: {reason}: {record!r}")


def encode_message(msg: EventMessage) -> bytes:
    """Encode one message to its 25-byte wire form."""
    return encode_stream((msg,))


def decode_message(data: bytes) -> EventMessage:
    """Decode one 25-byte wire-form message."""
    if len(data) != WIRE_FORMAT.size:
        raise CodecError(f"expected {WIRE_FORMAT.size} bytes, got {len(data)}")
    return decode_stream(data)[0]


class StreamDecoder:
    """Incremental decoder for a byte stream arriving in arbitrary chunks.

    Network transports (the serving front-end, a tailing client) deliver
    event-stream bytes at whatever boundaries the socket produces — chunks
    routinely split a 25-byte record.  ``feed`` buffers the partial tail
    and yields every complete message, in order; ``finish`` asserts the
    stream ended on a record boundary.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending(self) -> int:
        """Bytes buffered awaiting the rest of a record."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> list[EventMessage]:
        """Absorb ``chunk``; return the messages it completed."""
        self._buffer.extend(chunk)
        whole = len(self._buffer) - len(self._buffer) % WIRE_FORMAT.size
        if not whole:
            return []
        messages = decode_stream(bytes(self._buffer[:whole]))
        del self._buffer[:whole]
        return messages

    def finish(self) -> None:
        """Raise :class:`CodecError` if a partial record is still buffered."""
        if self._buffer:
            raise CodecError(
                f"truncated stream: {len(self._buffer)} byte(s) of a partial record"
            )


def write_stream(messages: Iterable[EventMessage], fp: BinaryIO) -> int:
    """Write messages to a binary file object; returns bytes written."""
    return fp.write(encode_stream(messages))


def read_stream(fp: BinaryIO) -> Iterator[EventMessage]:
    """Read messages from a binary file object until EOF."""
    decoder = StreamDecoder()
    while chunk := fp.read(1 << 16):
        yield from decoder.feed(chunk)
    if decoder.pending:
        raise CodecError("truncated stream: partial record at EOF")
