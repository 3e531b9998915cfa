"""The event codec's former per-message procedures: the oracle of the block codec.

:mod:`repro.events.codec` encodes and decodes a whole block in one loop,
building each message as a tuple from lookup tables (DESIGN.md §3).  The
per-message encoder and decoder it replaced live here, unchanged in
substance, so that ``tests/test_codec.py`` can pin the block codec to
them: one ``struct`` call per record, the kind and level through the
Enum, every message through the
:class:`~repro.events.messages.EventMessage` constructor.
"""

from __future__ import annotations

from repro.events.codec import WIRE_FORMAT, CodecError
from repro.events.messages import INFINITY, EventKind, EventMessage
from repro.model.objects import PackagingLevel, TagId

_KIND_CODES = {kind: i for i, kind in enumerate(EventKind)}
_KIND_FROM_CODE = {i: kind for kind, i in _KIND_CODES.items()}

_VE_INFINITY = 0xFFFFFFFF
_SERIAL_MAX = (1 << 48) - 1


def _split48(value: int) -> tuple[int, int]:
    return value & 0xFFFFFFFF, (value >> 32) & 0xFFFF


def _join48(low: int, high: int) -> int:
    return (high << 32) | low


def encode_message(msg: EventMessage) -> bytes:
    """Encode one message to its 25-byte wire form."""
    if msg.obj.serial > _SERIAL_MAX or msg.obj.serial < 0:
        raise CodecError(f"object serial {msg.obj.serial} out of 48-bit range")
    obj_level = msg.obj.level.value
    if msg.kind.is_containment:
        partner_level = msg.container.level.value
        partner_value = msg.container.serial
        if partner_value > _SERIAL_MAX:
            raise CodecError(f"container serial {partner_value} out of 48-bit range")
    else:
        partner_level = 0
        place = msg.place if msg.place is not None else -1
        partner_value = place + 1
        if partner_value < 0 or partner_value > _SERIAL_MAX:
            raise CodecError(f"location color {place} out of encodable range")
    ve = _VE_INFINITY if msg.ve == INFINITY else int(msg.ve)
    if not 0 <= msg.vs < _VE_INFINITY or (ve != _VE_INFINITY and ve >= _VE_INFINITY):
        raise CodecError(f"timestamps out of 32-bit range: [{msg.vs}, {msg.ve}]")
    obj_low, obj_high = _split48(msg.obj.serial)
    partner_low, partner_high = _split48(partner_value)
    return WIRE_FORMAT.pack(
        _KIND_CODES[msg.kind],
        obj_level | (partner_level << 4),
        obj_low,
        obj_high,
        partner_low,
        partner_high,
        msg.vs,
        ve,
    )


def decode_message(data: bytes) -> EventMessage:
    """Decode one 25-byte wire-form message (may raise a bare ``ValueError``
    from the constructor: the bug the block codec fixed)."""
    if len(data) != WIRE_FORMAT.size:
        raise CodecError(f"expected {WIRE_FORMAT.size} bytes, got {len(data)}")
    kind_code, levels, obj_low, obj_high, partner_low, partner_high, vs, ve_raw = (
        WIRE_FORMAT.unpack(data)
    )
    kind = _KIND_FROM_CODE.get(kind_code)
    if kind is None:
        raise CodecError(f"unknown message kind code {kind_code}")
    try:
        obj = TagId(PackagingLevel(levels & 0x0F), _join48(obj_low, obj_high))
    except ValueError as exc:
        raise CodecError(f"invalid packaging level in {data!r}") from exc
    partner_value = _join48(partner_low, partner_high)
    ve: float = INFINITY if ve_raw == _VE_INFINITY else ve_raw
    if kind.is_containment:
        try:
            container = TagId(PackagingLevel((levels >> 4) & 0x0F), partner_value)
        except ValueError as exc:
            raise CodecError(f"invalid container level in {data!r}") from exc
        return EventMessage(kind, obj, vs, ve, container=container)
    return EventMessage(kind, obj, vs, ve, place=partner_value - 1)


def encode_stream(messages) -> bytes:
    return b"".join(encode_message(msg) for msg in messages)


def decode_stream(data: bytes) -> list[EventMessage]:
    size = WIRE_FORMAT.size
    if len(data) % size:
        raise CodecError(f"stream length {len(data)} is not a multiple of {size}")
    return [decode_message(data[offset : offset + size]) for offset in range(0, len(data), size)]
