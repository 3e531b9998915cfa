"""The zone-worker message codec, :mod:`repro.distributed.wire`.

* Golden frames: one fixed request and one fixed reply of every message
  type encode to the hex below, written by the per-message encoders that
  preceded the codec's four entry points.  CI's wire counts are byte
  totals over one run, so only this pins each type's layout.
* Round trips: each of those decodes to what was encoded.
* Strict decoding: every strict prefix of a frame, and every frame with
  bytes past its end, raises :class:`~repro.distributed.wire.WireError`;
  a seeded byte flip either decodes or raises it.  Nothing else escapes
  a decoder: the bytes come from another process or host.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.core.checkpoint import dumps_spire
from repro.distributed import wire
from repro.events.messages import end_containment, missing, start_location
from repro.model.objects import PackagingLevel, TagId
from repro.obs.metrics import MetricRegistry
from repro.readers.stream import EpochReadings

from tests.test_checkpoint import _warm_spire

ITEM, CASE, PALLET = PackagingLevel.ITEM, PackagingLevel.CASE, PackagingLevel.PALLET


def _registry() -> MetricRegistry:
    registry = MetricRegistry(const_labels={"zone": "dock"})
    registry.counter("spire_epochs_total", "epochs").inc(3)
    return registry


def _readings(epoch: int, by_reader: dict) -> EpochReadings:
    readings = EpochReadings(epoch=epoch)
    for reader_id, tags in by_reader.items():
        readings.add(reader_id, tags)
    return readings


RECORD = {
    "tag": TagId(ITEM, 1), "recent_color": -1, "seen_at": 40,
    "confirmed_parent": TagId(CASE, 2), "confirmed_at": 38, "confirmed_conflicts": 1,
}
BARE_RECORD = {
    "tag": TagId(CASE, 2), "recent_color": None, "seen_at": 42,
    "confirmed_parent": None, "confirmed_at": -1, "confirmed_conflicts": 0,
}
MESSAGES = [
    start_location(TagId(ITEM, 1), 3, 40),
    end_containment(TagId(ITEM, 3), TagId(CASE, 2), 30, 41),
]

DOCK_SHARE = _readings(7, {1: [TagId(ITEM, 1), TagId(CASE, 2)], 4: [TagId(ITEM, 3)]})
YARD_SHARE = _readings(7, {9: [TagId(PALLET, 5)]})

#: the install ships ``blob`` as it is, so only the substrate's registry is read
REQUESTS = {
    "install": (wire.MSG_INSTALL, 3, "dock", SimpleNamespace(metrics=_registry()), b"CKPT"),
    "epoch": (wire.MSG_EPOCH, [(0, wire.FLAG_CHECKPOINT, DOCK_SHARE), (2, 0, YARD_SHARE)]),
    "release": (wire.MSG_RELEASE, 1, 42, [TagId(ITEM, 1), TagId(PALLET, 5)]),
    "adopt": (wire.MSG_ADOPT, 1, 42, [RECORD, BARE_RECORD]),
    "query": (wire.MSG_QUERY, 2, wire.QUERY_CONTAINER, TagId(ITEM, 9)),
    "stop": (wire.MSG_STOP,),
}

#: name -> (the request's type, the reply ``handle_request`` returned)
REPLIES = {
    "epoch": (
        wire.MSG_EPOCH,
        [
            (0, MESSAGES, [TagId(ITEM, 2)], 0.25, 0.125, b"CKPT", _registry()),
            (2, [missing(TagId(CASE, 2), 4, 41)], [], 0.5, 0.0, None, None),
        ],
    ),
    "release": (wire.MSG_RELEASE, [(RECORD, MESSAGES[:1]), (BARE_RECORD, [])]),
    "query": (wire.MSG_QUERY, -3),
    "install": (wire.MSG_INSTALL, None),
    "adopt": (wire.MSG_ADOPT, None),
    "stop": (wire.MSG_STOP, None),
}

GOLDEN_REQUESTS = {
    "install": (
        "010300000001040085000000646f636b7b2268656c70223a7b2273706972655f65706f6368735f74"
        "6f74616c223a2265706f636873227d2c22736572696573223a5b7b226b696e64223a22636f756e74"
        "6572222c226c6162656c73223a7b227a6f6e65223a22646f636b227d2c226e616d65223a22737069"
        "72655f65706f6368735f746f74616c222c2276616c7565223a337d5d7d434b5054"
    ),
    "epoch": (
        "02020000000000000001300000000700000000000000020000000100020000000100000000000100"
        "0200000000000200040001000000030000000000010002000000001a000000070000000000000001"
        "0000000900010000000500000000000300"
    ),
    "release": "03010000002a000000000000000200000001000000000001000500000000000300",
    "adopt": (
        "04010000002a00000000000000020000000100000000000100ffffffffffffffff28000000000000"
        "00020000000000020026000000000000000100000000000000020000000000020000000000000000"
        "c02a000000000000000000000000000000ffffffffffffffff0000000000000000"
    ),
    "query": "0502000000020900000000000100",
    "stop": "06",
}

GOLDEN_REPLIES = {
    "epoch": (
        "410200000000000000e40000004132000000000101000000000004000000000028000000ffffffff"
        "00000003210300000000000200000000001e00000029000000000000010000000200000000000100"
        "000000000000d03f000000000000c03f04000000434b5054850000007b2268656c70223a7b227370"
        "6972655f65706f6368735f746f74616c223a2265706f636873227d2c22736572696573223a5b7b22"
        "6b696e64223a22636f756e746572222c226c6162656c73223a7b227a6f6e65223a22646f636b227d"
        "2c226e616d65223a2273706972655f65706f6368735f746f74616c222c2276616c7565223a337d5d"
        "7d020000003a00000041190000000402020000000000050000000000290000002900000000000000"
        "000000000000000000e03f00000000000000000000000000000000"
    ),
    "release": (
        "42020000000100000000000100ffffffffffffffff28000000000000000200000000000200260000"
        "0000000000010000000000000019000000000101000000000004000000000028000000ffffffff00"
        "0000020000000000020000000000000000c02a000000000000000000000000000000ffffffffffff"
        "ffff000000000000000000000000"
    ),
    "query": "43fdffffffffffffff",
    "install": "40",
    "adopt": "40",
    "stop": "40",
    "error": "7f54726163656261636b3a20626f6f6d",
}


# ---------------------------------------------------------------------------
# golden frames and round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(REQUESTS))
def test_golden_request_frame(name):
    assert wire.encode_request(REQUESTS[name]).hex() == GOLDEN_REQUESTS[name]


@pytest.mark.parametrize("name", list(REPLIES))
def test_golden_reply_frame(name):
    assert wire.encode_reply(*REPLIES[name]).hex() == GOLDEN_REPLIES[name]


def test_golden_error_frame():
    assert wire.encode_error("Traceback: boom").hex() == GOLDEN_REPLIES["error"]


@pytest.mark.parametrize("name", [name for name in REQUESTS if name != "install"])
def test_a_request_decodes_to_itself(name):
    assert wire.decode_request(wire.encode_request(REQUESTS[name])) == REQUESTS[name]


def test_an_install_restores_the_substrate_and_its_registry():
    spire = _warm_spire()
    spire.attach_metrics(_registry())
    blob = dumps_spire(spire)
    msg_type, zone_index, zone_id, restored, checkpoint = wire.decode_request(
        wire.encode_request((wire.MSG_INSTALL, 3, "dock", spire, None))
    )
    assert (msg_type, zone_index, zone_id, checkpoint) == (wire.MSG_INSTALL, 3, "dock", blob)
    assert dumps_spire(restored) == blob
    assert restored.metrics.snapshot() == spire.metrics.snapshot()


@pytest.mark.parametrize("name", list(REPLIES))
def test_a_reply_decodes_to_itself(name):
    msg_type, reply = REPLIES[name]
    if msg_type == wire.MSG_EPOCH:  # a registry travels as its snapshot
        reply = [
            (*zone[:-1], None if zone[-1] is None else zone[-1].snapshot()) for zone in reply
        ]
    assert wire.decode_reply(wire.encode_reply(*REPLIES[name])) == reply


def test_an_error_reply_raises_the_workers_traceback():
    with pytest.raises(wire.WorkerError, match="Traceback: boom"):
        wire.decode_reply(wire.encode_error("Traceback: boom"))


# ---------------------------------------------------------------------------
# strict decoding
# ---------------------------------------------------------------------------


def _fuzz_frames() -> dict:
    """name -> (decoder, frame): one decodable frame of every request and
    reply type; the install carries a real checkpoint and metrics seed."""
    spire = _warm_spire()
    spire.attach_metrics(_registry())
    requests = dict(REQUESTS, install=(wire.MSG_INSTALL, 3, "dock", spire, None))
    frames = {
        f"request-{name}": (wire.decode_request, wire.encode_request(request))
        for name, request in requests.items()
    }
    for name, (msg_type, reply) in REPLIES.items():
        frames[f"reply-{name}"] = (wire.decode_reply, wire.encode_reply(msg_type, reply))
    frames["reply-error"] = (wire.decode_reply, wire.encode_error("Traceback: boom"))
    return frames


FUZZ_FRAMES = _fuzz_frames()


@pytest.mark.parametrize("name", list(FUZZ_FRAMES))
def test_every_strict_prefix_raises_wire_error(name):
    decode, frame = FUZZ_FRAMES[name]
    for cut in range(len(frame)):
        with pytest.raises(wire.WireError):
            decode(frame[:cut])


@pytest.mark.parametrize("name", list(FUZZ_FRAMES))
def test_bytes_past_the_end_raise_wire_error(name):
    decode, frame = FUZZ_FRAMES[name]
    for extra in (b"\x00", b"\xff" * 8, bytes(range(49))):
        with pytest.raises(wire.WireError):
            decode(frame + extra)


def test_a_flipped_byte_decodes_or_raises_wire_error():
    rng = random.Random(45)
    frames = list(FUZZ_FRAMES.values())
    for _ in range(1000):
        decode, frame = rng.choice(frames)
        corrupt = bytearray(frame)
        corrupt[rng.randrange(len(corrupt))] ^= rng.randrange(1, 256)
        try:
            decode(bytes(corrupt))
        except wire.WireError:
            pass
