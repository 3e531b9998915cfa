"""Unit tests for the event-message and raw-reading binary codecs."""

import io

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from repro.events.codec import (
    CodecError,
    WIRE_FORMAT,
    decode_message,
    decode_stream,
    encode_message,
    encode_stream,
    read_stream,
    write_stream,
)
from repro.events.messages import (
    EVENT_MESSAGE_BYTES,
    EventKind,
    EventMessage,
    INFINITY,
    end_containment,
    end_location,
    missing,
    start_containment,
    start_location,
)
from repro.model.objects import PackagingLevel, TagId
from repro.readers.codec import (
    ReadingCodecError,
    decode_reading,
    encode_reading,
    read_trace,
    write_trace,
)
from repro.readers.stream import RAW_READING_BYTES, Reading

from tests import reference_codec
from tests.conftest import case, epoch_readings, item, pallet


class TestEventCodec:
    def test_wire_size_matches_sizing_constant(self):
        assert WIRE_FORMAT.size == EVENT_MESSAGE_BYTES

    @pytest.mark.parametrize(
        "msg",
        [
            start_location(item(1), 3, 10),
            end_location(item(1), 3, 10, 99),
            start_containment(item(5), case(7), 0),
            end_containment(case(7), pallet(2), 4, 12),
            missing(pallet(9), 0, 77),
            missing(item(2), -1, 5),  # missing from the unknown location
        ],
    )
    def test_roundtrip(self, msg):
        assert decode_message(encode_message(msg)) == msg

    def test_infinity_roundtrip(self):
        msg = start_location(item(1), 0, 0)
        decoded = decode_message(encode_message(msg))
        assert decoded.ve == INFINITY

    def test_large_serial_roundtrip(self):
        msg = start_location(TagId(PackagingLevel.ITEM, (1 << 48) - 1), 2, 1)
        assert decode_message(encode_message(msg)) == msg

    def test_serial_overflow_rejected(self):
        msg = start_location(TagId(PackagingLevel.ITEM, 1 << 48), 2, 1)
        with pytest.raises(CodecError):
            encode_message(msg)

    def test_timestamp_overflow_rejected(self):
        msg = start_location(item(1), 0, (1 << 32) - 1)
        with pytest.raises(CodecError):
            encode_message(msg)

    def test_wrong_length_rejected(self):
        with pytest.raises(CodecError):
            decode_message(b"\x00" * 7)

    def test_unknown_kind_rejected(self):
        data = bytearray(encode_message(start_location(item(1), 0, 0)))
        data[0] = 250
        with pytest.raises(CodecError):
            decode_message(bytes(data))

    def test_stream_roundtrip(self):
        msgs = [
            start_containment(item(1), case(1), 0),
            start_location(case(1), 2, 0),
            end_location(case(1), 2, 0, 9),
        ]
        assert list(decode_stream(encode_stream(msgs))) == msgs

    def test_stream_length_validation(self):
        with pytest.raises(CodecError):
            list(decode_stream(b"\x00" * (EVENT_MESSAGE_BYTES + 1)))

    def test_file_roundtrip(self):
        msgs = [start_location(item(i), i % 3, i) for i in range(10)]
        buffer = io.BytesIO()
        written = write_stream(msgs, buffer)
        assert written == 10 * EVENT_MESSAGE_BYTES
        buffer.seek(0)
        assert list(read_stream(buffer)) == msgs

    def test_truncated_file_rejected(self):
        buffer = io.BytesIO(encode_message(start_location(item(1), 0, 0))[:-3])
        with pytest.raises(CodecError):
            list(read_stream(buffer))

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(list(EventKind)),
        level=st.sampled_from(list(PackagingLevel)),
        serial=st.integers(1, (1 << 48) - 1),
        partner_serial=st.integers(1, (1 << 48) - 1),
        place=st.integers(-1, 100),
        vs=st.integers(0, 2**31),
        duration=st.integers(0, 1000),
    )
    def test_roundtrip_property(self, kind, level, serial, partner_serial, place, vs, duration):
        obj = TagId(level, serial)
        if kind.is_containment:
            msg = EventMessage(
                kind,
                obj,
                vs,
                INFINITY if kind is EventKind.START_CONTAINMENT else vs + duration,
                container=TagId(PackagingLevel.PALLET, partner_serial),
            )
        elif kind is EventKind.MISSING:
            msg = EventMessage(kind, obj, vs, vs, place=place)
        else:
            msg = EventMessage(
                kind,
                obj,
                vs,
                INFINITY if kind is EventKind.START_LOCATION else vs + duration,
                place=place,
            )
        assert decode_message(encode_message(msg)) == msg


class TestReadingCodec:
    def test_wire_size_matches_sizing_constant(self):
        from repro.readers.codec import WIRE_FORMAT as READING_FORMAT

        assert READING_FORMAT.size == RAW_READING_BYTES

    def test_roundtrip(self):
        reading = Reading(tag=case(3), reader_id=7, timestamp=123, seq=4)
        assert decode_reading(encode_reading(reading)) == reading

    def test_reader_id_overflow_rejected(self):
        with pytest.raises(ReadingCodecError):
            encode_reading(Reading(item(1), reader_id=1 << 16, timestamp=0))

    def test_trace_roundtrip(self):
        from repro.readers.stream import ReadingStream

        stream = ReadingStream(
            [
                epoch_readings(0, {0: [item(1), case(1)]}),
                epoch_readings(1, {}),
                epoch_readings(2, {1: [item(1)]}),
            ]
        )
        buffer = io.BytesIO()
        write_trace(stream, buffer)
        buffer.seek(0)
        restored = read_trace(buffer)
        assert len(restored) == 3  # the empty epoch is reconstructed
        assert restored[0].by_reader == {0: [item(1), case(1)]}
        assert not restored[1]
        assert restored[2].by_reader == {1: [item(1)]}

    def test_simulated_trace_roundtrip(self, small_sim):
        buffer = io.BytesIO()
        written = write_trace(small_sim.stream, buffer)
        assert written == small_sim.stream.raw_bytes
        buffer.seek(0)
        restored = read_trace(buffer)
        assert restored.total_readings == small_sim.stream.total_readings
        for original, loaded in zip(small_sim.stream, restored):
            if original:
                assert {t for ts in original.by_reader.values() for t in ts} == {
                    t for ts in loaded.by_reader.values() for t in ts
                }


# ---------------------------------------------------------------------------
# the block codec against the per-message oracle, and structure-aware fuzz
# ---------------------------------------------------------------------------

SERIALS = st.one_of(
    st.sampled_from([1, 2, (1 << 48) - 2, (1 << 48) - 1]), st.integers(1, (1 << 48) - 1)
)
TIMES = st.one_of(st.sampled_from([0, 1, (1 << 32) - 3, (1 << 32) - 2]), st.integers(0, (1 << 32) - 2))
TAGS = st.builds(TagId, st.sampled_from(list(PackagingLevel)), SERIALS)


@st.composite
def event_messages(draw) -> EventMessage:
    """Any valid message of any kind, at the edges of every field's range."""
    kind = draw(st.sampled_from(list(EventKind)))
    obj = draw(TAGS)
    vs = draw(TIMES)
    if kind is EventKind.MISSING:
        ve = vs
    elif kind in (EventKind.START_LOCATION, EventKind.START_CONTAINMENT):
        ve = INFINITY
    else:
        ve = draw(st.integers(vs, (1 << 32) - 2))
    if kind.is_containment:
        return EventMessage(kind, obj, vs, ve, container=draw(TAGS))
    place = draw(st.one_of(st.sampled_from([-1, 0, (1 << 48) - 2]), st.integers(-1, 10_000)))
    return EventMessage(kind, obj, vs, ve, place=place)


def _assert_valid(messages) -> None:
    """Each decoded message is one the constructor builds, of the right types."""
    for msg in messages:
        assert type(msg) is EventMessage
        assert msg.kind in EventKind and type(msg.obj.level) is PackagingLevel
        assert EventMessage(*msg) == msg
        if msg.container is not None:
            assert type(msg.container.level) is PackagingLevel


class TestBlockCodec:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(event_messages(), max_size=12))
    def test_block_is_the_oracle_bytes_and_round_trips(self, messages):
        data = encode_stream(messages)
        assert data == reference_codec.encode_stream(messages)
        decoded = decode_stream(data)
        assert decoded == messages
        assert decoded == reference_codec.decode_stream(data)
        assert [str(m) for m in decoded] == [str(m) for m in messages]
        _assert_valid(decoded)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(event_messages(), min_size=1, max_size=2))
    def test_every_mutation_and_truncation_decodes_or_raises_codec_error(self, messages):
        block = encode_stream(messages)
        variants = [block[:cut] for cut in range(len(block))]
        for position in range(len(block)):
            for value in range(256):
                if value != block[position]:
                    variants.append(block[:position] + bytes([value]) + block[position + 1 :])
        for variant in variants:
            try:
                decoded = decode_stream(variant)
            except CodecError:
                continue
            _assert_valid(decoded)
            # whatever decodes, the oracle decodes the same way
            assert decoded == reference_codec.decode_stream(variant)

    def test_malformed_records_raise_codec_error_not_value_error(self):
        # a Missing with Ve != Vs, and a StartLocation whose Ve < Vs
        with pytest.raises(CodecError, match="singleton"):
            decode_message(WIRE_FORMAT.pack(4, 1, 5, 0, 4, 0, 10, 12))
        good = encode_stream([start_location(item(1), 0, 3)])
        with pytest.raises(CodecError, match="ends before it starts"):
            decode_stream(good + WIRE_FORMAT.pack(0, 1, 5, 0, 4, 0, 10, 9))

    def test_finite_ve_that_would_read_back_as_infinity_is_refused(self):
        msg = end_location(item(1), 0, 0, (1 << 32) - 1)
        with pytest.raises(CodecError):
            encode_message(msg)

    def test_one_record_entry_points_are_the_block_codec(self):
        msg = end_containment(case(7), pallet(2), 4, 12)
        assert encode_message(msg) == encode_stream([msg])
        assert decode_message(encode_message(msg)) == decode_stream(encode_stream([msg]))[0]
