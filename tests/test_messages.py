"""Unit tests for event messages (§V-A)."""

import pickle

import pytest

from repro.events.messages import (
    EVENT_MESSAGE_BYTES,
    INFINITY,
    EventKind,
    EventMessage,
    end_containment,
    end_location,
    missing,
    start_containment,
    start_location,
    stream_bytes,
)

from tests.conftest import case, item


class TestConstructors:
    def test_start_location_open_interval(self):
        msg = start_location(item(1), 2, vs=5)
        assert msg.kind is EventKind.START_LOCATION
        assert msg.place == 2 and msg.vs == 5 and msg.ve == INFINITY

    def test_end_location_closes_interval(self):
        msg = end_location(item(1), 2, vs=5, ve=9)
        assert msg.ve == 9 and msg.vs == 5

    def test_containment_pair(self):
        s = start_containment(item(1), case(1), vs=3)
        e = end_containment(item(1), case(1), vs=3, ve=7)
        assert s.container == case(1) and s.ve == INFINITY
        assert e.ve == 7

    def test_missing_is_singleton(self):
        msg = missing(item(1), 4, vs=8)
        assert msg.vs == msg.ve == 8
        assert msg.place == 4


class TestValidation:
    def test_location_message_requires_place(self):
        with pytest.raises(ValueError, match="place"):
            EventMessage(EventKind.START_LOCATION, item(1), 0, INFINITY)

    def test_containment_message_requires_container(self):
        with pytest.raises(ValueError, match="container"):
            EventMessage(EventKind.START_CONTAINMENT, item(1), 0, INFINITY, place=1)

    def test_interval_cannot_end_before_start(self):
        with pytest.raises(ValueError, match="ends before"):
            end_location(item(1), 0, vs=5, ve=4)

    def test_missing_requires_point_interval(self):
        with pytest.raises(ValueError, match="singleton"):
            EventMessage(EventKind.MISSING, item(1), 5, 6, place=0)


class TestKindProperties:
    def test_location_kinds(self):
        assert EventKind.START_LOCATION.is_location
        assert EventKind.END_LOCATION.is_location
        assert EventKind.MISSING.is_location
        assert not EventKind.START_CONTAINMENT.is_location

    def test_containment_kinds(self):
        assert EventKind.START_CONTAINMENT.is_containment
        assert EventKind.END_CONTAINMENT.is_containment
        assert not EventKind.MISSING.is_containment


class TestRendering:
    def test_str_location(self):
        assert str(start_location(item(1), 2, 5)) == "StartLocation(item:1, L2, 5, inf)"

    def test_str_containment(self):
        rendered = str(end_containment(item(1), case(1), 3, 9))
        assert rendered == "EndContainment(item:1, case:1, 3, 9)"


class TestSizing:
    def test_stream_bytes(self):
        msgs = [start_location(item(1), 0, 0), missing(item(1), 0, 5)]
        assert stream_bytes(msgs) == 2 * EVENT_MESSAGE_BYTES


class TestTupleContract:
    """``EventMessage`` is an immutable tuple that cannot hold an invalid message."""

    ALL_KINDS = [
        start_location(item(1), 2, 5),
        end_location(item(1), 2, 5, 9),
        start_containment(item(1), case(3), 4),
        end_containment(item(1), case(3), 4, 8),
        missing(item(2), -1, 7),
    ]

    INVALID = [
        ((EventKind.START_LOCATION, item(1), 0, INFINITY), "StartLocation requires a place"),
        (
            (EventKind.START_CONTAINMENT, item(1), 0, INFINITY, 1),
            "StartContainment requires a container",
        ),
        (
            (EventKind.END_LOCATION, item(1), 5, 4, 1),
            r"validity interval ends before it starts: \[5, 4\]",
        ),
        ((EventKind.MISSING, item(1), 5, 6, 0), "Missing messages are singletons with Ve = Vs"),
    ]

    def test_attributes_cannot_be_assigned(self):
        msg = start_location(item(1), 2, 5)
        for name in ("kind", "obj", "vs", "ve", "place", "container", "extra"):
            with pytest.raises(AttributeError):
                setattr(msg, name, None)

    @pytest.mark.parametrize("args,message", INVALID)
    def test_invalid_fields_raise_the_same_text(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EventMessage(*args)

    @pytest.mark.parametrize("args,message", INVALID)
    def test_make_replace_and_pickle_cannot_build_an_invalid_message(self, args, message):
        fields = (*args, *([None] * (6 - len(args))))
        with pytest.raises(ValueError, match=message):
            EventMessage._make(fields)
        valid = self.ALL_KINDS[[m.kind for m in self.ALL_KINDS].index(args[0])]
        with pytest.raises(ValueError, match=message):
            valid._replace(**dict(zip(EventMessage._fields, fields)))
        forged = tuple.__new__(EventMessage, fields)  # bypasses every check
        with pytest.raises(ValueError, match=message):
            pickle.loads(pickle.dumps(forged))

    def test_valid_messages_survive_make_replace_and_pickle(self):
        for msg in self.ALL_KINDS:
            assert EventMessage._make(msg) == msg
            assert msg._replace() == msg
            assert pickle.loads(pickle.dumps(msg)) == msg
        assert self.ALL_KINDS[1]._replace(ve=12).ve == 12

    def test_repr_and_str_are_the_dataclass_strings(self):
        assert [repr(m) for m in self.ALL_KINDS] == [
            "EventMessage(kind=<EventKind.START_LOCATION: 'StartLocation'>, "
            "obj=TagId(level=<PackagingLevel.ITEM: 1>, serial=1), vs=5, ve=inf, "
            "place=2, container=None)",
            "EventMessage(kind=<EventKind.END_LOCATION: 'EndLocation'>, "
            "obj=TagId(level=<PackagingLevel.ITEM: 1>, serial=1), vs=5, ve=9, "
            "place=2, container=None)",
            "EventMessage(kind=<EventKind.START_CONTAINMENT: 'StartContainment'>, "
            "obj=TagId(level=<PackagingLevel.ITEM: 1>, serial=1), vs=4, ve=inf, "
            "place=None, container=TagId(level=<PackagingLevel.CASE: 2>, serial=3))",
            "EventMessage(kind=<EventKind.END_CONTAINMENT: 'EndContainment'>, "
            "obj=TagId(level=<PackagingLevel.ITEM: 1>, serial=1), vs=4, ve=8, "
            "place=None, container=TagId(level=<PackagingLevel.CASE: 2>, serial=3))",
            "EventMessage(kind=<EventKind.MISSING: 'Missing'>, "
            "obj=TagId(level=<PackagingLevel.ITEM: 1>, serial=2), vs=7, ve=7, "
            "place=-1, container=None)",
        ]
        assert [str(m) for m in self.ALL_KINDS] == [
            "StartLocation(item:1, L2, 5, inf)",
            "EndLocation(item:1, L2, 5, 9)",
            "StartContainment(item:1, case:3, 4, inf)",
            "EndContainment(item:1, case:3, 4, 8)",
            "Missing(item:2, L-1, 7, 7)",
        ]

    def test_equal_messages_hash_equal(self):
        a = end_containment(item(1), case(3), 4, 8)
        b = EventMessage(EventKind.END_CONTAINMENT, item(1), 4, 8, container=case(3))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != end_containment(item(1), case(3), 4, 9)

    def test_a_message_equals_the_plain_tuple_of_its_fields(self):
        """The one visible difference from the former dataclass."""
        msg = missing(item(2), -1, 7)
        plain = (EventKind.MISSING, item(2), 7, 7, -1, None)
        assert msg == plain and hash(msg) == hash(plain)
        assert isinstance(msg, tuple) and tuple(msg) == plain
