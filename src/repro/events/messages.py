"""Event messages of the compressed output stream (Section V-A).

The five message kinds:

* ``StartLocation(object, location, Vs, Ve=∞)`` /
  ``EndLocation(object, location, Vs, Ve)`` — a paired interval during
  which the object is at the location;
* ``StartContainment(object, container, Vs, Ve=∞)`` /
  ``EndContainment(object, container, Vs, Ve)`` — likewise for containment;
* ``Missing(object, locationMissingFrom, Vs, Ve=Vs)`` — a singleton emitted
  right after the EndLocation of the object's previous location.

A single immutable :class:`EventMessage` type covers all five; the
``place`` field is the location color for location/missing messages and is
unused for containment messages, whose partner object lives in
``container``.

:class:`EventMessage` is a tuple: every stream carries hundreds of
thousands of them through the compressor, the codec, the coordinator's
merge and the serving index, and a tuple is the cheapest immutable record
Python builds.  Construction — by call, ``_make``, ``_replace`` or
unpickling — runs the same checks, so no invalid message can exist.  The
one visible consequence is tuple equality: a message compares equal to a
plain tuple of the same six fields (and hashes like one).
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from repro.model.objects import TagId

#: The open-interval end timestamp (``Ve = ∞`` on start messages).
INFINITY: float = float("inf")

#: Encoded size in bytes charged per event message when computing
#: compression ratios: 1-byte kind + 8-byte object + 8-byte place/container
#: + 4-byte Vs + 4-byte Ve.  See DESIGN.md §3 (raw readings are charged
#: :data:`repro.readers.stream.RAW_READING_BYTES` = 16 bytes each).
EVENT_MESSAGE_BYTES = 25


class EventKind(Enum):
    """Kind of an output event message."""

    START_LOCATION = "StartLocation"
    END_LOCATION = "EndLocation"
    START_CONTAINMENT = "StartContainment"
    END_CONTAINMENT = "EndContainment"
    MISSING = "Missing"

    @property
    def is_location(self) -> bool:
        """True for location and missing messages."""
        return self in (EventKind.START_LOCATION, EventKind.END_LOCATION, EventKind.MISSING)

    @property
    def is_containment(self) -> bool:
        """True for containment messages."""
        return self in (EventKind.START_CONTAINMENT, EventKind.END_CONTAINMENT)


class _EventFields(NamedTuple):
    kind: EventKind
    obj: TagId
    vs: int
    ve: float
    place: int | None = None
    container: TagId | None = None


class EventMessage(_EventFields):
    """One message of the compressed event stream.

    Attributes:
        kind: The message kind.
        obj: The subject object.
        place: Location color (location/missing messages); ``None`` for
            containment messages.
        container: Container tag (containment messages); ``None`` otherwise.
        vs: Validity-interval start.
        ve: Validity-interval end (``INFINITY`` on start messages, ``vs``
            on missing messages).
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: EventKind,
        obj: TagId,
        vs: int,
        ve: float,
        place: int | None = None,
        container: TagId | None = None,
    ) -> "EventMessage":
        if kind is EventKind.START_CONTAINMENT or kind is EventKind.END_CONTAINMENT:
            if container is None:
                raise ValueError(f"{kind.value} requires a container")
        elif place is None:
            raise ValueError(f"{kind.value} requires a place")
        if ve != INFINITY and ve < vs:
            raise ValueError(f"validity interval ends before it starts: [{vs}, {ve}]")
        if kind is EventKind.MISSING and ve != vs:
            raise ValueError("Missing messages are singletons with Ve = Vs")
        return tuple.__new__(cls, (kind, obj, vs, ve, place, container))

    @classmethod
    def _make(cls, iterable) -> "EventMessage":
        # namedtuple's own _make (which _replace calls) skips __new__
        return cls(*iterable)

    def __str__(self) -> str:
        target = self.container if self.kind.is_containment else f"L{self.place}"
        ve = "inf" if self.ve == INFINITY else str(int(self.ve))
        return f"{self.kind.value}({self.obj}, {target}, {self.vs}, {ve})"


def start_location(obj: TagId, place: int, vs: int) -> EventMessage:
    """A ``StartLocation`` message (open interval, ``Ve = ∞``)."""
    return EventMessage(EventKind.START_LOCATION, obj, vs, INFINITY, place=place)


def end_location(obj: TagId, place: int, vs: int, ve: int) -> EventMessage:
    """An ``EndLocation`` closing the interval opened at ``vs``."""
    return EventMessage(EventKind.END_LOCATION, obj, vs, ve, place=place)


def start_containment(obj: TagId, container: TagId, vs: int) -> EventMessage:
    """A ``StartContainment`` message (open interval, ``Ve = ∞``)."""
    return EventMessage(EventKind.START_CONTAINMENT, obj, vs, INFINITY, container=container)


def end_containment(obj: TagId, container: TagId, vs: int, ve: int) -> EventMessage:
    """An ``EndContainment`` closing the interval opened at ``vs``."""
    return EventMessage(EventKind.END_CONTAINMENT, obj, vs, ve, container=container)


def missing(obj: TagId, missing_from: int, vs: int) -> EventMessage:
    """A singleton ``Missing`` message (``Ve = Vs``)."""
    return EventMessage(EventKind.MISSING, obj, vs, vs, place=missing_from)


def stream_bytes(messages) -> int:
    """Encoded size of an iterable of event messages."""
    return sum(EVENT_MESSAGE_BYTES for _ in messages)
