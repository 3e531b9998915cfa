"""Range (level-1) compression (Section V-B).

The compressor keeps each object's last *reported* state — open location
interval, open containment interval, missing flag — and emits messages only
when the newly inferred state differs:

* location change: ``EndLocation`` for the previous interval, then
  ``StartLocation`` for the new one;
* object inferred missing: ``EndLocation`` then a singleton ``Missing``
  (the open containment, if any, is *not* ended — §V-A allows a containment
  pair to enclose missing events);
* containment change: ``EndContainment`` and/or ``StartContainment``.

Location and containment are compressed independently, so the output can be
split into two streams and either suppressed (§V-B property *i*).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.locations import UNKNOWN_COLOR
from repro.events.messages import (
    EventMessage,
    end_containment,
    end_location,
    missing,
    start_containment,
    start_location,
)
from repro.model.objects import TagId


@dataclass(slots=True)
class ObjectState:
    """Last reported state of one object inside a compressor.

    Attributes:
        location: Open location interval as ``(place, vs)``; ``None`` when
            no interval is open (object missing or brand new).
        last_place: Most recent reported place (for Missing messages).
        is_missing: True after a Missing was emitted and before the object
            reappears.
        containment: Open containment interval as ``(container, vs)``.
    """

    location: tuple[int, int] | None = None
    last_place: int | None = None
    is_missing: bool = False
    containment: tuple[TagId, int] | None = None


class RangeCompressor:
    """Stateful level-1 compressor; one instance per output stream."""

    #: compression level implemented (used in reports)
    level = 1

    def __init__(self, emit_location: bool = True, emit_containment: bool = True) -> None:
        self._states: dict[TagId, ObjectState] = {}
        self._emit_location = emit_location
        self._emit_containment = emit_containment

    # ------------------------------------------------------------------

    def observe(
        self,
        tag: TagId,
        location: int,
        container: TagId | None,
        now: int,
    ) -> list[EventMessage]:
        """Report one object's newly inferred state; returns emitted messages.

        ``location`` may be :data:`~repro.core.graph.UNKNOWN_COLOR` to
        report the object missing.
        """
        state = self._states.setdefault(tag, ObjectState())
        out: list[EventMessage] = []
        if self._emit_containment:
            out.extend(self._containment_delta(tag, state, container, now))
        else:
            self._track_containment(state, container, now)
        if self._emit_location:
            out.extend(self._location_delta(tag, state, location, now))
        return out

    def depart(self, tag: TagId, now: int) -> list[EventMessage]:
        """Close all open intervals: the object left through a proper exit."""
        state = self._states.pop(tag, None)
        if state is None:
            return []
        out: list[EventMessage] = []
        if state.containment is not None and self._emit_containment:
            container, vs = state.containment
            out.append(end_containment(tag, container, vs, now))
        if state.location is not None and self._emit_location:
            place, vs = state.location
            out.append(end_location(tag, place, vs, now))
        return out

    def state_of(self, tag: TagId) -> ObjectState | None:
        """Current reported state of ``tag`` (read-only use)."""
        return self._states.get(tag)

    @property
    def tracked_objects(self) -> int:
        """Number of objects with reported state in this compressor."""
        return len(self._states)

    # ------------------------------------------------------------------

    def _location_delta(
        self, tag: TagId, state: ObjectState, location: int, now: int
    ) -> list[EventMessage]:
        out: list[EventMessage] = []
        if location == UNKNOWN_COLOR:
            if state.location is not None:
                place, vs = state.location
                out.append(end_location(tag, place, vs, now))
                out.append(missing(tag, place, now))
                state.location = None
                state.is_missing = True
            elif not state.is_missing:
                # never had a reported location (e.g. first estimate is
                # already unknown); report missing from the last known
                # place if any, otherwise stay silent
                if state.last_place is not None:
                    out.append(missing(tag, state.last_place, now))
                state.is_missing = True
            return out

        if state.location is None:
            out.append(start_location(tag, location, now))
            state.location = (location, now)
            state.last_place = location
            state.is_missing = False
            return out

        place, vs = state.location
        if place != location:
            out.append(end_location(tag, place, vs, now))
            out.append(start_location(tag, location, now))
            state.location = (location, now)
            state.last_place = location
        return out

    def _containment_delta(
        self, tag: TagId, state: ObjectState, container: TagId | None, now: int
    ) -> list[EventMessage]:
        out: list[EventMessage] = []
        current = state.containment[0] if state.containment is not None else None
        if current == container:
            return out
        if state.containment is not None:
            old, vs = state.containment
            out.append(end_containment(tag, old, vs, now))
            state.containment = None
        if container is not None:
            out.append(start_containment(tag, container, now))
            state.containment = (container, now)
        return out

    def _track_containment(self, state: ObjectState, container: TagId | None, now: int) -> None:
        """Track containment state without emitting (location-only streams)."""
        current = state.containment[0] if state.containment is not None else None
        if current != container:
            state.containment = (container, now) if container is not None else None
