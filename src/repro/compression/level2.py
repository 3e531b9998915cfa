"""Level-2 compression: location suppression via containment (Section V-C).

Containment events are emitted exactly as in level 1, but location events
of an object with an open reported containment are suppressed — the
object's location is recoverable from its container's, so only top-level
containers' locations reach the output (Fig. 8).

Two synchronisation points keep the stream decompressible without loss:

* at **containment start**, if the container already has reported location
  state (its interval opened in an earlier epoch), the child's external
  location is aligned to it explicitly — afterwards the decompressor's
  propagation takes over;
* at **containment end**, catch-up messages re-establish the child's own
  location stream (the paper's ``StartLocation(C2, L2, T3)`` in Fig. 8);
  they are emitted unconditionally and the decompressor's duplicate
  suppression removes any redundancy.
"""

from __future__ import annotations

from repro.compression.level1 import ObjectState, RangeCompressor
from repro.events.messages import (
    INFINITY,
    EventMessage,
    end_location,
    missing,
    start_location,
)
from repro.model.locations import UNKNOWN_COLOR
from repro.model.objects import TagId


class ContainmentCompressor:
    """Stateful level-2 compressor.

    Composes a :class:`RangeCompressor` for containment deltas and for the
    location streams of *uncontained* objects, adding the suppression,
    alignment and catch-up logic for contained ones.
    """

    level = 2

    def __init__(self) -> None:
        self._inner = RangeCompressor(emit_location=True, emit_containment=True)

    # ------------------------------------------------------------------

    def observe(
        self,
        tag: TagId,
        location: int,
        container: TagId | None,
        now: int,
    ) -> list[EventMessage]:
        """Report one object's newly inferred state; returns emitted messages."""
        state = self._inner._states.setdefault(tag, ObjectState())
        out: list[EventMessage] = []

        # containment first: its transitions decide whether location events
        # are suppressed, aligned, or caught up this epoch
        was_contained = state.containment is not None
        former_container = state.containment[0] if was_contained else None
        containment_messages = self._inner._containment_delta(tag, state, container, now)
        is_contained = state.containment is not None

        if is_contained and (not was_contained or containment_messages):
            # containment starts (or the container changed): bring the
            # child's external location in line before suppression resumes
            starts = []
            for message in containment_messages:
                if message.ve == INFINITY:
                    starts.append(message)
                else:
                    out.append(message)
            if was_contained:
                # re-parented: the decompressor's view tracked the former
                # container and cannot be reconstructed here — emit the
                # unconditional catch-up (duplicates are suppressed there)
                out.extend(self._catch_up(tag, state, location, former_container, now))
            else:
                out.extend(self._align_with(tag, state, container, now))
            out.extend(starts)
            return out

        out.extend(containment_messages)

        if is_contained:
            # suppressed: a contained object's location equals its
            # container's (guaranteed by §IV-E conflict resolution); the
            # decompressor advances it alongside the container
            return out

        if was_contained:
            # containment just ended: catch the external stream up with the
            # actual location
            out.extend(self._catch_up(tag, state, location, former_container, now))
            return out

        # ordinary uncontained object: plain level-1 location handling
        out.extend(self._inner._location_delta(tag, state, location, now))
        return out

    def depart(self, tag: TagId, now: int) -> list[EventMessage]:
        """Close all open intervals: the object left through a proper exit."""
        return self._inner.depart(tag, now)

    def state_of(self, tag: TagId):
        return self._inner.state_of(tag)

    @property
    def tracked_objects(self) -> int:
        return self._inner.tracked_objects

    # ------------------------------------------------------------------

    def _align_with(
        self, tag: TagId, state: ObjectState, container: TagId | None, now: int
    ) -> list[EventMessage]:
        """Align the child's external location with the container's view.

        Only needed when the container's location state predates this epoch
        (an interval opened earlier produces no new message for the
        decompressor to propagate).  When the container has no reported
        state yet, its own location messages arrive later this epoch and
        propagation covers the child.
        """
        view = self._external_view(container)
        if view is None:
            return []
        mode, place = view
        out: list[EventMessage] = []
        if mode == "open":
            if state.location is not None:
                open_place, vs = state.location
                if open_place == place:
                    return []
                out.append(end_location(tag, open_place, vs, now))
            out.append(start_location(tag, place, now))
            state.location = (place, now)
            state.last_place = place
            state.is_missing = False
            return out
        # container is reported missing: the child inherits that
        if state.location is not None:
            open_place, vs = state.location
            out.append(end_location(tag, open_place, vs, now))
            out.append(missing(tag, open_place, now))
            state.location = None
        elif not state.is_missing and state.last_place is not None:
            out.append(missing(tag, state.last_place, now))
        state.is_missing = True
        return out

    def _catch_up(
        self,
        tag: TagId,
        state: ObjectState,
        location: int,
        former_container: TagId | None,
        now: int,
    ) -> list[EventMessage]:
        """Synchronise an object's location stream after containment ends.

        Catch-up messages are emitted unconditionally (the paper's
        ``StartLocation(C2, L2, T3)``): while the object was contained, the
        decompressor advanced its location with the container, so the
        compressor's own record cannot prove the streams agree.  Redundant
        copies are removed by the decompressor's duplicate suppression.
        """
        out: list[EventMessage] = []
        open_interval = state.location
        if location == UNKNOWN_COLOR:
            if open_interval is not None:
                place, vs = open_interval
                out.append(end_location(tag, place, vs, now))
                out.append(missing(tag, place, now))
                state.location = None
                state.is_missing = True
                return out
            # No open interval of its own — but the decompressor may show a
            # location propagated from the container while suppressed, and
            # its within-step ordering detaches the child (EndContainment)
            # before the container's own location messages apply.  Always
            # re-assert missing when any place can be named; the
            # decompressor suppresses it as a duplicate if already missing.
            place = state.last_place
            if place is None:
                view = self._external_view(former_container)
                if view is not None:
                    place = view[1]
            if place is not None:
                out.append(missing(tag, place, now))
            state.is_missing = True
            return out
        if open_interval is not None:
            place, vs = open_interval
            out.append(end_location(tag, place, vs, now))
        out.append(start_location(tag, location, now))
        state.location = (location, now)
        state.last_place = location
        state.is_missing = False
        return out

    def _external_view(self, tag: TagId | None) -> tuple[str, int | None] | None:
        """The location state a decompressor currently attributes to ``tag``.

        Returns ``("open", place)``, ``("missing", last_place)`` or ``None``
        (no reported state).  Ascends the reported containment chain, since
        a nested container's own location stream is suppressed too.
        """
        seen: set[TagId] = set()
        while tag is not None and tag not in seen:
            seen.add(tag)
            state = self._inner.state_of(tag)
            if state is None:
                return None
            if state.containment is not None:
                tag = state.containment[0]
                continue
            if state.is_missing:
                return ("missing", state.last_place)
            if state.location is not None:
                return ("open", state.location[0])
            return None
        return None
