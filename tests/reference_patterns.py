"""The hand-coded pattern catalogue: the reference the shipped one is pinned to.

These six classes served subscriptions before the pattern compiler;
``pattern_from_spec`` has built the :mod:`repro.sase.library`
definitions instead ever since.  They live here, moved verbatim from
``repro.serving.patterns``, as the oracle of
``tests/test_sase_equivalence.py``: plain loops over the batch and the
live index that say what each catalogue kind *means*, so that when the
compiled patterns disagree the reference shows which side is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.events.messages import EventKind, EventMessage
from repro.model.objects import TagId
from repro.serving.patterns import (
    NOTIFY_DWELL_EXCEEDED,
    NOTIFY_EVENT,
    NOTIFY_LEFT_WITHOUT_CONTAINER,
    NOTIFY_MISSING_OVERDUE,
    NOTIFY_OBJECT_EVENT,
    NOTIFY_PLACE_EVENT,
    PATTERN_DWELL,
    PATTERN_LEFT_WITHOUT_CONTAINER,
    PATTERN_MISSING,
    PATTERN_OBJECT,
    PATTERN_PLACE,
    PATTERN_TAIL,
    Notification,
    Pattern,
    PatternSpec,
)


def _event_notification(kind: str, epoch: int, msg: EventMessage) -> Notification:
    return Notification(
        kind=kind,
        epoch=epoch,
        obj=msg.obj,
        place=msg.place,
        container=msg.container,
        value=list(EventKind).index(msg.kind),
        detail=msg.kind.value,
    )


@dataclass
class Tail(Pattern):
    """Live tail of the interpreted stream, optionally filtered.

    With no filter every event message becomes a notification; ``obj``
    and/or ``place`` restrict the tail to events mentioning them.
    """

    obj: TagId | None = None
    place: int | None = None
    kind_code = PATTERN_TAIL

    def spec(self) -> PatternSpec:
        return PatternSpec(PATTERN_TAIL, obj=self.obj, place=self.place)

    def evaluate(self, epoch, messages, index):
        out = []
        for msg in messages:
            if self.obj is not None and msg.obj != self.obj and msg.container != self.obj:
                continue
            if self.place is not None and msg.place != self.place:
                continue
            out.append(_event_notification(NOTIFY_EVENT, epoch, msg))
        return out


@dataclass
class ObjectWatch(Pattern):
    """Every event about one object — its live path/containment feed."""

    obj: TagId
    kind_code = PATTERN_OBJECT

    def spec(self) -> PatternSpec:
        return PatternSpec(PATTERN_OBJECT, obj=self.obj)

    def evaluate(self, epoch, messages, index):
        return [
            _event_notification(NOTIFY_OBJECT_EVENT, epoch, msg)
            for msg in messages
            if msg.obj == self.obj or msg.container == self.obj
        ]


@dataclass
class PlaceWatch(Pattern):
    """Every location event at one place (arrivals, departures, missing)."""

    place: int
    kind_code = PATTERN_PLACE

    def spec(self) -> PatternSpec:
        return PatternSpec(PATTERN_PLACE, place=self.place)

    def evaluate(self, epoch, messages, index):
        return [
            _event_notification(NOTIFY_PLACE_EVENT, epoch, msg)
            for msg in messages
            if msg.kind.is_location and msg.place == self.place
        ]


@dataclass
class DwellExceeded(Pattern):
    """An object has stayed at ``place`` for at least ``k`` epochs.

    Fires once per stay (per open interval), at the first epoch where
    ``epoch - Vs >= k``.  Subscribing mid-stream counts ongoing stays
    from their true start (the live index primes the open intervals).
    """

    place: int
    k: int
    kind_code = PATTERN_DWELL
    _active: dict[TagId, int] = field(default_factory=dict, repr=False)
    _fired: set[tuple[TagId, int]] = field(default_factory=set, repr=False)

    def spec(self) -> PatternSpec:
        return PatternSpec(PATTERN_DWELL, place=self.place, k=self.k)

    def prime(self, index, epoch):
        if epoch is None:
            return
        for obj in index.objects_at(self.place, epoch):
            for interval in index.path(obj):
                if interval.value == self.place and interval.contains(epoch):
                    self._active[obj] = interval.vs
                    break

    def evaluate(self, epoch, messages, index):
        for msg in messages:
            if msg.place != self.place:
                continue
            if msg.kind is EventKind.START_LOCATION:
                self._active[msg.obj] = msg.vs
            elif msg.kind in (EventKind.END_LOCATION, EventKind.MISSING):
                self._active.pop(msg.obj, None)
        out = []
        for obj, vs in self._active.items():
            if epoch - vs >= self.k and (obj, vs) not in self._fired:
                self._fired.add((obj, vs))
                out.append(
                    Notification(
                        kind=NOTIFY_DWELL_EXCEEDED,
                        epoch=epoch,
                        obj=obj,
                        place=self.place,
                        value=epoch - vs,
                        detail=f"at L{self.place} since {vs} (>= {self.k} epochs)",
                    )
                )
        return out


@dataclass
class MissingOverdue(Pattern):
    """An object has been in reported-missing state for ``k`` epochs.

    Starts the clock at each Missing report and cancels it when the
    object is located again; fires once per missing episode.
    """

    k: int
    kind_code = PATTERN_MISSING
    _missing: dict[TagId, tuple[int, int]] = field(default_factory=dict, repr=False)
    _fired: set[tuple[TagId, int]] = field(default_factory=set, repr=False)

    def spec(self) -> PatternSpec:
        return PatternSpec(PATTERN_MISSING, k=self.k)

    def prime(self, index, epoch):
        if epoch is None:
            return
        for obj in index.objects():
            if index.is_missing(obj, epoch):
                reports = index.missing_reports(obj)
                if reports:
                    place = index.location_of(obj, reports[-1] - 1)
                    self._missing[obj] = (reports[-1], -1 if place is None else place)

    def evaluate(self, epoch, messages, index):
        for msg in messages:
            if msg.kind is EventKind.MISSING:
                self._missing[msg.obj] = (msg.vs, msg.place if msg.place is not None else -1)
            elif msg.kind is EventKind.START_LOCATION:
                self._missing.pop(msg.obj, None)
        out = []
        for obj, (since, place) in self._missing.items():
            if epoch - since >= self.k and (obj, since) not in self._fired:
                self._fired.add((obj, since))
                out.append(
                    Notification(
                        kind=NOTIFY_MISSING_OVERDUE,
                        epoch=epoch,
                        obj=obj,
                        place=place if place >= 0 else None,
                        value=epoch - since,
                        detail=f"missing since {since} (>= {self.k} epochs)",
                    )
                )
        return out


@dataclass
class LeftWithoutContainer(Pattern):
    """Containment anomaly: an object left ``place`` but its container
    stayed behind.

    For every departure from ``place`` (EndLocation or Missing), the
    object's container *just before leaving* is looked up in the live
    index; if that container is still at ``place`` at the current epoch
    while the object is not, the separation is anomalous — the object
    moved without its case.
    """

    place: int
    kind_code = PATTERN_LEFT_WITHOUT_CONTAINER

    def spec(self) -> PatternSpec:
        return PatternSpec(PATTERN_LEFT_WITHOUT_CONTAINER, place=self.place)

    def evaluate(self, epoch, messages, index):
        out = []
        seen: set[TagId] = set()
        for msg in messages:
            if msg.place != self.place or msg.obj in seen:
                continue
            if msg.kind is EventKind.END_LOCATION:
                left_at = int(msg.ve)
            elif msg.kind is EventKind.MISSING:
                left_at = msg.vs
            else:
                continue
            before = max(msg.vs, left_at - 1)
            container = index.container_of(msg.obj, before)
            if container is None:
                container = index.container_of(msg.obj, left_at)
            if container is None:
                continue
            if (
                index.location_of(container, epoch) == self.place
                and index.location_of(msg.obj, epoch) != self.place
            ):
                seen.add(msg.obj)
                out.append(
                    Notification(
                        kind=NOTIFY_LEFT_WITHOUT_CONTAINER,
                        epoch=epoch,
                        obj=msg.obj,
                        place=self.place,
                        container=container,
                        detail=f"left L{self.place} at {left_at}; {container} stayed",
                    )
                )
        return out
