"""Standing-query patterns (SASE-style) over the interpreted stream.

A pattern is a *stateful* predicate evaluated once per epoch against the
batch of event messages that epoch emitted, with the live
:class:`~repro.query.index.EventStreamIndex` available for point lookups.
Each subscription owns its own pattern instance, so per-pattern state
(which dwell stays already fired, which objects are missing) is private
to the subscriber.

Simple predicates (:class:`Tail`, :class:`ObjectWatch`,
:class:`PlaceWatch`) forward matching events; threshold predicates
(:class:`DwellExceeded`, :class:`MissingOverdue`) fire once per
qualifying episode; :class:`LeftWithoutContainer` is a compound
containment-anomaly pattern — *an object left location L while its
container stayed* — the canonical "item left the store without its case"
alert of the RFID monitoring literature.

Patterns evaluate against **level-1 semantics**: the engine expands a
level-2 stream first (see ``StandingQueryEngine(expand_level2=True)``),
so contained objects' location changes are explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.events.messages import EventKind, EventMessage
from repro.model.objects import TagId
from repro.query.index import EventStreamIndex

# pattern kind codes (wire-stable; see repro.serving.protocol)
PATTERN_TAIL = 1
PATTERN_OBJECT = 2
PATTERN_PLACE = 3
PATTERN_DWELL = 4
PATTERN_MISSING = 5
PATTERN_LEFT_WITHOUT_CONTAINER = 6
PATTERN_SASE = 7  # compiled from pattern source text (repro.sase)

# notification kinds (wire-stable codes in repro.serving.protocol)
NOTIFY_EVENT = "event"
NOTIFY_OBJECT_EVENT = "object_event"
NOTIFY_PLACE_EVENT = "place_event"
NOTIFY_DWELL_EXCEEDED = "dwell_exceeded"
NOTIFY_MISSING_OVERDUE = "missing_overdue"
NOTIFY_LEFT_WITHOUT_CONTAINER = "left_without_container"
NOTIFY_SASE_MATCH = "sase_match"
NOTIFY_SUBSCRIPTION_EVICTED = "subscription_evicted"


@dataclass(frozen=True)
class Notification:
    """One match delivered to a subscriber.

    Attributes:
        kind: What fired (one of the ``NOTIFY_*`` constants).
        epoch: Epoch the match was detected at.
        obj: Subject object, when the match is object-scoped.
        place: Location color involved, when place-scoped.
        container: Container involved (containment events / anomalies).
        value: Pattern-specific scalar — dwell length or epochs missing
            for threshold patterns, the event-kind ordinal for tails.
        detail: Human-readable elaboration.
    """

    kind: str
    epoch: int
    obj: TagId | None = None
    place: int | None = None
    container: TagId | None = None
    value: int = 0
    detail: str = ""

    def __str__(self) -> str:
        parts = [f"[{self.kind} @ {self.epoch}]"]
        if self.obj is not None:
            parts.append(str(self.obj))
        if self.place is not None:
            parts.append(f"L{self.place}")
        if self.container is not None:
            parts.append(f"in {self.container}")
        if self.detail:
            parts.append(f"— {self.detail}")
        return " ".join(parts)


@dataclass(frozen=True)
class PatternSpec:
    """Wire-portable description of a pattern (see the subscribe op).

    Legacy catalogue kinds are described by the ``obj``/``place``/``k``
    fields; :data:`PATTERN_SASE` subscriptions carry the pattern
    ``source`` text instead and are compiled server-side.
    """

    kind: int
    obj: TagId | None = None
    place: int | None = None
    k: int = 0
    source: str | None = None


class Pattern:
    """Base class: evaluate one epoch's batch, emit notifications."""

    kind_code: int = 0

    def spec(self) -> PatternSpec:
        """The wire description a client would send to subscribe to this."""
        raise NotImplementedError

    def share_key(self) -> tuple | None:
        """Fan-out sharing identity, or ``None`` if unshareable.

        Subscriptions whose patterns answer the same share key join one
        :class:`~repro.serving.engine.SharedRuntime` and are evaluated
        once per epoch regardless of subscriber count.  The default key
        is the full wire spec plus the concrete class (so a hand-coded
        reference pattern never shares state with its compiled library
        twin); compiled patterns override this with their canonical
        (``unparse``-fixpoint) source.
        """
        spec = self.spec()
        return ("spec", type(self).__name__, spec.kind, spec.obj, spec.place, spec.k, spec.source)

    def routing(self) -> tuple[frozenset[EventKind], frozenset[tuple[str, object]]] | None:
        """Which events :meth:`evaluate` can act on; ``None`` (the
        default) is all of them.

        ``(kinds, keys)``: every other event is one the pattern ignores
        — its kind is not in ``kinds`` and for no ``(field, value)`` in
        ``keys`` does ``getattr(event, field) == value``.  The engine
        reads this once, when the pattern gets its shared runtime, and
        from then on hands ``evaluate`` only such events, in batch order.
        """
        return None

    def prime(self, index: EventStreamIndex, epoch: int | None) -> None:
        """Adopt pre-subscription state from the live index (optional)."""

    def evaluate(
        self, epoch: int, messages: list[EventMessage], index: EventStreamIndex
    ) -> list[Notification]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.spec()})"


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


def pattern_from_spec(spec: PatternSpec) -> Pattern:
    """Instantiate a fresh (stateless) pattern from its wire description.

    Legacy catalogue kinds route through their :mod:`repro.sase.library`
    definitions — the same matching logic, compiled from pattern source
    and pinned byte-for-byte against the hand-coded classes (which stay
    importable above for the equivalence tests).
    """
    from repro.sase import library  # deferred: repro.sase imports this module

    if spec.kind == PATTERN_TAIL:
        return library.tail(obj=spec.obj, place=spec.place)
    if spec.kind == PATTERN_OBJECT:
        if spec.obj is None:
            raise ValueError("object watch requires an object")
        return library.object_watch(obj=spec.obj)
    if spec.kind == PATTERN_PLACE:
        if spec.place is None:
            raise ValueError("place watch requires a place")
        return library.place_watch(place=spec.place)
    if spec.kind == PATTERN_DWELL:
        if spec.place is None or spec.k <= 0:
            raise ValueError("dwell pattern requires a place and k >= 1")
        return library.dwell_exceeded(place=spec.place, k=spec.k)
    if spec.kind == PATTERN_MISSING:
        if spec.k <= 0:
            raise ValueError("missing pattern requires k >= 1")
        return library.missing_overdue(k=spec.k)
    if spec.kind == PATTERN_LEFT_WITHOUT_CONTAINER:
        if spec.place is None:
            raise ValueError("containment-anomaly pattern requires a place")
        return library.left_without_container(place=spec.place)
    if spec.kind == PATTERN_SASE:
        if not spec.source:
            raise ValueError("sase pattern requires source text")
        from repro.sase import compile_pattern

        return compile_pattern(spec.source)
    raise ValueError(f"unknown pattern kind {spec.kind}")
