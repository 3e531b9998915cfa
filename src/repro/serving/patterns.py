"""Standing-query patterns (SASE-style) over the interpreted stream.

A pattern is a *stateful* predicate evaluated once per epoch against the
batch of event messages that epoch emitted, with the live
:class:`~repro.query.index.EventStreamIndex` available for point lookups.
This module holds what the wire and the engine know of one — the
:class:`Pattern` interface, its :class:`PatternSpec` description and the
:class:`Notification` it emits; the one implementation is
:class:`repro.sase.compiled.CompiledPattern`, and the catalogue kinds
(tails and watches, dwell and missing thresholds, the *object left
location L while its container stayed* anomaly) are pattern-language
definitions in :mod:`repro.sase.library`.

Patterns evaluate against **level-1 semantics**: the engine expands a
level-2 stream first (see ``StandingQueryEngine(expand_level2=True)``),
so contained objects' location changes are explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def canonical_source(self) -> str:
        """The pattern as canonical source text: what warnings call it
        and what a persisted subscription re-compiles from."""
        raise NotImplementedError

    def share_key(self) -> tuple | None:
        """Fan-out sharing identity, or ``None`` if unshareable.

        Subscriptions whose patterns answer the same share key join one
        :class:`~repro.serving.engine.SharedRuntime` and are evaluated
        once per epoch regardless of subscriber count.  The default key
        is the full wire spec; compiled patterns that have none share by
        their canonical (``unparse``-fixpoint) source.
        """
        spec = self.spec()
        return ("spec", spec.kind, spec.obj, spec.place, spec.k, spec.source)

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


def pattern_from_spec(spec: PatternSpec) -> Pattern:
    """Instantiate a fresh (stateless) pattern from its wire description.

    Catalogue kinds are their :mod:`repro.sase.library` definitions,
    compiled from pattern source (``tests/reference_patterns.py`` holds
    the hand-coded classes they are pinned against, byte for byte).
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
