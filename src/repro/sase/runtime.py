"""Incremental NFA runtime: partitioned active instance stacks.

The runtime executes an :class:`~repro.sase.nfa.NfaProgram` against the
event stream one epoch at a time.  Active partial matches (*instances*)
live in per-partition stacks keyed on the inferred partition attribute;
an incoming event only ever touches the stack holding its own key, so
per-event work is bounded by that partition's population, not by the
total number of live instances (the SASE partitioning optimization).

Determinism contract (what the byte-equivalence tests pin):

* events are processed in batch order; within one event, **kills run
  before advances** (a negation observed in the same epoch as a
  would-be completion suppresses the match — matching the hand-coded
  dwell pattern, which dropped its armed entry before its fire loop);
* within a partition, instances advance oldest-first; match emission
  follows that order, with window-expiry matches emitted after all of
  the epoch's events, partitions in insertion order;
* a re-arming absence instance (fresh arrival while an episode is
  pending) **replaces in place**, keeping its partition's position in
  the stack — the dict-position semantics of the legacy catalogue;
* killed / expired / completed instances are removed eagerly and empty
  partitions deleted, so a partition recreated later moves to the end
  of the iteration order, exactly like a dict key popped and re-added.

Most events offered to a pattern are not for it.  Each element's
:class:`~repro.sase.nfa.Admission` test says so from the event alone,
and :meth:`PatternRuntime.process_epoch` **skips** an event that fails
the first step's test and has no live stack under its partition key
before any view, environment or context exists.  The skip is exact:
with no stack there is nothing to kill or advance, and
``_try_create`` would return at the same tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from repro.events.messages import INFINITY, EventKind, EventMessage
from repro.sase.ast import Attr
from repro.sase.nfa import KEY_FIELDS, NfaProgram, compile_exprs

#: partition key used when the program has no partition attribute
#: (one shared stack) — a private sentinel no attribute value equals
_SHARED = object()

#: ``place`` used for synthesized Missing events whose origin place is
#: unknown at prime time (mirrors the legacy catalogue's sentinel)
UNKNOWN_PLACE = -1


class EventView:
    """An event message plus the epoch it arrived: what a binding holds
    and what the generated predicates (:mod:`repro.sase.nfa`) read."""

    __slots__ = ("msg", "epoch")

    def __init__(self, msg: EventMessage, epoch: int) -> None:
        self.msg = msg
        self.epoch = epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventView({self.msg}, epoch={self.epoch})"


class _Instance:
    """One partial match: the events bound so far and the NFA state."""

    __slots__ = ("state", "bindings", "anchor", "spent")

    def __init__(self, state: int, bindings: dict, anchor: int) -> None:
        self.state = state  # number of positive steps consumed
        self.bindings = bindings  # binding name -> EventView | list[EventView]
        self.anchor = anchor  # vs of the first bound event (window origin)
        #: an absence instance that already fired: it stays in its stack
        #: (preserving partition order for later re-arms, as the legacy
        #: catalogue's fired-set + retained dict entry did) but never
        #: fires again until re-armed
        self.spent = False

    def rearm(self, state: int, bindings: dict, anchor: int) -> None:
        self.state = state
        self.bindings = bindings
        self.anchor = anchor
        self.spent = False


@dataclass(frozen=True)
class Match:
    """A completed pattern match."""

    epoch: int  # the epoch the match fired
    bindings: dict  # binding name -> EventView | list[EventView]
    key: object  # partition key (None for unpartitioned programs)


@dataclass
class RuntimeStats:
    """Counters the serving tier surfaces as ``spire_sase_*`` metrics."""

    matches: int = 0
    kills: int = 0
    prunes: int = 0
    created: int = 0
    epochs: int = 0
    #: events handed to ``process_epoch`` / of those, the ones that got
    #: past the admission skip into the transition code
    offered: int = 0
    admitted: int = 0


class PatternRuntime:
    """Executes one compiled program over an epoch-ordered event stream."""

    def __init__(self, program: NfaProgram) -> None:
        self.program = program
        #: partition key -> stack (list) of live instances, oldest first
        self._partitions: dict[object, list[_Instance]] = {}
        self.stats = RuntimeStats()
        self._relevant = program.relevant_kinds
        self._total = len(program.steps)
        #: a lone non-Kleene step without trailing negation completes at
        #: once and stores nothing: there is never a stack to look up
        self._stateless = (
            self._total == 1 and not program.absence and not program.steps[0].kleene
        )
        attr = program.partition_attr
        #: the partition attribute as a plain message field, when it is
        #: one; any other (``ve``, ``left``, ``kind``, ``epoch``) is read
        #: the way a predicate would read it
        self._key_field = attrgetter(attr) if attr in KEY_FIELDS else None
        self._key_values = (
            compile_exprs((Attr("e", attr),), own="e", conjoin=False)
            if attr is not None and self._key_field is None
            else None
        )

    # -- introspection ---------------------------------------------------

    @property
    def active_instances(self) -> int:
        return sum(len(stack) for stack in self._partitions.values())

    @property
    def partition_count(self) -> int:
        return len(self._partitions)

    # -- the epoch loop --------------------------------------------------

    def process_epoch(self, epoch: int, messages, index=None) -> list[Match]:
        """Consume one epoch's batch and return the matches it produced,
        in deterministic order (see the module docstring)."""
        matches: list[Match] = []
        fired_keys: set | None = set() if self.program.once_per_epoch else None
        partitions = self._partitions
        starts = self.program.steps[0].admission.test
        stateless = self._stateless
        admitted = 0
        for msg in messages:
            creates = starts(msg)
            if not creates and stateless:
                continue
            key = self._key_for(msg, epoch)
            if not creates and key not in partitions:
                continue
            admitted += 1
            self._apply(key, EventView(msg, epoch), creates, epoch, index, matches, fired_keys)
        self._expire(epoch, index, matches, fired_keys)
        self.stats.epochs += 1
        self.stats.offered += len(messages)
        self.stats.admitted += admitted
        return matches

    def _apply(
        self,
        key,
        view: EventView,
        creates: bool,
        epoch: int,
        index,
        matches: list[Match],
        fired_keys: set | None,
    ) -> None:
        stack = self._partitions.get(key)
        if stack:
            self._run_kills(stack, key, view, epoch, index)
            stack = self._partitions.get(key)
        if stack:
            self._run_advances(stack, key, view, epoch, index, matches, fired_keys)
        if creates:
            self._try_create(key, view, epoch, index, matches, fired_keys)

    # -- kill edges ------------------------------------------------------

    def _run_kills(self, stack, key, view, epoch, index) -> None:
        doomed: list[_Instance] = []
        for guard in self.program.guards:
            if not guard.admission.test(view.msg):
                continue
            for instance in stack:
                if instance.state != guard.guard_state or instance in doomed:
                    continue
                if guard.test(instance.bindings, view, epoch, index):
                    doomed.append(instance)
        for instance in doomed:
            self._remove(key, instance)
            self.stats.kills += 1

    # -- positive transitions --------------------------------------------

    def _run_advances(self, stack, key, view, epoch, index, matches, fired_keys) -> None:
        program = self.program
        window = program.window
        for instance in list(stack):
            state = instance.state
            step = program.steps[state] if state < self._total else None
            # 1) advance to the next step (skip-till-next-match: the first
            #    qualifying event is taken, non-matching events are skipped)
            if (
                step is not None
                and step.admission.test(view.msg)
                and (window is None or view.epoch - instance.anchor <= window)
                and step.test(instance.bindings, view, epoch, index)
            ):
                completing = state + 1 == self._total and not program.absence
                if completing and not step.kleene and program.fire_preds:
                    # completion of a non-Kleene final step also requires
                    # the fire-time predicates; a failing candidate is
                    # skipped, leaving the instance open for a later one
                    env = {**instance.bindings, step.binding: view}
                    if not program.fire(env, None, epoch, index):
                        continue
                instance.bindings[step.binding] = [view] if step.kleene else view
                instance.state = state + 1
                if instance.state == self._total and not program.absence:
                    self._emit(instance, key, epoch, index, matches, fired_keys)
                    if not step.kleene:
                        self._remove(key, instance)
                continue
            # 2) extend an open Kleene+ run with another qualifying event
            if state > 0:
                run_step = program.steps[state - 1]
                if (
                    run_step.kleene
                    and run_step.admission.test(view.msg)
                    and (window is None or view.epoch - instance.anchor <= window)
                    and run_step.test(instance.bindings, view, epoch, index)
                ):
                    instance.bindings[run_step.binding].append(view)
                    if state == self._total and not program.absence:
                        # a trailing Kleene+ re-fires on every extension
                        self._emit(instance, key, epoch, index, matches, fired_keys)

    def _try_create(self, key, view, epoch, index, matches, fired_keys) -> None:
        program = self.program
        step = program.steps[0]
        if view.msg.kind not in step.kinds:
            return
        if not step.test({}, view, epoch, index):
            return
        anchor = view.msg.vs
        if self._total == 1 and not program.absence:
            # single-element patterns complete immediately; nothing is stored
            # unless the only step is Kleene+ (the run stays open for
            # extensions)
            bindings = {step.binding: [view] if step.kleene else view}
            if program.fire(bindings, None, epoch, index):
                instance = _Instance(1, bindings, anchor)
                self._emit(instance, key, epoch, index, matches, fired_keys)
                if step.kleene:
                    self._store(key, instance)
            elif step.kleene:
                self._store(key, _Instance(1, bindings, anchor))
            return
        bindings = {step.binding: [view] if step.kleene else view}
        if program.replace_on_restart:
            stack = self._partitions.get(key)
            if stack:
                # re-arm the pending episode in place: keeps the
                # partition's position in the stack (dict semantics of
                # the legacy catalogue)
                stack[0].rearm(1, bindings, anchor)
                return
        self._store(key, _Instance(1, bindings, anchor))

    # -- window expiry ---------------------------------------------------

    def _expire(self, epoch, index, matches, fired_keys) -> None:
        program = self.program
        window = program.window
        if window is None:
            return
        for key in list(self._partitions):
            stack = self._partitions.get(key)
            if stack is None:
                continue
            for instance in list(stack):
                age = epoch - instance.anchor
                if program.absence and instance.state == self._total:
                    if instance.spent or age < window:
                        continue
                    # the window elapsed without the negated event: fire
                    if program.fire(instance.bindings, None, epoch, index):
                        self._emit(instance, key, epoch, index, matches, fired_keys)
                    if program.replace_on_restart:
                        # stay in the stack, spent: a later re-arm keeps
                        # the partition's iteration position (the legacy
                        # catalogue retained fired entries the same way)
                        instance.spent = True
                    else:
                        self._remove(key, instance)
                elif age > window:
                    self._remove(key, instance)
                    self.stats.prunes += 1

    # -- plumbing --------------------------------------------------------

    def _key_for(self, msg: EventMessage, epoch: int):
        if self._key_field is not None:
            return self._key_field(msg)
        if self._key_values is None:
            return _SHARED
        return self._key_values(None, EventView(msg, epoch), epoch, None)[0]

    def _store(self, key, instance: _Instance) -> None:
        self._partitions.setdefault(key, []).append(instance)
        self.stats.created += 1

    def _remove(self, key, instance: _Instance) -> None:
        stack = self._partitions.get(key)
        if stack is None:
            return
        try:
            stack.remove(instance)
        except ValueError:  # pragma: no cover - defensive
            return
        if not stack:
            del self._partitions[key]

    def _emit(self, instance, key, epoch, index, matches, fired_keys) -> None:
        if fired_keys is not None:
            if key in fired_keys:
                return
            fired_keys.add(key)
        out_key = None if key is _SHARED else key
        # snapshot Kleene runs: the live list keeps growing after emission
        bindings = {
            name: list(value) if isinstance(value, list) else value
            for name, value in instance.bindings.items()
        }
        matches.append(Match(epoch=epoch, bindings=bindings, key=out_key))
        self.stats.matches += 1

    # -- priming from an index -------------------------------------------

    def prime(self, index, epoch: int | None) -> None:
        """Seed instances from state already in force at ``epoch``.

        A subscription arriving mid-stream must not miss episodes that
        began before it: open location/containment intervals and live
        missing states are replayed as synthetic start events carrying
        their true ``vs``, then run through the normal transition logic
        with match emission suppressed.  Single-element patterns without
        a trailing negation need no arming, so priming is a no-op there
        (as it was for the legacy immediate patterns).
        """
        if epoch is None or index is None:
            return
        if self._total == 1 and not self.program.absence and not self.program.steps[0].kleene:
            return
        synthetic: list[EventMessage] = []
        for obj in index.objects():
            for interval in index.path(obj):
                if interval.contains(epoch):
                    synthetic.append(
                        EventMessage(
                            EventKind.START_LOCATION,
                            obj,
                            interval.vs,
                            INFINITY,
                            place=interval.value,
                        )
                    )
            for interval in index.containment_history(obj):
                if interval.contains(epoch):
                    synthetic.append(
                        EventMessage(
                            EventKind.START_CONTAINMENT,
                            obj,
                            interval.vs,
                            INFINITY,
                            container=interval.value,
                        )
                    )
            if index.is_missing(obj, epoch):
                reports = index.missing_reports(obj)
                if reports:
                    since = reports[-1]
                    place = index.location_of(obj, since - 1)
                    synthetic.append(
                        EventMessage(
                            EventKind.MISSING,
                            obj,
                            since,
                            since,
                            place=place if place is not None else UNKNOWN_PLACE,
                        )
                    )
        sink: list[Match] = []
        fired: set | None = set() if self.program.once_per_epoch else None
        emitted = self.stats.matches
        created = self.stats.created
        for msg in synthetic:
            if msg.kind not in self._relevant:
                continue
            view = EventView(msg, epoch)
            key = self._key_for(msg, epoch)
            stack = self._partitions.get(key)
            if stack:
                self._run_advances(stack, key, view, epoch, index, sink, fired)
            self._try_create(key, view, epoch, index, sink, fired)
        # priming arms state; it never reports matches or skews counters
        self.stats.matches = emitted
        self.stats.created = created
