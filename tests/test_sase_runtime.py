"""Runtime semantics of compiled patterns on hand-built streams.

Each test drives :class:`repro.sase.runtime.PatternRuntime` (through
``compile_pattern(...).runtime``) with explicit event messages, pinning
the SEQ/Kleene/negation/window/partition/ONCE-PER-EPOCH behaviors the
byte-equivalence suite then exercises at scale.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.events.messages import (
    EventKind,
    end_containment,
    end_location,
    missing,
    start_containment,
    start_location,
)
from repro.model.objects import PackagingLevel, TagId
from repro.query.index import EventStreamIndex
from repro.sase import PatternSemanticError, compile_pattern, library
from repro.sase.ast import (
    EVENT_ATTRS,
    INDEX_FUNCS,
    PURE_FUNCS,
    And,
    Attr,
    BinOp,
    Cmp,
    Func,
    Literal,
    Not,
    Now,
    Or,
)
from repro.sase.nfa import Admission, compile_ast, compile_exprs
from repro.sase.runtime import EventView, PatternRuntime
from repro.serving.engine import StandingQueryEngine
from tests import sase_reference
from tests.test_sase_parser import _random_ast

ITEM = TagId(PackagingLevel.ITEM, 1)
OTHER = TagId(PackagingLevel.ITEM, 2)
CASE = TagId(PackagingLevel.CASE, 9)


def run(pattern, *epochs, index=None):
    """Feed ``(epoch, [messages])`` pairs; return the flat match list."""
    matches = []
    for epoch, messages in epochs:
        matches.extend(pattern.runtime.process_epoch(epoch, messages, index))
    return matches


class TestSequencing:
    def test_two_step_sequence_with_equivalence(self):
        pattern = compile_pattern(
            "SEQ(arrival a, departure d) WHERE d.obj == a.obj"
        )
        matches = run(
            pattern,
            (1, [start_location(ITEM, 3, 1)]),
            (2, []),
            (3, [end_location(ITEM, 3, 1, 3)]),
        )
        assert len(matches) == 1
        match = matches[0]
        assert match.epoch == 3 and match.key == ITEM
        assert match.bindings["a"].msg.place == 3
        assert match.bindings["d"].msg.ve == 3

    def test_skip_till_next_match_ignores_irrelevant_events(self):
        pattern = compile_pattern(
            "SEQ(arrival a, departure d) WHERE d.obj == a.obj AND d.place == a.place"
        )
        matches = run(
            pattern,
            (1, [start_location(ITEM, 3, 1)]),
            # a containment event and another object's departure interleave
            (2, [start_containment(ITEM, CASE, 2), end_location(OTHER, 3, 0, 2)]),
            (4, [end_location(ITEM, 3, 1, 4)]),
        )
        assert [m.epoch for m in matches] == [4]

    def test_partitions_are_independent(self):
        pattern = compile_pattern(
            "SEQ(arrival a, departure d) WHERE d.obj == a.obj"
        )
        matches = run(
            pattern,
            (1, [start_location(ITEM, 3, 1), start_location(OTHER, 4, 1)]),
            (2, [end_location(OTHER, 4, 1, 2)]),
            (3, [end_location(ITEM, 3, 1, 3)]),
        )
        assert [(m.key, m.epoch) for m in matches] == [(OTHER, 2), (ITEM, 3)]
        assert pattern.runtime.partition_count == 0  # all stacks drained


class TestWindow:
    def test_window_blocks_late_completions(self):
        pattern = compile_pattern(
            "SEQ(arrival a, departure d) WHERE d.obj == a.obj WITHIN 2 EPOCHS"
        )
        matches = run(
            pattern,
            (1, [start_location(ITEM, 3, 1)]),
            (5, [end_location(ITEM, 3, 1, 5)]),
        )
        assert matches == []
        # the expired instance was pruned, not left to leak
        assert pattern.runtime.active_instances == 0
        assert pattern.runtime.stats.prunes == 1

    def test_window_is_anchored_at_the_first_events_vs(self):
        pattern = compile_pattern(
            "SEQ(arrival a, departure d) WHERE d.obj == a.obj WITHIN 3 EPOCHS"
        )
        # the arrival message is delivered at epoch 3 but its interval
        # opened at vs=1: the window counts from vs
        matches = run(
            pattern,
            (3, [start_location(ITEM, 3, 1)]),
            (4, [end_location(ITEM, 3, 1, 4)]),
        )
        assert [m.epoch for m in matches] == [4]


class TestKleene:
    def test_trailing_kleene_refires_per_extension(self):
        pattern = compile_pattern(
            "SEQ(arrival a, contain+ c) WHERE c.obj == a.obj"
        )
        matches = run(
            pattern,
            (1, [start_location(ITEM, 3, 1)]),
            (2, [start_containment(ITEM, CASE, 2)]),
            (3, [start_containment(ITEM, TagId(PackagingLevel.CASE, 10), 3)]),
        )
        assert [m.epoch for m in matches] == [2, 3]
        assert [len(m.bindings["c"]) for m in matches] == [1, 2]

    def test_kleene_attr_reads_the_last_event_of_the_run(self):
        pattern = compile_pattern(
            "SEQ(arrival a, contain+ c) WHERE c.obj == a.obj AND c.vs > 2"
        )
        matches = run(
            pattern,
            (1, [start_location(ITEM, 3, 1)]),
            (2, [start_containment(ITEM, CASE, 2)]),  # vs=2 rejected
            (3, [start_containment(ITEM, CASE, 3)]),  # vs=3 admitted
        )
        assert [m.epoch for m in matches] == [3]


class TestNegationAsAbsence:
    DWELL = (
        "SEQ(arrival a, !departure d) "
        "WHERE a.place == 3 AND d.obj == a.obj AND d.place == 3 "
        "WITHIN 3 EPOCHS"
    )

    def test_fires_when_the_window_elapses_without_the_negated_event(self):
        pattern = compile_pattern(self.DWELL)
        matches = run(
            pattern,
            (0, [start_location(ITEM, 3, 0)]),
            (1, []), (2, []), (3, []),
        )
        assert [m.epoch for m in matches] == [3]

    def test_negated_event_kills_the_pending_instance(self):
        pattern = compile_pattern(self.DWELL)
        matches = run(
            pattern,
            (0, [start_location(ITEM, 3, 0)]),
            (2, [end_location(ITEM, 3, 0, 2)]),
            (3, []), (4, []),
        )
        assert matches == [] and pattern.runtime.stats.kills == 1

    def test_kill_at_another_place_does_not_apply(self):
        pattern = compile_pattern(self.DWELL)
        matches = run(
            pattern,
            (0, [start_location(ITEM, 3, 0)]),
            (2, [end_location(ITEM, 7, 0, 2)]),  # departure elsewhere
            (3, []),
        )
        assert [m.epoch for m in matches] == [3]

    def test_rearm_after_fire_fires_again(self):
        pattern = compile_pattern(self.DWELL)
        matches = run(
            pattern,
            (0, [start_location(ITEM, 3, 0)]),
            (3, []),  # first fire
            (5, [start_location(ITEM, 3, 5)]),  # re-arm the same partition
            (6, []), (7, []), (8, []),
        )
        assert [m.epoch for m in matches] == [3, 8]

    def test_spent_instance_does_not_refire(self):
        pattern = compile_pattern(self.DWELL)
        matches = run(
            pattern,
            (0, [start_location(ITEM, 3, 0)]),
            (3, []), (4, []), (5, []),
        )
        assert [m.epoch for m in matches] == [3]


class TestOncePerEpoch:
    def test_deduplicates_within_one_epoch_by_partition_key(self):
        pattern = compile_pattern("SEQ(location e) ONCE PER EPOCH")
        matches = run(
            pattern,
            (1, [start_location(ITEM, 3, 1), end_location(ITEM, 3, 1, 1),
                 start_location(OTHER, 4, 1)]),
            (2, [start_location(ITEM, 5, 2)]),
        )
        # epoch 1: ITEM fires once (two events), OTHER once; epoch 2 resets
        assert [(m.epoch, m.key) for m in matches] == [
            (1, ITEM), (1, OTHER), (2, ITEM),
        ]


class TestPrime:
    DWELL = TestNegationAsAbsence.DWELL

    def test_prime_arms_open_intervals_with_their_true_vs(self):
        pattern = compile_pattern(self.DWELL)
        index = EventStreamIndex([start_location(ITEM, 3, 2)])
        pattern.prime(index, 4)
        assert pattern.runtime.active_instances == 1
        # window counts from vs=2: fires at epoch 5 (age 3)
        matches = run(pattern, (5, []), index=index)
        assert [m.epoch for m in matches] == [5]
        # priming never skews the counters the metrics report
        assert pattern.runtime.stats.matches == 1

    def test_prime_is_a_noop_for_immediate_patterns(self):
        pattern = compile_pattern("SEQ(any e)")
        index = EventStreamIndex([start_location(ITEM, 3, 2)])
        pattern.prime(index, 4)
        assert pattern.runtime.active_instances == 0

    def test_prime_replays_missing_state(self):
        pattern = compile_pattern(
            "SEQ(missing m, !arrival a) WHERE a.obj == m.obj WITHIN 3 EPOCHS"
        )
        index = EventStreamIndex([
            start_location(ITEM, 3, 0),
            end_location(ITEM, 3, 0, 2),
            missing(ITEM, 3, 2),
        ])
        pattern.prime(index, 3)
        matches = run(pattern, (5, []), index=index)
        assert [m.epoch for m in matches] == [5]  # vs=2 + window 3


# ---------------------------------------------------------------------------
# admission skip and routing vs a runtime that scans everything
# ---------------------------------------------------------------------------

OBJECTS = [ITEM, OTHER, CASE]
CONTAINERS = [CASE, TagId(PackagingLevel.PALLET, 1)]


def scan_everything(program):
    """The same NFA with nothing pushed down: each element's admission
    only tests the kind, by set membership, and implies no key — the
    evaluation this repository had before events were routed."""

    def kinds_only(element):
        kinds = element.kinds
        return replace(element, admission=Admission(lambda m: m.kind in kinds, None))

    return replace(
        program,
        steps=tuple(kinds_only(step) for step in program.steps),
        guards=tuple(kinds_only(guard) for guard in program.guards),
    )


def routed(program, batch):
    """What ``StandingQueryEngine._route`` hands this program."""
    if program.routing is None:
        return batch
    kinds, keys = program.routing
    return [
        msg
        for msg in batch
        if msg.kind in kinds or any(getattr(msg, name) == value for name, value in keys)
    ]


def observable(matches):
    return [
        (
            match.epoch,
            match.key,
            {
                name: [view.msg for view in bound] if isinstance(bound, list) else bound.msg
                for name, bound in match.bindings.items()
            },
        )
        for match in matches
    ]


def counters(runtime):
    stats = runtime.stats
    return (stats.matches, stats.kills, stats.prunes, stats.created, stats.epochs)


@st.composite
def own_event_conjunct(draw, bindings):
    """A WHERE conjunct over the small value domains of ``batches``: the
    shapes admission decides, and the ones it must leave alone."""
    x = draw(st.sampled_from(bindings))
    n = Literal(draw(st.integers(0, 6)))
    place = Literal(draw(st.integers(1, 3)))
    tag = Literal(draw(st.sampled_from(OBJECTS + CONTAINERS)))
    if draw(st.booleans()):  # the shapes that imply routing keys
        shapes = [
            Cmp("==", Attr(x, "place"), place),
            Cmp("==", place, Attr(x, "place")),
            Cmp("==", Attr(x, "container"), tag),
            Or((Cmp("==", Attr(x, "obj"), tag), Cmp("==", Attr(x, "container"), tag))),
            Or((Cmp("==", Attr(x, "vs"), n), Cmp("==", Attr(x, "place"), place))),
        ]
    else:
        shapes = [
            Not(Cmp("==", Attr(x, "place"), place)),
            Or((Cmp("==", Attr(x, "obj"), tag), Cmp("!=", Attr(x, "place"), place))),
            Cmp(draw(st.sampled_from(["<", ">="])), Attr(x, "ve"), n),
            Cmp(draw(st.sampled_from(["<=", ">"])), Attr(x, "left"), n),
            Cmp("!=", Attr(x, "vs"), n),
            Cmp("==", Attr(x, "kind"), Literal("Missing")),
            Cmp("<", Attr(x, "place"), Literal("s1")),  # a type error when place is set
            Cmp(">", Attr(x, "epoch"), n),
        ]
        if len(bindings) > 1:
            y = draw(st.sampled_from([b for b in bindings if b != x]))
            shapes.append(Cmp("==", Attr(y, "obj"), Attr(x, "obj")))
            shapes.append(Cmp("==", Attr(y, "place"), Attr(x, "place")))
    return draw(st.sampled_from(shapes))


@st.composite
def programs(draw):
    """A pattern of the grammar fuzzer (tests/test_sase_parser.py) that
    compiles, with conjuncts of ``own_event_conjunct`` added to its WHERE."""
    seed = draw(st.integers(0, 1 << 20))
    for attempt in range(64):
        ast = _random_ast(random.Random(seed + attempt))
        bindings = [element.binding for element in ast.elements]
        extra = draw(st.lists(own_event_conjunct(bindings), max_size=4))
        parts = list(ast.where.parts) if isinstance(ast.where, And) else [ast.where]
        if ast.where is None or draw(st.booleans()):
            parts = []  # the fuzzer's predicates rarely let anything match
        parts = [*extra[:2], *parts, *extra[2:]]
        where = None if not parts else parts[0] if len(parts) == 1 else And(tuple(parts))
        window = draw(st.none() | st.integers(1, 6)) if ast.within is None else draw(
            st.integers(1, 6)
        )
        try:
            return compile_ast(replace(ast, where=where, within=window))
        except PatternSemanticError:
            continue
    assume(False)


@st.composite
def batches(draw):
    """Per-epoch event batches over three objects and three places."""
    out = []
    epoch = 0
    for _ in range(draw(st.integers(1, 8))):
        epoch += draw(st.integers(1, 3))
        batch = []
        for _ in range(draw(st.integers(0, 6))):
            obj = draw(st.sampled_from(OBJECTS))
            vs = draw(st.integers(0, epoch))
            kind = draw(st.sampled_from(list(EventKind)))
            if kind is EventKind.START_LOCATION:
                msg = start_location(obj, draw(st.integers(1, 3)), vs)
            elif kind is EventKind.END_LOCATION:
                msg = end_location(obj, draw(st.integers(1, 3)), vs, draw(st.integers(vs, epoch)))
            elif kind is EventKind.MISSING:
                msg = missing(obj, draw(st.integers(1, 3)), vs)
            elif kind is EventKind.START_CONTAINMENT:
                msg = start_containment(obj, draw(st.sampled_from(CONTAINERS)), vs)
            else:
                msg = end_containment(
                    obj, draw(st.sampled_from(CONTAINERS)), vs, draw(st.integers(vs, epoch))
                )
            batch.append(msg)
            if draw(st.integers(0, 9)) == 0:
                batch.append(msg)  # the same object twice: still two events
        out.append((epoch, batch))
    return out


@settings(max_examples=500, deadline=None)
@given(program=programs(), stream=batches())
def test_admission_and_routing_change_nothing(program, stream):
    """Matches, their order and the counters equal those of a runtime
    that is handed every event and pushes no predicate down — whether the
    real one sees the full batch or only what the engine would route."""
    reference = PatternRuntime(scan_everything(program))
    full = PatternRuntime(program)
    keyed = PatternRuntime(program)
    for epoch, batch in stream:
        try:
            expected = observable(reference.process_epoch(epoch, batch))
        except Exception as error:  # an ill-typed predicate: all three must agree
            for runtime, offered in ((full, batch), (keyed, routed(program, batch))):
                with pytest.raises(type(error)):
                    runtime.process_epoch(epoch, offered)
            return
        assert observable(full.process_epoch(epoch, batch)) == expected
        assert observable(keyed.process_epoch(epoch, routed(program, batch))) == expected
        assert counters(full) == counters(keyed) == counters(reference)
    assert keyed.stats.offered <= full.stats.offered == reference.stats.offered
    assert keyed.stats.admitted <= full.stats.admitted <= reference.stats.admitted


def unrouted(pattern):
    """``pattern`` the way the engine ran it before routing: it asks for
    every event, and its runtime pushes no predicate down."""
    pattern.routing = lambda: None
    pattern.runtime = PatternRuntime(scan_everything(pattern.program))
    return pattern


def test_routed_publish_equals_full_batch_publish():
    """Two engines, one routing and one handing every pattern the whole
    batch, deliver the same notifications to the same subscriptions while
    patterns join late, share runtimes, retire, return and are evicted."""
    from tests.test_sase_equivalence import _interpret

    stream, places = _interpret(17)
    case = TagId(PackagingLevel.CASE, 1)
    builders = {
        "tail": library.tail,
        "tail_at": lambda: library.tail(obj=case, place=places[0]),
        "object": lambda: library.object_watch(case),
        "place": lambda: library.place_watch(places[1]),
        "dwell": lambda: library.dwell_exceeded(places[0], 5),
        "overdue": lambda: library.missing_overdue(5),
        "left": lambda: library.left_without_container(places[0]),
        "moved": lambda: compile_pattern(
            f"SEQ(departure d, arrival a) WHERE d.place == {places[0]} AND a.obj == d.obj "
            f"AND a.place != {places[0]} WITHIN 30 EPOCHS RETURN a.obj, d.left"
        ),
        "run": lambda: compile_pattern(
            f"SEQ(arrival a, location+ b) WHERE a.place == {places[1]} AND b.obj == a.obj "
            "WITHIN 8 EPOCHS"
        ),
        "unpartitioned": lambda: compile_pattern(
            f"SEQ(uncontain u, arrival a) WHERE a.place == {places[0]} WITHIN 3 EPOCHS"
        ),
    }
    third = len(stream) // 3
    # epoch position -> (subscribe these, cancel these, by builder name)
    script = {
        0: (["tail", "tail_at", "object", "dwell", "overdue", "left", "moved"], []),
        third: (["place", "dwell", "run", "unpartitioned", "overdue"], ["tail_at"]),
        # both "dwell" members leave: the runtime retires, then returns primed
        2 * third - 5: ([], ["dwell", "dwell", "moved"]),
        2 * third: (["dwell", "moved", "tail_at"], ["object"]),
    }
    routing = StandingQueryEngine(expand_level2=True, evict_after=2)
    scanning = StandingQueryEngine(expand_level2=True, evict_after=2)
    # a consumer that never drains: evicted in the middle of a publish
    stalled = [
        engine.subscribe(wrap(library.place_watch(places[0])), max_queue=1).sub_id
        for engine, wrap in ((routing, lambda p: p), (scanning, unrouted))
    ]
    assert stalled[0] == stalled[1]
    live: dict[str, list[int]] = {}
    for position, (epoch, messages) in enumerate(stream):
        subscribe, cancel = script.get(position, ([], []))
        for name in cancel:
            sub_id = live[name].pop(0)
            assert routing.unsubscribe(sub_id) and scanning.unsubscribe(sub_id)
        for name in subscribe:
            sub = routing.subscribe(builders[name](), max_queue=1 << 20)
            twin = scanning.subscribe(unrouted(builders[name]()), max_queue=1 << 20)
            assert sub.sub_id == twin.sub_id
            live.setdefault(name, []).append(sub.sub_id)
        assert routing.publish(epoch, messages) == scanning.publish(epoch, messages)
        assert routing.evicted == scanning.evicted
        assert routing.subscriptions.keys() == scanning.subscriptions.keys()
        for sub_id in routing.subscriptions:
            if sub_id not in stalled:
                assert routing.drain(sub_id) == scanning.drain(sub_id), (epoch, sub_id)
    assert routing.stats.subscriptions_evicted == 1
    assert routing.stats.notifications_delivered == scanning.stats.notifications_delivered > 0
    ours, theirs = (
        {s["name"]: s["value"] for s in e.metrics_snapshot()["series"] if "value" in s}
        for e in (routing, scanning)
    )
    for name in ("matches", "kills", "prunes"):
        assert ours[f"spire_sase_{name}_total"] == theirs[f"spire_sase_{name}_total"] > 0
    offered, admitted = "spire_sase_events_offered_total", "spire_sase_events_admitted_total"
    assert ours[admitted] <= ours[offered] < theirs[offered]
    assert ours[admitted] < theirs[admitted]
    # every runtime that retired took its routes with it
    for engine in (routing, scanning):
        for sub_id in list(engine.subscriptions):
            engine.unsubscribe(sub_id)
        assert not any(engine._kind_routes.values())
        assert not any(table for _getter, table in engine._key_routes.values())


# ---------------------------------------------------------------------------
# the generated evaluator vs the tree walk it replaced
# ---------------------------------------------------------------------------

NAMES = ["a", "b"]
EVERY_READ = [Attr(name, attr) for name in NAMES + ["unbound"] for attr in EVENT_ATTRS]


@st.composite
def events(draw):
    """One bound event: every kind, so ``place``/``container`` are
    ``None`` on some and ``ve`` is open on the start events."""
    obj = draw(st.sampled_from(OBJECTS))
    vs = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(list(EventKind)))
    if kind is EventKind.START_LOCATION:
        msg = start_location(obj, draw(st.integers(1, 3)), vs)
    elif kind is EventKind.END_LOCATION:
        msg = end_location(obj, draw(st.integers(1, 3)), vs, vs + draw(st.integers(0, 3)))
    elif kind is EventKind.MISSING:
        msg = missing(obj, draw(st.integers(1, 3)), vs)
    elif kind is EventKind.START_CONTAINMENT:
        msg = start_containment(obj, draw(st.sampled_from(CONTAINERS)), vs)
    else:
        msg = end_containment(obj, draw(st.sampled_from(CONTAINERS)), vs, vs + 1)
    return EventView(msg, draw(st.integers(0, 9)))


def expressions():
    """Expression trees over ``NAMES`` and one name no environment binds:
    mixed-type literals, every attribute, every operator, functions at
    every arity up to three, booleans as operands."""
    constants = st.one_of(
        st.integers(0, 6).map(Literal),
        st.sampled_from(["s1", "Missing", ""]).map(Literal),
        st.sampled_from(OBJECTS + CONTAINERS).map(Literal),
        st.just(Now()),
    )
    attributes = st.builds(
        Attr, st.sampled_from(NAMES + ["unbound"]), st.sampled_from(EVENT_ATTRS)
    )
    leaves = attributes | constants  # half of all leaves read an event

    def grow(sub):
        return st.one_of(
            st.builds(Cmp, st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), sub, sub),
            st.builds(BinOp, st.sampled_from(["+", "-"]), sub, sub),
            st.builds(Not, sub),
            st.lists(sub, max_size=3).map(lambda parts: And(tuple(parts))),
            st.lists(sub, max_size=3).map(lambda parts: Or(tuple(parts))),
            st.builds(
                Func,
                st.sampled_from(sorted(PURE_FUNCS)),
                st.lists(sub, max_size=3).map(tuple),
            ),
            # (object, epoch): any other arity does not compile
            st.builds(Func, st.sampled_from(sorted(INDEX_FUNCS)), st.tuples(sub, sub)),
        )

    return st.recursive(leaves, grow, max_leaves=12)


@st.composite
def environments(draw):
    """``(bindings, own, view, now, index)``: each name bound to an event,
    to a Kleene+ run (an empty one too), to nothing, or absent."""
    bindings = {}
    for name in NAMES:
        shape = draw(st.integers(0, 5))
        if shape < 2:
            bindings[name] = draw(events())
        elif shape < 4:
            bindings[name] = draw(st.lists(events(), max_size=3))
        elif shape == 4:
            bindings[name] = None
    own = draw(st.none() | st.sampled_from(NAMES))
    view = draw(events()) if own is not None else None
    index = None
    if draw(st.booleans()):
        index = EventStreamIndex([
            start_location(ITEM, 1, 0),
            start_containment(ITEM, CASE, 0),
            start_location(CASE, 1, 0),
            end_location(ITEM, 1, 0, 3),
            missing(ITEM, 1, 3),
        ])
    return bindings, own, view, draw(st.integers(0, 9)), index


def outcome(function, *args):
    """``("=", value)`` or ``("!", exception type)``."""
    try:
        return "=", function(*args)
    except Exception as error:
        return "!", type(error)


@settings(max_examples=500, deadline=None)
@given(exprs=st.lists(expressions(), min_size=1, max_size=4), environment=environments())
def test_generated_functions_equal_the_reference_evaluator(exprs, environment):
    """Value for value and type for type, or the same exception out of
    the same conjunct: what ``compile_exprs`` generates is what
    ``tests/sase_reference.py`` computes by walking the tree."""
    bindings, own, view, now, index = environment
    kleene = frozenset(name for name, bound in bindings.items() if isinstance(bound, list))
    env = bindings if own is None else {**bindings, own: view}
    for expr in [*exprs, *EVERY_READ]:
        generated = compile_exprs((expr,), own, kleene, conjoin=False)
        got = outcome(lambda: generated(bindings, view, now, index)[0])
        want = outcome(sase_reference.evaluate, expr, env, now, index)
        assert got == want and type(got[1]) is type(want[1]), (expr.unparse(), got, want)
    # as the conjuncts of one predicate: evaluated in order, stopping at
    # the first that is false — or that raises
    verdicts = []
    for expr in exprs:
        verdicts.append(outcome(lambda: bool(sase_reference.evaluate(expr, env, now, index))))
        if verdicts[-1] != ("=", True):
            break
    conjoined = compile_exprs(tuple(exprs), own, kleene)
    got = outcome(lambda: bool(conjoined(bindings, view, now, index)))
    assert got == verdicts[-1]
    before = compile_exprs(tuple(exprs[: len(verdicts) - 1]), own, kleene)
    assert before(bindings, view, now, index)


def test_client_text_reaches_generated_code_only_as_data():
    """Literals go in through the function's namespace and bindings get
    compiler-chosen locals: nothing a client wrote is ever source."""
    hostile = '" + __import__("os").system("true") #\n\\'
    pattern = compile_pattern(
        f"SEQ(arrival class, departure lambda) "
        f"WHERE lambda.obj == class.obj AND class.kind != '{hostile}' "
        f"RETURN '{hostile}' AS text, lambda.kind == '{hostile}' AS same"
    )
    assert pattern.evaluate(1, [start_location(ITEM, 3, 1)], None) == []
    (note,) = pattern.evaluate(2, [end_location(ITEM, 3, 1, 2)], None)
    assert note.detail == f"text={hostile}, same=False"
