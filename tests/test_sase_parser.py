"""Grammar tests for the pattern language (repro.sase.parser).

Three layers: positive grammar cases (every clause and operator),
negative cases pinning the error *messages and offsets*, and a seeded
fuzz test generating random ASTs and checking the ``parse ∘ unparse``
round-trip fixpoint the canonical unparser promises.
"""

from __future__ import annotations

import random

import pytest

from repro.events.messages import EventKind, start_location
from repro.model.objects import PackagingLevel, TagId
from repro.sase import PatternSemanticError, PatternSyntaxError, compile_pattern, unparse
from repro.sase.ast import (
    And,
    Attr,
    BinOp,
    Cmp,
    Element,
    EVENT_ATTRS,
    EVENT_CLASSES,
    Func,
    Literal,
    Not,
    Now,
    Or,
    PatternAST,
    ReturnItem,
)
from repro.sase.nfa import compile_ast
from repro.sase.parser import MAX_NESTING, parse_pattern_source


# ---------------------------------------------------------------------------
# positive grammar cases
# ---------------------------------------------------------------------------


class TestGrammar:
    def test_full_clause_pattern(self):
        ast = parse_pattern_source(
            "PATTERN SEQ(arrival a, !(departure | missing) d) "
            "WHERE a.place == 3 AND d.obj == a.obj "
            "WITHIN 50 EPOCHS RETURN a.obj AS obj, a.vs AS since"
        )
        assert [e.binding for e in ast.elements] == ["a", "d"]
        assert ast.elements[1].negated and ast.elements[1].classes == (
            "departure", "missing",
        )
        assert ast.within == 50 and ast.within_unit == "epochs"
        assert [item.label for item in ast.returns] == ["obj", "since"]

    def test_pattern_keyword_is_optional(self):
        assert parse_pattern_source("SEQ(any e)") == parse_pattern_source(
            "pattern seq(any e)"
        )

    def test_keywords_case_insensitive_bindings_case_sensitive(self):
        ast = parse_pattern_source("seq(arrival Ab) where Ab.place == 1")
        assert ast.elements[0].binding == "Ab"
        assert ast.where == Cmp("==", Attr("Ab", "place"), Literal(1))

    def test_kleene_plus(self):
        ast = parse_pattern_source("SEQ(arrival a, contain+ c, departure d)")
        assert ast.elements[1].kleene and not ast.elements[0].kleene

    def test_union_classes_are_deduped(self):
        ast = parse_pattern_source("SEQ((arrival | missing | arrival) e)")
        assert ast.elements[0].classes == ("arrival", "missing")
        assert ast.elements[0].kinds() == (
            EVENT_CLASSES["arrival"] | EVENT_CLASSES["missing"]
        )

    def test_within_seconds_normalizes_to_epochs(self):
        ast = parse_pattern_source("SEQ(any e) WITHIN 7 SECONDS")
        assert ast.within_unit == "seconds" and ast.window_epochs() == 7

    def test_once_per_epoch_clause(self):
        assert parse_pattern_source("SEQ(any e) ONCE PER EPOCH").once_per_epoch

    def test_tag_literal(self):
        ast = parse_pattern_source("SEQ(any e) WHERE e.obj == case:3")
        assert ast.where.right == Literal(TagId(PackagingLevel.CASE, 3))

    def test_string_literal_and_kind_attr(self):
        ast = parse_pattern_source("SEQ(any e) WHERE e.kind == 'StartLocation'")
        assert ast.where.right == Literal("StartLocation")

    def test_operator_precedence(self):
        ast = parse_pattern_source(
            "SEQ(any e) WHERE NOT e.place == 1 OR e.vs + 2 - 1 > 3 AND e.place == 4"
        )
        # OR binds loosest, then AND, then NOT, then comparisons, then +/-
        assert isinstance(ast.where, Or)
        assert isinstance(ast.where.parts[0], Not)
        assert isinstance(ast.where.parts[1], And)

    def test_functions_and_now(self):
        ast = parse_pattern_source(
            "SEQ(any e) WHERE loc(e.obj, now) == 1 AND "
            "coalesce(container(e.obj, e.vs), e.obj) != e.obj"
        )
        calls = [n.name for n in ast.where.walk() if isinstance(n, Func)]
        assert calls == ["loc", "coalesce", "container"]

    def test_parenthesized_expression(self):
        ast = parse_pattern_source("SEQ(any e) WHERE (e.vs + 1) - 2 == 0")
        assert isinstance(ast.where.left, BinOp) and ast.where.left.op == "-"

    def test_return_without_alias_uses_expression_label(self):
        ast = parse_pattern_source("SEQ(any e) RETURN e.obj, now AS at")
        assert [item.label for item in ast.returns] == ["e.obj", "at"]


# ---------------------------------------------------------------------------
# error reporting: message content and offsets
# ---------------------------------------------------------------------------


class TestErrors:
    @pytest.mark.parametrize("source", ["", "   "])
    def test_empty_source(self, source):
        with pytest.raises(PatternSyntaxError, match="empty pattern"):
            parse_pattern_source(source)

    def test_unexpected_character_carries_offset(self):
        with pytest.raises(PatternSyntaxError) as err:
            parse_pattern_source("SEQ(any e) WHERE e.vs == #")
        assert err.value.offset == 25 and "(at offset 25)" in str(err.value)

    def test_unclosed_seq(self):
        with pytest.raises(PatternSyntaxError, match=r"expected '\)' to close SEQ"):
            parse_pattern_source("SEQ(arrival a")

    def test_missing_binding_name(self):
        with pytest.raises(PatternSyntaxError, match="binding name after the event class"):
            parse_pattern_source("SEQ(arrival)")

    def test_reserved_binding_name(self):
        with pytest.raises(PatternSyntaxError, match="'now' is reserved"):
            parse_pattern_source("SEQ(arrival now)")

    def test_unknown_event_class_lists_alternatives(self):
        with pytest.raises(PatternSyntaxError, match="an event class \\(one of"):
            parse_pattern_source("SEQ(landing e)")

    def test_unknown_function_lists_available(self):
        with pytest.raises(PatternSyntaxError, match="unknown function 'median'"):
            parse_pattern_source("SEQ(any e) WHERE median(e.vs) == 1")

    def test_unknown_attribute_lists_attrs(self):
        with pytest.raises(PatternSyntaxError, match="an event attribute"):
            parse_pattern_source("SEQ(any e) WHERE e.colour == 1")

    def test_bare_identifier_is_not_a_value(self):
        with pytest.raises(PatternSyntaxError, match="bare names are not values"):
            parse_pattern_source("SEQ(any e) WHERE e.obj == thing")

    def test_clause_order_is_named_in_trailing_junk_error(self):
        with pytest.raises(PatternSyntaxError, match="clause order is SEQ"):
            parse_pattern_source("SEQ(any e) WITHIN 5 EPOCHS WHERE e.place == 1")

    def test_window_requires_integer_and_unit(self):
        with pytest.raises(PatternSyntaxError, match="window length"):
            parse_pattern_source("SEQ(any e) WITHIN soon")
        with pytest.raises(PatternSyntaxError, match="EPOCHS or SECONDS"):
            parse_pattern_source("SEQ(any e) WITHIN 5 FORTNIGHTS")

    def test_offset_points_at_the_failing_token(self):
        source = "SEQ(arrival a, departure deux) WHERE deux.obj == a.obj AND ,"
        with pytest.raises(PatternSyntaxError) as err:
            parse_pattern_source(source)
        assert err.value.offset == source.index(",", 30 + 1)


def nested(depth: int) -> str:
    """``NOT (NOT (... e.place == 1 ...))``, ``depth`` times."""
    return "SEQ(any e) WHERE " + "NOT (" * depth + "e.place == 1" + ")" * depth


class TestNesting:
    #: the comparison and its operands are two levels of their own
    DEEPEST = MAX_NESTING - 2
    ITEM = TagId(PackagingLevel.ITEM, 1)

    def matches(self, source, place=1, vs=0):
        runtime = compile_pattern(source).runtime
        return len(runtime.process_epoch(0, [start_location(self.ITEM, place, vs)]))

    def test_the_deepest_accepted_pattern_compiles_and_evaluates(self):
        assert self.DEEPEST % 2 == 0  # an even number of NOTs is none
        assert self.matches(nested(self.DEEPEST), place=1) == 1
        assert self.matches(nested(self.DEEPEST), place=2) == 0

    def test_one_level_more_is_a_syntax_error_with_its_offset(self):
        with pytest.raises(PatternSyntaxError, match="nests more than 64 levels") as err:
            compile_pattern(nested(self.DEEPEST + 1))
        assert err.value.offset == len("SEQ(any e) WHERE ")

    def test_absurd_depth_is_the_same_error_not_a_recursion_error(self):
        with pytest.raises(PatternSyntaxError, match="nests more than") as err:
            compile_pattern(nested(5000))
        # raised on the way down: the expression is level one, and this
        # is what its 64th parenthesis would hold
        assert err.value.offset == len("SEQ(any e) WHERE ") + len("NOT (") * MAX_NESTING
        with pytest.raises(PatternSyntaxError, match="nests more than"):
            compile_pattern("SEQ(any e) WHERE " + "NOT " * 5000 + "e.place == 1")

    def test_operator_chains_count_though_they_open_no_parenthesis(self):
        chain = "SEQ(any e) WHERE e.vs" + " + 1" * self.DEEPEST + f" == {self.DEEPEST}"
        assert self.matches(chain, vs=0) == 1
        with pytest.raises(PatternSyntaxError, match="nests more than"):
            compile_pattern(chain.replace("e.vs", "e.vs + 1"))
        with pytest.raises(PatternSyntaxError, match="nests more than"):
            compile_pattern("SEQ(any e) WHERE e.vs" + " + 1" * 5000 + " == 0")

    def test_the_tallest_tree_generates_source_python_accepts(self):
        # what nests deepest in generated code: another binding's
        # attribute under MAX_NESTING - 1 calls, inside the RETURN tuple
        calls = MAX_NESTING - 1
        pattern = compile_pattern(
            "SEQ(arrival a, arrival b) WHERE b.obj == a.obj "
            "RETURN " + "max(" * calls + "a.ve" + ", 1)" * calls
        )
        assert pattern.ast.returns[0].expr.height == MAX_NESTING
        arrival = start_location(self.ITEM, 1, 0)
        pattern.runtime.process_epoch(0, [arrival])
        (note,) = pattern.evaluate(1, [arrival], None)
        assert note.detail.endswith("=None")  # a.ve is open: None poisons max


class TestSemanticErrors:
    @pytest.mark.parametrize(
        "source, message",
        [
            ("SEQ(arrival a, departure a)", "declared twice"),
            ("SEQ(!arrival+ a, departure d)", "Kleene"),
            ("SEQ(!arrival a, departure d)", "negated element"),
            ("SEQ(!arrival a)", "positive"),
            ("SEQ(arrival a, !departure d)", "WITHIN"),
            ("SEQ(any e) WHERE x.place == 1", "unknown binding"),
        ],
    )
    def test_rejected_patterns(self, source, message):
        with pytest.raises(PatternSemanticError, match=message):
            compile_ast(parse_pattern_source(source))

    @pytest.mark.parametrize(
        "call", ["loc(e.obj)", "container(e.obj, now, 1)", "missing()"]
    )
    def test_index_function_arity_is_checked_at_compile_time(self, call):
        source = f"SEQ(any e) WHERE {call} == 1"
        with pytest.raises(PatternSemanticError, match=r"takes \(object, epoch\)"):
            compile_ast(parse_pattern_source(source))
        with pytest.raises(PatternSemanticError, match=r"takes \(object, epoch\)"):
            compile_pattern(f"SEQ(any e) RETURN {call}")

    def test_fire_time_predicate_on_negated_binding(self):
        source = (
            "SEQ(arrival a, !departure d) "
            "WHERE loc(d.obj, now) == 1 WITHIN 5 EPOCHS"
        )
        with pytest.raises(PatternSemanticError, match="fire time"):
            compile_ast(parse_pattern_source(source))


# ---------------------------------------------------------------------------
# fuzz: random ASTs round-trip through unparse -> parse
# ---------------------------------------------------------------------------

_CLASS_NAMES = sorted(EVENT_CLASSES)
_BINDINGS = "abcdefgh"
#: the grammar has no escapes: a string holds one kind of quote at most
_STRINGS = ["s0", "s1", "s2", "s3", "s4", "s5", "it's", 'say "hi"', "'", '"']


def _random_expr(rng: random.Random, bindings: list[str], depth: int):
    if depth <= 0 or rng.random() < 0.3:
        leaf = rng.randrange(5)
        if leaf == 0:
            return Literal(rng.randrange(100))
        if leaf == 1:
            return Literal(_STRINGS[rng.randrange(10)])
        if leaf == 2:
            return Literal(TagId(rng.choice(list(PackagingLevel)), rng.randrange(50)))
        if leaf == 3:
            return Now()
        return Attr(rng.choice(bindings), rng.choice(EVENT_ATTRS))

    shape = rng.randrange(6)
    sub = lambda: _random_expr(rng, bindings, depth - 1)  # noqa: E731
    if shape == 0:
        return Cmp(rng.choice(["==", "!=", "<", "<=", ">", ">="]), sub(), sub())
    if shape == 1:
        return BinOp(rng.choice(["+", "-"]), sub(), sub())
    if shape == 2:
        return Not(sub())
    if shape == 3:
        return And(tuple(sub() for _ in range(rng.randrange(2, 4))))
    if shape == 4:
        return Or(tuple(sub() for _ in range(rng.randrange(2, 4))))
    name = rng.choice(["max", "min", "coalesce", "loc", "container", "missing"])
    arity = rng.randrange(1, 4) if name == "coalesce" else 2
    return Func(name, tuple(sub() for _ in range(arity)))


def _random_ast(rng: random.Random) -> PatternAST:
    count = rng.randrange(1, 5)
    bindings = list(_BINDINGS[:count])
    elements = []
    for position, binding in enumerate(bindings):
        classes = tuple(
            dict.fromkeys(
                rng.sample(_CLASS_NAMES, rng.randrange(1, 4))
            )
        )
        negated = position > 0 and rng.random() < 0.3
        elements.append(
            Element(
                binding=binding,
                classes=classes,
                negated=negated,
                kleene=not negated and rng.random() < 0.2,
            )
        )
    where = (
        _random_expr(rng, bindings, depth=rng.randrange(1, 4))
        if rng.random() < 0.8
        else None
    )
    returns = tuple(
        ReturnItem(
            expr=_random_expr(rng, bindings, depth=2),
            name=f"r{i}" if rng.random() < 0.5 else None,
        )
        for i in range(rng.randrange(0, 3))
    )
    return PatternAST(
        elements=tuple(elements),
        where=where,
        within=rng.randrange(1, 200) if rng.random() < 0.6 else None,
        within_unit=rng.choice(["epochs", "seconds"]),
        once_per_epoch=rng.random() < 0.2,
        returns=returns,
    )


@pytest.mark.parametrize("seed", range(8))
def test_unparse_parse_roundtrip_fixpoint(seed):
    rng = random.Random(0xC0C1 + seed)
    for _ in range(50):
        ast = _random_ast(rng)
        source = unparse(ast)
        reparsed = parse_pattern_source(source)
        assert unparse(reparsed) == source, source
        assert parse_pattern_source(unparse(reparsed)) == reparsed


def test_roundtrip_of_the_library_sources():
    """Every shipped catalogue definition survives the round trip."""
    from repro.model.objects import PackagingLevel, TagId
    from repro.sase import library

    patterns = [
        library.tail(obj=TagId(PackagingLevel.CASE, 3), place=7),
        library.object_watch(TagId(PackagingLevel.ITEM, 12)),
        library.place_watch(4),
        library.dwell_exceeded(place=2, k=9),
        library.missing_overdue(k=5),
        library.left_without_container(place=6),
    ]
    for pattern in patterns:
        reparsed = parse_pattern_source(pattern.source)
        assert parse_pattern_source(unparse(reparsed)) == reparsed
