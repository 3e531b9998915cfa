"""Recursive-descent parser for the pattern language.

Grammar (EBNF; keywords are case-insensitive, bindings case-sensitive)::

    pattern     = [ "PATTERN" ] seq [ "ONCE" "PER" "EPOCH" ]
                  [ "WHERE" expr ] [ "WITHIN" integer unit ]
                  [ "RETURN" ret-item { "," ret-item } ] ;
    seq         = "SEQ" "(" element { "," element } ")" ;
    element     = [ "!" ] event-class [ "+" ] identifier ;
    event-class = class-name | "(" class-name { "|" class-name } ")" ;
    class-name  = "arrival" | "departure" | "missing" | "contain"
                | "uncontain" | "location" | "containment" | "any" ;
    unit        = "EPOCHS" | "SECONDS" ;
    ret-item    = expr [ "AS" identifier ] ;
    expr        = and-expr { "OR" and-expr } ;
    and-expr    = not-expr { "AND" not-expr } ;
    not-expr    = "NOT" not-expr | comparison ;
    comparison  = sum [ ( "==" | "!=" | "<" | "<=" | ">" | ">=" ) sum ] ;
    sum         = term { ( "+" | "-" ) term } ;
    term        = integer | string | tag-literal | "now"
                | identifier "." attribute
                | function "(" [ expr { "," expr } ] ")"
                | "(" expr ")" ;
    tag-literal = packaging-level ":" integer ;          (* e.g. case:3 *)

Every syntax error names what was expected and where
(:class:`~repro.sase.errors.PatternSyntaxError` carries the offset),
an expression nested deeper than :data:`MAX_NESTING` included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.model.objects import PackagingLevel, TagId
from repro.sase.ast import (
    And,
    Attr,
    BinOp,
    Cmp,
    Element,
    EVENT_ATTRS,
    EVENT_CLASSES,
    Expr,
    Func,
    KNOWN_FUNCS,
    Literal,
    Not,
    Now,
    Or,
    PatternAST,
    ReturnItem,
)
from repro.sase.errors import PatternSyntaxError

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<op>==|!=|<=|>=|[<>(),!+|.:\-])
    """,
    re.VERBOSE,
)

#: words that may not be used as binding names (they would shadow the
#: keyword/function namespace and make predicates unreadable)
_RESERVED = frozenset(
    {"pattern", "seq", "where", "within", "return", "and", "or", "not", "as",
     "once", "per", "epoch", "now"}
) | KNOWN_FUNCS

_LEVEL_NAMES = frozenset(level.name.lower() for level in PackagingLevel)

#: how many levels an expression may nest: the expression and the
#: parenthesized groups open at any point of its source, and the height
#: of the tree it parses to.  The parser recurses six frames per group
#: and :mod:`repro.sase.nfa` generates one Python parenthesis per tree
#: level plus two (CPython refuses 200), so 64 keeps both far inside the
#: interpreter's limits wherever the compiler is called from.
MAX_NESTING = 64


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'ident' | 'string' | 'op' | 'eof'
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise PatternSyntaxError(
                f"unexpected character {source[pos]!r}", offset=pos
            )
        if match.lastgroup != "ws":
            tokens.append(_Token(match.lastgroup, match.group(), pos))
        pos = match.end()
    tokens.append(_Token("eof", "<end of pattern>", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = _tokenize(source)
        self.index = 0
        self.depth = 0  # parse_expr calls in progress

    # -- token plumbing -------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.index + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def error(self, expected: str, token: _Token | None = None) -> PatternSyntaxError:
        token = token if token is not None else self.peek()
        return PatternSyntaxError(
            f"expected {expected}, got {token.text!r}", offset=token.pos
        )

    def expect_op(self, op: str, context: str) -> _Token:
        token = self.peek()
        if token.kind != "op" or token.text != op:
            raise self.error(f"{op!r} {context}", token)
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        token = self.peek()
        return token.kind == "ident" and token.text.upper() == word

    def take_keyword(self, word: str) -> bool:
        if self.at_keyword(word):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str, context: str) -> None:
        if not self.take_keyword(word):
            raise self.error(f"keyword {word} {context}")

    # -- pattern clauses ------------------------------------------------

    def parse(self) -> PatternAST:
        self.take_keyword("PATTERN")  # the leading keyword is optional
        elements = self.parse_seq()
        once = False
        if self.take_keyword("ONCE"):
            self.expect_keyword("PER", "after ONCE")
            self.expect_keyword("EPOCH", "after ONCE PER")
            once = True
        where = None
        if self.take_keyword("WHERE"):
            where = self.parse_expr()
        within = None
        unit = "epochs"
        if self.take_keyword("WITHIN"):
            token = self.peek()
            if token.kind != "number":
                raise self.error("a window length (integer) after WITHIN", token)
            within = int(self.advance().text)
            unit = self.parse_unit()
        returns: list[ReturnItem] = []
        if self.take_keyword("RETURN"):
            returns.append(self.parse_return_item())
            while self.peek().kind == "op" and self.peek().text == ",":
                self.advance()
                returns.append(self.parse_return_item())
        token = self.peek()
        if token.kind != "eof":
            raise self.error(
                "end of pattern (clause order is SEQ, ONCE PER EPOCH, WHERE, "
                "WITHIN, RETURN)",
                token,
            )
        return PatternAST(
            elements=tuple(elements),
            where=where,
            within=within,
            within_unit=unit,
            once_per_epoch=once,
            returns=tuple(returns),
        )

    def parse_unit(self) -> str:
        token = self.peek()
        if token.kind == "ident":
            unit = token.text.upper()
            if unit in ("EPOCH", "EPOCHS"):
                self.advance()
                return "epochs"
            if unit in ("SECOND", "SECONDS"):
                self.advance()
                return "seconds"
        raise self.error("a window unit: EPOCHS or SECONDS", token)

    def parse_seq(self) -> list[Element]:
        self.expect_keyword("SEQ", "to open the sequence clause")
        self.expect_op("(", "after SEQ")
        elements = [self.parse_element()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            elements.append(self.parse_element())
        self.expect_op(")", "to close SEQ(...)")
        return elements

    def parse_element(self) -> Element:
        negated = False
        if self.peek().kind == "op" and self.peek().text == "!":
            self.advance()
            negated = True
        classes = self.parse_event_class()
        kleene = False
        if self.peek().kind == "op" and self.peek().text == "+":
            self.advance()
            kleene = True
        token = self.peek()
        if token.kind != "ident":
            raise self.error("a binding name after the event class", token)
        if token.text.lower() in _RESERVED:
            raise PatternSyntaxError(
                f"binding name {token.text!r} is reserved", offset=token.pos
            )
        binding = self.advance().text
        return Element(binding=binding, classes=classes, negated=negated, kleene=kleene)

    def parse_event_class(self) -> tuple[str, ...]:
        token = self.peek()
        if token.kind == "op" and token.text == "(":
            self.advance()
            names = [self.parse_class_name()]
            while self.peek().kind == "op" and self.peek().text == "|":
                self.advance()
                names.append(self.parse_class_name())
            self.expect_op(")", "to close the event-class union")
            deduped = tuple(dict.fromkeys(names))
            return deduped
        return (self.parse_class_name(),)

    def parse_class_name(self) -> str:
        token = self.peek()
        if token.kind == "ident" and token.text.lower() in EVENT_CLASSES:
            return self.advance().text.lower()
        raise self.error(
            "an event class (one of " + ", ".join(sorted(EVENT_CLASSES)) + ")", token
        )

    def parse_return_item(self) -> ReturnItem:
        expr = self.parse_expr()
        name = None
        if self.take_keyword("AS"):
            token = self.peek()
            if token.kind != "ident":
                raise self.error("an alias name after AS", token)
            name = self.advance().text
        return ReturnItem(expr=expr, name=name)

    # -- expressions ----------------------------------------------------

    def parse_expr(self) -> Expr:
        start = self.peek()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.too_deep(start)
        parts = [self.parse_and()]
        while self.at_keyword("OR"):
            self.advance()
            parts.append(self.parse_and())
        self.depth -= 1
        expr = parts[0] if len(parts) == 1 else Or(tuple(parts))
        # operator chains (``1 + 1 + ...``, ``NOT NOT ...``) grow the tree
        # without a parenthesis
        if expr.height > MAX_NESTING:
            raise self.too_deep(start)
        return expr

    @staticmethod
    def too_deep(token: _Token) -> PatternSyntaxError:
        return PatternSyntaxError(
            f"expression nests more than {MAX_NESTING} levels deep", offset=token.pos
        )

    def parse_and(self) -> Expr:
        parts = [self.parse_not()]
        while self.at_keyword("AND"):
            self.advance()
            parts.append(self.parse_not())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_not(self) -> Expr:
        negations = 0
        while self.take_keyword("NOT"):  # a loop: a chain of NOTs must not recurse
            negations += 1
        expr = self.parse_comparison()
        for _ in range(negations):
            expr = Not(expr)
        return expr

    def parse_comparison(self) -> Expr:
        left = self.parse_sum()
        token = self.peek()
        if token.kind == "op" and token.text in ("==", "!=", "<", "<=", ">", ">="):
            op = self.advance().text
            return Cmp(op, left, self.parse_sum())
        return left

    def parse_sum(self) -> Expr:
        left = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in ("+", "-"):
            op = self.advance().text
            left = BinOp(op, left, self.parse_term())
        return left

    def parse_term(self) -> Expr:
        token = self.peek()
        if token.kind == "number":
            return Literal(int(self.advance().text))
        if token.kind == "string":
            return Literal(self.advance().text[1:-1])
        if token.kind == "op" and token.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")", "to close the parenthesized expression")
            return inner
        if token.kind == "ident":
            return self.parse_ident_term()
        raise self.error("a value: number, 'string', level:serial tag, "
                         "binding.attr, function(...), or (expr)", token)

    def parse_ident_term(self) -> Expr:
        token = self.advance()
        word = token.text
        follower = self.peek()
        if word.lower() == "now":
            return Now()
        # tag literal: a packaging level, a colon, a serial
        if (
            word.lower() in _LEVEL_NAMES
            and follower.kind == "op"
            and follower.text == ":"
        ):
            self.advance()
            serial = self.peek()
            if serial.kind != "number":
                raise self.error(f"a serial number after {word}:", serial)
            self.advance()
            return Literal(TagId(PackagingLevel[word.upper()], int(serial.text)))
        if follower.kind == "op" and follower.text == "(":
            if word not in KNOWN_FUNCS:
                raise PatternSyntaxError(
                    f"unknown function {word!r}; available: "
                    + ", ".join(sorted(KNOWN_FUNCS)),
                    offset=token.pos,
                )
            self.advance()
            args: list[Expr] = []
            if not (self.peek().kind == "op" and self.peek().text == ")"):
                args.append(self.parse_expr())
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.advance()
                    args.append(self.parse_expr())
            self.expect_op(")", f"to close the {word}(...) call")
            return Func(word, tuple(args))
        if follower.kind == "op" and follower.text == ".":
            self.advance()
            attr = self.peek()
            if attr.kind != "ident" or attr.text.lower() not in EVENT_ATTRS:
                raise self.error(
                    "an event attribute (one of " + ", ".join(EVENT_ATTRS) + ")", attr
                )
            self.advance()
            return Attr(binding=word, name=attr.text.lower())
        raise self.error(
            f"'.', '(' or ':' after {word!r} (bare names are not values)", follower
        )


def parse_pattern_source(source: str) -> PatternAST:
    """Parse pattern text into a :class:`~repro.sase.ast.PatternAST`.

    Raises :class:`~repro.sase.errors.PatternSyntaxError` with the
    offending offset on malformed input.
    """
    if not source or not source.strip():
        raise PatternSyntaxError("empty pattern source")
    return _Parser(source).parse()
