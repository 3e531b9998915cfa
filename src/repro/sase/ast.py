"""Typed AST of the SASE-style pattern language.

A pattern is ``PATTERN SEQ(<elements>) [ONCE PER EPOCH] [WHERE <expr>]
[WITHIN <n> EPOCHS|SECONDS] [RETURN <items>]``.  The AST keeps exactly
what was written (event-class *names*, the window unit, return aliases)
so :func:`unparse` is canonical and ``parse ∘ unparse`` is a fixpoint —
the property the grammar fuzz test pins.

Expressions are untyped trees and this module only describes them:
:mod:`repro.sase.nfa` translates them to Python source and is the one
place that says how they evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.events.messages import EventKind

#: WITHIN ... SECONDS is converted at this cadence: the paper's readers
#: interrogate once per epoch and the simulator advances one epoch per
#: second of warehouse time, so the two units coincide at 1:1.
EPOCHS_PER_SECOND = 1

#: event-class name -> the message kinds it admits.  ``location`` and
#: ``containment`` are the two kind families of
#: :class:`~repro.events.messages.EventKind`; ``any`` admits everything.
EVENT_CLASSES: dict[str, frozenset[EventKind]] = {
    "arrival": frozenset({EventKind.START_LOCATION}),
    "departure": frozenset({EventKind.END_LOCATION}),
    "missing": frozenset({EventKind.MISSING}),
    "contain": frozenset({EventKind.START_CONTAINMENT}),
    "uncontain": frozenset({EventKind.END_CONTAINMENT}),
    "location": frozenset(
        {EventKind.START_LOCATION, EventKind.END_LOCATION, EventKind.MISSING}
    ),
    "containment": frozenset({EventKind.START_CONTAINMENT, EventKind.END_CONTAINMENT}),
    "any": frozenset(EventKind),
}

#: attributes an expression may read off a bound event; ``left`` is the
#: derived departure time (``ve`` of an EndLocation, ``vs`` of a Missing).
EVENT_ATTRS = ("obj", "place", "container", "vs", "ve", "epoch", "kind", "left")

#: built-in functions; ``loc``/``container``/``missing`` consult the live
#: index and therefore force the predicate to fire time (see repro.sase.nfa)
INDEX_FUNCS = frozenset({"loc", "container", "missing"})
PURE_FUNCS = frozenset({"max", "min", "coalesce"})
KNOWN_FUNCS = INDEX_FUNCS | PURE_FUNCS


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base expression node."""

    def children(self) -> tuple["Expr", ...]:
        return ()

    def __post_init__(self) -> None:
        # levels of nesting below and including this node; set as each
        # node is built, so reading it never recurses
        height = 1 + max((child.height for child in self.children()), default=0)
        object.__setattr__(self, "height", height)

    def unparse(self) -> str:
        raise NotImplementedError

    #: precedence for parenthesization during unparse (higher binds tighter)
    precedence = 7

    def _child(self, child: "Expr", minimum: int) -> str:
        text = child.unparse()
        return f"({text})" if child.precedence < minimum else text

    def walk(self) -> Iterator["Expr"]:
        """This node and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Literal(Expr):
    """An integer, quoted string, or ``level:serial`` tag literal."""

    value: object

    def unparse(self):
        value = self.value
        if isinstance(value, str):
            # the grammar has no escapes: quote with the character the
            # value does not contain (a parsed string never holds both)
            quote = '"' if "'" in value else "'"
            return quote + value + quote
        if hasattr(value, "level") and hasattr(value, "serial"):  # TagId
            return f"{value.level.name.lower()}:{value.serial}"
        return str(value)


@dataclass(frozen=True)
class Now(Expr):
    """The epoch the predicate is being evaluated at (fire time)."""

    def unparse(self):
        return "now"


@dataclass(frozen=True)
class Attr(Expr):
    """``binding.name`` — an attribute of a bound event.

    On a Kleene+ binding the attribute reads the **last** event of the
    run (during consumption that is the event being admitted, so
    per-event predicates see each candidate in turn).
    """

    binding: str
    name: str

    def unparse(self):
        return f"{self.binding}.{self.name}"


@dataclass(frozen=True)
class Func(Expr):
    """A built-in call: index lookups and small pure helpers."""

    name: str
    args: tuple[Expr, ...]

    def children(self):
        return self.args

    def unparse(self):
        return f"{self.name}({', '.join(arg.unparse() for arg in self.args)})"


@dataclass(frozen=True)
class BinOp(Expr):
    """Additive arithmetic (``+`` / ``-``); ``None`` poisons the result."""

    op: str
    left: Expr
    right: Expr
    precedence = 5

    def children(self):
        return (self.left, self.right)

    def unparse(self):
        # subtraction is left-associative: parenthesize a BinOp right child
        right_min = 6 if self.op == "-" else 5
        return (
            f"{self._child(self.left, 5)} {self.op} {self._child(self.right, right_min)}"
        )


@dataclass(frozen=True)
class Cmp(Expr):
    """A comparison producing a boolean."""

    op: str
    left: Expr
    right: Expr
    precedence = 4

    def children(self):
        return (self.left, self.right)

    def unparse(self):
        return f"{self._child(self.left, 5)} {self.op} {self._child(self.right, 5)}"


@dataclass(frozen=True)
class Not(Expr):
    """Boolean negation (``NOT expr``)."""

    operand: Expr
    precedence = 3

    def children(self):
        return (self.operand,)

    def unparse(self):
        return f"NOT {self._child(self.operand, 3)}"


@dataclass(frozen=True)
class And(Expr):
    """N-ary conjunction — kept flat so the compiler can split conjuncts."""

    parts: tuple[Expr, ...]
    precedence = 2

    def children(self):
        return self.parts

    def unparse(self):
        return " AND ".join(self._child(part, 3) for part in self.parts)


@dataclass(frozen=True)
class Or(Expr):
    """N-ary disjunction."""

    parts: tuple[Expr, ...]
    precedence = 1

    def children(self):
        return self.parts

    def unparse(self):
        return " OR ".join(self._child(part, 2) for part in self.parts)


def referenced_bindings(expr: Expr) -> set[str]:
    """Binding names an expression reads."""
    return {node.binding for node in expr.walk() if isinstance(node, Attr)}


def needs_fire_time(expr: Expr) -> bool:
    """Must this expression wait until match completion to evaluate?

    True when it reads ``now`` or consults the live index — index
    answers can change as later messages retro-close intervals, so
    index-dependent predicates are pinned to the match epoch.
    """
    for node in expr.walk():
        if isinstance(node, Now):
            return True
        if isinstance(node, Func) and node.name in INDEX_FUNCS:
            return True
    return False


# ---------------------------------------------------------------------------
# pattern structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Element:
    """One SEQ component: ``[!] class[+] binding``."""

    binding: str
    classes: tuple[str, ...]  # event-class names as written (deduped)
    negated: bool = False
    kleene: bool = False

    def kinds(self) -> frozenset[EventKind]:
        """The event kinds this element admits."""
        kinds: frozenset[EventKind] = frozenset()
        for name in self.classes:
            kinds |= EVENT_CLASSES[name]
        return kinds

    def unparse(self) -> str:
        names = self.classes[0] if len(self.classes) == 1 else f"({' | '.join(self.classes)})"
        return f"{'!' if self.negated else ''}{names}{'+' if self.kleene else ''} {self.binding}"


@dataclass(frozen=True)
class ReturnItem:
    """One RETURN entry: an expression with an optional ``AS`` alias."""

    expr: Expr
    name: str | None = None

    @property
    def label(self) -> str:
        return self.name if self.name is not None else self.expr.unparse()

    def unparse(self) -> str:
        text = self.expr.unparse()
        return f"{text} AS {self.name}" if self.name is not None else text


@dataclass(frozen=True)
class PatternAST:
    """A fully parsed pattern, clause by clause."""

    elements: tuple[Element, ...]
    where: Expr | None = None
    within: int | None = None
    within_unit: str = "epochs"  # 'epochs' | 'seconds', as written
    once_per_epoch: bool = False
    returns: tuple[ReturnItem, ...] = field(default_factory=tuple)

    def window_epochs(self) -> int | None:
        """The WITHIN window normalized to epochs (None = unbounded)."""
        if self.within is None:
            return None
        if self.within_unit == "seconds":
            return self.within * EPOCHS_PER_SECOND
        return self.within


def unparse(ast: PatternAST) -> str:
    """Render a pattern AST back to canonical source text.

    Canonical form: upper-case keywords, lower-case event-class names,
    single spaces, parenthesized unions.  ``parse(unparse(parse(s)))``
    equals ``parse(s)`` for every valid ``s`` (the round-trip fixpoint).
    """
    parts = [f"PATTERN SEQ({', '.join(element.unparse() for element in ast.elements)})"]
    if ast.once_per_epoch:
        parts.append("ONCE PER EPOCH")
    if ast.where is not None:
        parts.append(f"WHERE {ast.where.unparse()}")
    if ast.within is not None:
        parts.append(f"WITHIN {ast.within} {ast.within_unit.upper()}")
    if ast.returns:
        parts.append(f"RETURN {', '.join(item.unparse() for item in ast.returns)}")
    return " ".join(parts)
