"""Typed AST of the SASE-style pattern language.

A pattern is ``PATTERN SEQ(<elements>) [ONCE PER EPOCH] [WHERE <expr>]
[WITHIN <n> EPOCHS|SECONDS] [RETURN <items>]``.  The AST keeps exactly
what was written (event-class *names*, the window unit, return aliases)
so :func:`unparse` is canonical and ``parse ∘ unparse`` is a fixpoint —
the property the grammar fuzz test pins.

Expressions are untyped trees evaluated against an
:class:`EvalContext`; ``None`` propagates through arithmetic and
function calls, and comparisons involving ``None`` follow Python's
equality semantics (``None == x`` only for ``x is None``; ordering
comparisons with ``None`` are false) — the convention the legacy
catalogue relied on when an index lookup came back empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.events.messages import INFINITY, EventKind, EventMessage

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

#: attributes an expression may read off a bound event (see
#: ``repro.sase.runtime.EventView``); ``left`` is the derived
#: departure time (``ve`` of an EndLocation, ``vs`` of a Missing).
EVENT_ATTRS = ("obj", "place", "container", "vs", "ve", "epoch", "kind", "left")


def event_ve(msg: EventMessage) -> int | None:
    """The ``ve`` attribute: ``None`` while the interval is still open."""
    return None if msg.ve == INFINITY else int(msg.ve)


def event_left(msg: EventMessage) -> int | None:
    """The ``left`` attribute, the derived departure time: when did the
    object stop being where it was?  EndLocation closes at ve; a Missing
    report pins the departure at its vs.  Other kinds have no notion of
    leaving, so the attribute is None (poisoning predicates)."""
    if msg.kind is EventKind.END_LOCATION:
        return int(msg.ve)
    if msg.kind is EventKind.MISSING:
        return msg.vs
    return None


#: built-in functions; ``loc``/``container``/``missing`` consult the live
#: index and therefore force the predicate to fire time (see repro.sase.nfa)
INDEX_FUNCS = frozenset({"loc", "container", "missing"})
PURE_FUNCS = frozenset({"max", "min", "coalesce"})
KNOWN_FUNCS = INDEX_FUNCS | PURE_FUNCS


class EvalContext:
    """Everything an expression may consult during evaluation."""

    __slots__ = ("bindings", "now", "index")

    def __init__(self, bindings: Mapping[str, object], now: int, index=None) -> None:
        self.bindings = bindings
        self.now = now
        self.index = index


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base expression node."""

    def eval(self, ctx: EvalContext):
        raise NotImplementedError

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


@dataclass(frozen=True)
class Literal(Expr):
    """An integer, quoted string, or ``level:serial`` tag literal."""

    value: object

    def eval(self, ctx):
        return self.value

    def unparse(self):
        value = self.value
        if isinstance(value, str):
            return "'" + value + "'"
        if hasattr(value, "level") and hasattr(value, "serial"):  # TagId
            return f"{value.level.name.lower()}:{value.serial}"
        return str(value)


@dataclass(frozen=True)
class Now(Expr):
    """The epoch the predicate is being evaluated at (fire time)."""

    def eval(self, ctx):
        return ctx.now

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

    def eval(self, ctx):
        value = ctx.bindings.get(self.binding)
        if value is None:
            return None
        if isinstance(value, list):
            if not value:
                return None
            value = value[-1]
        return value.attr(self.name)

    def unparse(self):
        return f"{self.binding}.{self.name}"


@dataclass(frozen=True)
class Func(Expr):
    """A built-in call: index lookups and small pure helpers."""

    name: str
    args: tuple[Expr, ...]

    def eval(self, ctx):
        values = [arg.eval(ctx) for arg in self.args]
        if self.name == "coalesce":
            for value in values:
                if value is not None:
                    return value
            return None
        if any(value is None for value in values):
            return None
        if self.name == "max":
            return max(values)
        if self.name == "min":
            return min(values)
        if ctx.index is None:
            return None
        if self.name == "loc":
            return ctx.index.location_of(values[0], values[1])
        if self.name == "container":
            return ctx.index.container_of(values[0], values[1])
        if self.name == "missing":
            return bool(ctx.index.is_missing(values[0], values[1]))
        raise ValueError(f"unknown function {self.name!r}")  # pragma: no cover

    def unparse(self):
        return f"{self.name}({', '.join(arg.unparse() for arg in self.args)})"

    def walk(self):
        yield self
        for arg in self.args:
            yield from arg.walk()


@dataclass(frozen=True)
class BinOp(Expr):
    """Additive arithmetic (``+`` / ``-``); ``None`` poisons the result."""

    op: str
    left: Expr
    right: Expr
    precedence = 5

    def eval(self, ctx):
        left, right = self.left.eval(ctx), self.right.eval(ctx)
        if left is None or right is None:
            return None
        return left + right if self.op == "+" else left - right

    def unparse(self):
        # subtraction is left-associative: parenthesize a BinOp right child
        right_min = 6 if self.op == "-" else 5
        return (
            f"{self._child(self.left, 5)} {self.op} {self._child(self.right, right_min)}"
        )

    def walk(self):
        yield self
        yield from self.left.walk()
        yield from self.right.walk()


#: comparison evaluators; ordering comparisons are False when either
#: side is None, equality follows Python (None == None only)
_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a is not None and b is not None and a < b,
    "<=": lambda a, b: a is not None and b is not None and a <= b,
    ">": lambda a, b: a is not None and b is not None and a > b,
    ">=": lambda a, b: a is not None and b is not None and a >= b,
}


@dataclass(frozen=True)
class Cmp(Expr):
    """A comparison producing a boolean."""

    op: str
    left: Expr
    right: Expr
    precedence = 4

    def eval(self, ctx):
        return _CMP[self.op](self.left.eval(ctx), self.right.eval(ctx))

    def unparse(self):
        return f"{self._child(self.left, 5)} {self.op} {self._child(self.right, 5)}"

    def walk(self):
        yield self
        yield from self.left.walk()
        yield from self.right.walk()


@dataclass(frozen=True)
class Not(Expr):
    """Boolean negation (``NOT expr``)."""

    operand: Expr
    precedence = 3

    def eval(self, ctx):
        return not self.operand.eval(ctx)

    def unparse(self):
        return f"NOT {self._child(self.operand, 3)}"

    def walk(self):
        yield self
        yield from self.operand.walk()


@dataclass(frozen=True)
class And(Expr):
    """N-ary conjunction — kept flat so the compiler can split conjuncts."""

    parts: tuple[Expr, ...]
    precedence = 2

    def eval(self, ctx):
        return all(part.eval(ctx) for part in self.parts)

    def unparse(self):
        return " AND ".join(self._child(part, 3) for part in self.parts)

    def walk(self):
        yield self
        for part in self.parts:
            yield from part.walk()


@dataclass(frozen=True)
class Or(Expr):
    """N-ary disjunction."""

    parts: tuple[Expr, ...]
    precedence = 1

    def eval(self, ctx):
        return any(part.eval(ctx) for part in self.parts)

    def unparse(self):
        return " OR ".join(self._child(part, 2) for part in self.parts)

    def walk(self):
        yield self
        for part in self.parts:
            yield from part.walk()


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
