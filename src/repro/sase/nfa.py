"""AST → NFA compilation: predicates, push-down and partition inference.

The compiler lowers a :class:`~repro.sase.ast.PatternAST` into an
:class:`NfaProgram` the runtime executes directly:

* **positive steps** — one NFA state per non-negated SEQ element; an
  instance's ``state`` counts how many steps it has consumed;
* **negation guards** — a negated element becomes a *kill edge* attached
  to the state it interrupts: an event matching the guard while an
  instance sits at that state kills the instance.  A guard after the
  last positive element makes the pattern an **absence** pattern: the
  match fires when the WITHIN window elapses without a kill
  (negation-as-absence, the SASE trailing-negation semantics);
* **predicate push-down** — WHERE is split at top-level ANDs and each
  conjunct is evaluated at the earliest point all its bindings exist:
  at consume time of its latest positive binding, at kill-check time
  for a negated binding, or at fire time when it reads ``now`` / the
  live index (index answers can change as later messages retro-close
  intervals, so index predicates are pinned to the match epoch);
* **one evaluator** — :func:`_source` translates an expression to Python
  source and is the only code that says what an expression means.  Each
  step, each guard, the fire-time conjuncts and the RETURN items become
  one generated function (:func:`compile_exprs`), and so does each
  element's admission test;
* **partition inference** — the SASE partitioned-active-instance-stack
  optimization: when one attribute's cross-binding equivalence tests
  (``b.obj == a.obj``) connect every element, instances are stacked per
  value of that attribute and each event only touches its own stack.
  Single-element patterns partition on ``obj`` (every event carries
  one); unconnected multi-element patterns fall back to one shared
  stack;
* **static admission** — the conjuncts of an element that read only its
  own event and constants (``e.place == 4``) are compiled, with the kind
  set, into one plain function over the event message
  (:class:`Admission`).  It is a *necessary* condition for the element
  to use an event, decided before any binding environment exists, and
  the ``(field, constant)`` equalities it implies are the keys the
  serving engine routes events by (:attr:`NfaProgram.routing`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.events.messages import INFINITY, EventKind, EventMessage
from repro.sase.ast import (
    INDEX_FUNCS,
    KNOWN_FUNCS,
    And,
    Attr,
    BinOp,
    Cmp,
    Element,
    Expr,
    Literal,
    Not,
    Now,
    Or,
    PatternAST,
    needs_fire_time,
    referenced_bindings,
)
from repro.sase.errors import PatternSemanticError

#: attributes eligible as partition keys, in preference order when
#: several qualify (deterministic compilation)
_PARTITION_PREFERENCE = ("obj", "container", "place", "vs")

#: the attributes that are message fields as they stand, so that an
#: equality with a constant can be looked up instead of evaluated
KEY_FIELDS = ("obj", "place", "container", "vs")


# ---------------------------------------------------------------------------
# what the generated code calls
# ---------------------------------------------------------------------------
#
# ``None`` means "no value" (an open interval, an empty index answer, an
# unbound event).  It poisons arithmetic and every function but
# ``coalesce``, orders with nothing (``<`` ... ``>=`` are false), and
# equals only itself.  Operands are all evaluated before the operator
# looks at any of them, so an ill-typed operand raises its ``TypeError``
# even beside a ``None``.


def _ve(msg: EventMessage) -> int | None:
    """The ``ve`` attribute: ``None`` while the interval is still open."""
    return None if msg.ve == INFINITY else int(msg.ve)


def _left(msg: EventMessage) -> int | None:
    """The ``left`` attribute, the derived departure time: when did the
    object stop being where it was?  EndLocation closes at ve; a Missing
    report pins the departure at its vs.  Other kinds have no notion of
    leaving, so the attribute is None (poisoning predicates)."""
    if msg.kind is EventKind.END_LOCATION:
        return int(msg.ve)
    if msg.kind is EventKind.MISSING:
        return msg.vs
    return None


def _unknown(values: tuple) -> bool:
    for value in values:
        if value is None:
            return True
    return False


def _add(a, b):
    return None if a is None or b is None else a + b


def _sub(a, b):
    return None if a is None or b is None else a - b


def _lt(a, b):
    return a is not None and b is not None and a < b


def _le(a, b):
    return a is not None and b is not None and a <= b


def _gt(a, b):
    return a is not None and b is not None and a > b


def _ge(a, b):
    return a is not None and b is not None and a >= b


def _coalesce(*values):
    for value in values:
        if value is not None:
            return value
    return None


def _max(*values):
    return None if _unknown(values) else max(values)


def _min(*values):
    return None if _unknown(values) else min(values)


def _loc(index, *values):
    if index is None or _unknown(values):
        return None
    return index.location_of(values[0], values[1])


def _container(index, *values):
    if index is None or _unknown(values):
        return None
    return index.container_of(values[0], values[1])


def _missing(index, *values):
    if index is None or _unknown(values):
        return None
    return bool(index.is_missing(values[0], values[1]))


#: the names generated source may use besides its own constants and
#: locals (each helper under its name without the underscore); a
#: client's text supplies none of them
_HELPERS = {
    helper.__name__[1:]: helper
    for helper in (
        _ve, _left, _add, _sub, _lt, _le, _gt, _ge,
        _coalesce, _max, _min, _loc, _container, _missing,
    )
}

#: how an attribute reads off an event: ``{m}`` is its message, ``{v}``
#: its view (``epoch`` is when the event arrived, which no message says)
_ATTR_SOURCE = {
    "obj": "{m}.obj",
    "place": "{m}.place",
    "container": "{m}.container",
    "vs": "{m}.vs",
    "ve": "ve({m})",
    "left": "left({m})",
    "kind": "{m}.kind.value",
    "epoch": "{v}.epoch",
}

_ORDERING = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


class _Scope:
    """What one generated function may read, and the names it has used.

    Generated functions take ``(b, v, now, index)``: the bindings of the
    instance (name -> event view, or the list of views of a Kleene+
    run), the view of the event being offered to ``own`` (its message is
    the local ``m``), the epoch of evaluation and the live index.  An
    admission test takes the message ``m`` alone.
    """

    def __init__(self, own: str | None, kleene: frozenset[str] | None) -> None:
        self.own = own
        #: which of the other bindings are Kleene+ runs; ``None`` for an
        #: admission test, which can read no other binding, nor ``epoch``,
        #: ``now`` or the index
        self.kleene = kleene
        self.namespace: dict[str, object] = dict(_HELPERS)
        #: other binding -> the local holding its (last) event view
        self.views: dict[str, str] = {}

    def constant(self, value: object) -> str:
        """Bind ``value`` in the function's namespace; return its name.
        Literals and binding names reach generated code only this way —
        never as source text."""
        name = f"c{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def define(self, result: str) -> Callable:
        """Execute the function that returns ``result``, and return it."""
        if self.kleene is None:  # what an admission test cannot decide, it admits
            lines = [
                "def generated(m):",
                "    try:",
                f"        return {result}",
                "    except (TypeError, ValueError):",
                "        return True",
            ]
        else:
            lines = ["def generated(b, v, now, index):"]
            if self.own is not None:
                lines.append("    m = v.msg")
            for binding, local in self.views.items():
                lines.append(f"    {local} = b.get({self.constant(binding)})")
                if binding in self.kleene:
                    lines.append(f"    {local} = {local}[-1] if {local} else None")
            lines.append(f"    return {result}")
        exec("\n".join(lines), self.namespace)
        return self.namespace["generated"]


def _source(expr: Expr, scope: _Scope, truth: bool = False) -> str | None:
    """Python source of ``expr``, or ``None`` when ``scope`` cannot read
    something it needs (an admission test only).

    ``truth`` asks only for a value that is true when ``expr`` is: AND
    and OR then keep Python's short-circuit operators as they are; as
    operands (``(a AND b) == c``) they are the booleans ``all`` and
    ``any`` would give.  Every sub-expression is an atom or parenthesized.
    """
    full = scope.kleene is not None
    if isinstance(expr, Literal):
        return scope.constant(expr.value)
    if isinstance(expr, Now):
        return "now" if full else None
    if isinstance(expr, Attr):
        own = expr.binding == scope.own
        if not full and (not own or expr.name == "epoch"):
            return None
        if own:
            return _ATTR_SOURCE[expr.name].format(m="m", v="v")
        view = scope.views.setdefault(expr.binding, f"b{len(scope.views)}")
        read = _ATTR_SOURCE[expr.name].format(m=f"{view}.msg", v=view)
        return f"(None if {view} is None else {read})"
    if isinstance(expr, (And, Or)):
        parts = [_source(part, scope, truth=True) for part in expr.parts]
        if None in parts:
            return None
        if isinstance(expr, And):
            joined = " and ".join(parts) or "True"
        else:
            joined = " or ".join(parts) or "False"
        return f"({joined})" if truth else f"(True if {joined} else False)"
    if isinstance(expr, Not):
        operand = _source(expr.operand, scope, truth=True)
        return None if operand is None else f"(not {operand})"
    operands = [_source(child, scope) for child in expr.children()]
    if None in operands:
        return None
    if isinstance(expr, Cmp):
        if expr.op in ("==", "!="):
            return f"({operands[0]} {expr.op} {operands[1]})"
        call = _ORDERING[expr.op]
    elif isinstance(expr, BinOp):
        call = "add" if expr.op == "+" else "sub"
    else:
        call = expr.name
        if call not in KNOWN_FUNCS:
            raise PatternSemanticError(f"unknown function {call!r}")
        if call in INDEX_FUNCS:
            if len(operands) != 2:
                raise PatternSemanticError(
                    f"{call}() takes (object, epoch), got {len(operands)} argument(s)"
                )
            if not full:
                return None
            operands.insert(0, "index")
    return f"{call}({', '.join(operands)})"


def compile_exprs(
    exprs: tuple[Expr, ...],
    own: str | None = None,
    kleene: frozenset[str] = frozenset(),
    conjoin: bool = True,
) -> Callable:
    """One generated function ``f(bindings, view, now, index)`` over ``exprs``.

    With ``conjoin`` it says whether every expression holds, evaluating
    them in order and stopping at the first that does not; without, it
    returns the tuple of their values.  ``own`` names the binding that
    reads ``view`` (pass ``None`` for both at fire time); every other
    binding reads ``bindings`` — the last event of those in ``kleene``,
    ``None`` attributes for one that is not bound.
    """
    scope = _Scope(own, kleene)
    if conjoin:
        result = " and ".join(_source(expr, scope, truth=True) for expr in exprs) or "True"
    else:
        result = "(" + "".join(_source(expr, scope) + ", " for expr in exprs) + ")"
    return scope.define(result)


@dataclass(frozen=True)
class Admission:
    """What one SEQ element can tell from an event alone.

    Attributes:
        test: ``test(msg)`` is false only if the element cannot use
            ``msg`` whatever is bound so far: its kind is not admitted,
            or a conjunct reading only this element's event and
            constants is false.  Whatever it cannot decide (a type
            error included) it admits.
        keys: ``(field, constant)`` alternatives: every admitted event
            equals at least one of them.  ``None`` when no conjunct pins
            a message field to a constant.
    """

    test: Callable[[EventMessage], bool]
    keys: tuple[tuple[str, object], ...] | None


@dataclass(frozen=True)
class PositiveStep:
    """One consuming NFA state."""

    index: int  # 0-based position among the positive elements
    binding: str
    kinds: frozenset[EventKind]
    kleene: bool
    #: what must hold when this step consumes an event; the conjuncts
    #: :attr:`admission` decides come first
    preds: tuple[Expr, ...]
    admission: Admission = field(compare=False)
    #: ``preds`` as one generated function (see :func:`compile_exprs`)
    test: Callable = field(compare=False)


@dataclass(frozen=True)
class NegationGuard:
    """A kill edge: while an instance sits at ``guard_state``, an event
    matching ``kinds`` + ``preds`` kills it."""

    guard_state: int  # kills instances that have consumed this many steps
    binding: str
    kinds: frozenset[EventKind]
    preds: tuple[Expr, ...]  # :attr:`admission`'s conjuncts first
    admission: Admission = field(compare=False)
    test: Callable = field(compare=False)  # ``preds``, generated


@dataclass(frozen=True)
class NfaProgram:
    """A compiled, runnable pattern."""

    ast: PatternAST
    steps: tuple[PositiveStep, ...]
    guards: tuple[NegationGuard, ...]
    fire_preds: tuple[Expr, ...]
    window: int | None  # epochs; None = unbounded
    once_per_epoch: bool
    partition_attr: str | None  # None = one shared instance stack
    absence: bool  # trailing negation: fire on window expiry
    #: ``fire_preds`` and the values of the RETURN items, generated
    fire: Callable = field(compare=False)
    returns: Callable = field(compare=False)

    @property
    def relevant_kinds(self) -> frozenset[EventKind]:
        kinds: frozenset[EventKind] = frozenset()
        for step in self.steps:
            kinds |= step.kinds
        for guard in self.guards:
            kinds |= guard.kinds
        return kinds

    @property
    def routing(self) -> tuple[frozenset[EventKind], frozenset[tuple[str, object]]] | None:
        """``(kinds, keys)``: only an event whose kind is in ``kinds``, or
        which equals one ``(field, constant)`` of ``keys``, can pass any
        element's admission.  ``None`` when that is every event."""
        kinds: set[EventKind] = set()
        keys: set[tuple[str, object]] = set()
        for element in (*self.steps, *self.guards):
            if element.admission.keys is None:
                kinds |= element.kinds
            else:
                keys.update(element.admission.keys)
        if len(kinds) == len(EventKind):
            return None
        return frozenset(kinds), frozenset(keys)

    @property
    def replace_on_restart(self) -> bool:
        """Single-positive absence patterns re-arm: a fresh initiating
        event replaces the pending episode in its partition (the
        episodic semantics of threshold alerts like dwell/missing)."""
        return self.absence and len(self.steps) == 1


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def find(self, item: str) -> str:
        self.parent.setdefault(item, item)
        while self.parent[item] != item:
            self.parent[item] = self.parent[self.parent[item]]
            item = self.parent[item]
        return item

    def union(self, a: str, b: str) -> None:
        self.parent[self.find(a)] = self.find(b)


def _conjuncts(where: Expr | None) -> list[Expr]:
    if where is None:
        return []
    if isinstance(where, And):
        return list(where.parts)
    return [where]


def _equivalence_attr(conjunct: Expr) -> tuple[str, str, str] | None:
    """``(attr, binding_a, binding_b)`` for ``a.x == b.x`` conjuncts."""
    if (
        isinstance(conjunct, Cmp)
        and conjunct.op == "=="
        and isinstance(conjunct.left, Attr)
        and isinstance(conjunct.right, Attr)
        and conjunct.left.name == conjunct.right.name
        and conjunct.left.binding != conjunct.right.binding
    ):
        return conjunct.left.name, conjunct.left.binding, conjunct.right.binding
    return None


def _equality_keys(expr: Expr, binding: str) -> tuple[tuple[str, object], ...] | None:
    """The ``(field, constant)`` alternatives a true ``expr`` forces on
    ``binding``'s event: ``e.place == 4``, or an ``OR`` of such tests.
    Nothing else qualifies, so a conjunct with keys can never raise."""
    if isinstance(expr, Cmp) and expr.op == "==":
        for attr, literal in ((expr.left, expr.right), (expr.right, expr.left)):
            if (
                isinstance(attr, Attr)
                and attr.binding == binding
                and attr.name in KEY_FIELDS
                and isinstance(literal, Literal)
            ):
                return ((attr.name, literal.value),)
    if isinstance(expr, Or):
        keys: list[tuple[str, object]] = []
        for part in expr.parts:
            alternatives = _equality_keys(part, binding)
            if alternatives is None:
                return None
            keys.extend(alternatives)
        return tuple(keys)
    return None


def _push_down(
    kinds: frozenset[EventKind], binding: str, conjuncts: list[Expr]
) -> tuple[tuple[Expr, ...], Admission]:
    """Order one element's conjuncts and compile its admission test.

    The conjuncts the event alone decides move to the front, equality
    keys first (they cannot raise).  A false admission is then exactly a
    false prefix of the full evaluation, and an event that equals none
    of the keys fails the very first conjunct.
    """
    scope = _Scope(binding, None)
    decided = [(conjunct, _source(conjunct, scope, truth=True)) for conjunct in conjuncts]

    def rank(pair: tuple[Expr, str | None]) -> int:
        if _equality_keys(pair[0], binding) is not None:
            return 0
        return 2 if pair[1] is None else 1

    decided.sort(key=rank)
    preds = tuple(conjunct for conjunct, _ in decided)
    key_sets = [keys for keys in (_equality_keys(c, binding) for c in preds) if keys]
    tests = []
    if len(kinds) < len(EventKind):
        # identity tests: hashing an Enum member is a Python call
        names = [scope.constant(kind) for kind in EventKind if kind in kinds]
        tests.append("(" + " or ".join(f"m.kind is {name}" for name in names) + ")")
    tests += [source for _, source in decided if source is not None]
    return preds, Admission(
        test=scope.define(" and ".join(tests) or "True"),
        keys=min(key_sets, key=len) if key_sets else None,
    )


def compile_ast(ast: PatternAST) -> NfaProgram:
    """Lower a parsed pattern to an :class:`NfaProgram`.

    Raises :class:`~repro.sase.errors.PatternSemanticError` on patterns
    that parse but cannot run (unknown bindings, misplaced negation,
    trailing negation without a window, ...).
    """
    steps: list[Element] = []
    guard_slots: list[tuple[int, str, frozenset[EventKind]]] = []
    position: dict[str, int] = {}  # binding -> element order index
    positive_index: dict[str, int] = {}
    negated: set[str] = set()
    for order, element in enumerate(ast.elements):
        if element.binding in position:
            raise PatternSemanticError(
                f"binding {element.binding!r} is declared twice"
            )
        position[element.binding] = order
        if element.negated:
            if element.kleene:
                raise PatternSemanticError(
                    f"negated element {element.binding!r} cannot carry Kleene+"
                )
            if not steps:
                raise PatternSemanticError(
                    f"negated element {element.binding!r} cannot precede every "
                    "positive element (there is nothing for it to interrupt)"
                )
            negated.add(element.binding)
            guard_slots.append((len(steps), element.binding, element.kinds()))
        else:
            positive_index[element.binding] = len(steps)
            steps.append(element)
    if not steps:
        raise PatternSemanticError("a pattern needs at least one positive element")

    total = len(steps)
    absence = any(slot[0] == total for slot in guard_slots)
    window = ast.window_epochs()
    if absence and window is None:
        raise PatternSemanticError(
            "a trailing negated element needs a WITHIN window: the absence "
            "fires when the window elapses without the negated event"
        )
    if absence and steps[-1].kleene:
        raise PatternSemanticError(
            "Kleene+ on the last positive element cannot combine with a "
            "trailing negation (the run would never settle)"
        )

    # --- assign WHERE conjuncts -------------------------------------------
    step_preds: list[list[Expr]] = [[] for _ in steps]
    guard_preds: dict[str, list[Expr]] = {binding: [] for _, binding, _ in guard_slots}
    fire_preds: list[Expr] = []
    equivalences: list[tuple[str, str, str]] = []
    for conjunct in _conjuncts(ast.where):
        refs = referenced_bindings(conjunct)
        unknown = refs - set(position)
        if unknown:
            raise PatternSemanticError(
                f"predicate {conjunct.unparse()!r} references unknown "
                f"binding(s) {sorted(unknown)}; declared: {sorted(position)}"
            )
        equivalence = _equivalence_attr(conjunct)
        if equivalence is not None:
            equivalences.append(equivalence)
        negated_refs = refs & negated
        if needs_fire_time(conjunct):
            if negated_refs:
                raise PatternSemanticError(
                    f"predicate {conjunct.unparse()!r} reads the live index or "
                    "'now' but references a negated binding; negations are "
                    "checked when the negated event arrives, not at fire time"
                )
            fire_preds.append(conjunct)
            continue
        if negated_refs:
            if len(negated_refs) > 1:
                raise PatternSemanticError(
                    f"predicate {conjunct.unparse()!r} links two negated "
                    "bindings; split it into per-binding conjuncts"
                )
            binding = next(iter(negated_refs))
            guard_order = position[binding]
            late = [
                name
                for name in refs - {binding}
                if position[name] > guard_order
            ]
            if late:
                raise PatternSemanticError(
                    f"predicate {conjunct.unparse()!r} links negated binding "
                    f"{binding!r} with later binding(s) {sorted(late)}; those "
                    "are not bound yet when the negation is checked"
                )
            guard_preds[binding].append(conjunct)
            continue
        if not refs:
            fire_preds.append(conjunct)
            continue
        latest = max(positive_index[name] for name in refs)
        step_preds[latest].append(conjunct)

    kleene = frozenset(element.binding for element in steps if element.kleene)
    compiled_steps = []
    for index, element in enumerate(steps):
        preds, admission = _push_down(element.kinds(), element.binding, step_preds[index])
        compiled_steps.append(
            PositiveStep(
                index=index,
                binding=element.binding,
                kinds=element.kinds(),
                kleene=element.kleene,
                preds=preds,
                admission=admission,
                test=compile_exprs(preds, element.binding, kleene),
            )
        )
    guards = []
    for guard_state, binding, kinds in guard_slots:
        preds, admission = _push_down(kinds, binding, guard_preds[binding])
        guards.append(
            NegationGuard(
                guard_state=guard_state,
                binding=binding,
                kinds=kinds,
                preds=preds,
                admission=admission,
                test=compile_exprs(preds, binding, kleene),
            )
        )

    # --- partition inference ----------------------------------------------
    partition_attr = _infer_partition(
        set(positive_index), negated, equivalences
    )

    return NfaProgram(
        ast=ast,
        steps=tuple(compiled_steps),
        guards=tuple(guards),
        fire_preds=tuple(fire_preds),
        window=window,
        once_per_epoch=ast.once_per_epoch,
        partition_attr=partition_attr,
        absence=absence,
        fire=compile_exprs(tuple(fire_preds), kleene=kleene),
        returns=compile_exprs(
            tuple(item.expr for item in ast.returns), kleene=kleene, conjoin=False
        ),
    )


def _infer_partition(
    positives: set[str], negated: set[str], equivalences: list[tuple[str, str, str]]
) -> str | None:
    """Pick the stack-partitioning attribute, if any.

    An attribute qualifies when its equivalence tests connect every
    element (positive and negated) into one component — then an event
    can only ever extend/kill instances holding its own attribute value,
    so stacks keyed on that value are semantics-preserving.
    """
    everyone = positives | negated
    if len(everyone) == 1:
        return "obj"  # every event kind carries obj; groups runs per object
    qualified: list[str] = []
    attrs = {attr for attr, _, _ in equivalences}
    for attr in attrs:
        union = _UnionFind()
        for name in everyone:
            union.find(name)
        for eq_attr, a, b in equivalences:
            if eq_attr == attr:
                union.union(a, b)
        roots = {union.find(name) for name in everyone}
        if len(roots) == 1:
            qualified.append(attr)
    if not qualified:
        return None
    for preferred in _PARTITION_PREFERENCE:
        if preferred in qualified:
            return preferred
    return sorted(qualified)[0]
