"""AST → NFA compilation: predicate push-down and partition inference.

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

from repro.events.messages import EventKind, EventMessage
from repro.sase.ast import (
    _CMP,
    And,
    Attr,
    Cmp,
    Element,
    Expr,
    Literal,
    Not,
    Or,
    PatternAST,
    event_left,
    event_ve,
    needs_fire_time,
    referenced_bindings,
)
from repro.sase.errors import PatternSemanticError

#: attributes eligible as partition keys, in preference order when
#: several qualify (deterministic compilation)
_PARTITION_PREFERENCE = ("obj", "container", "place", "vs")


#: how a statically decidable attribute reads off an event message ``m``
#: (``epoch`` is not a property of the message and is left to the runtime)
_ATTR_SOURCE = {
    "obj": "m.obj",
    "place": "m.place",
    "container": "m.container",
    "vs": "m.vs",
    "ve": "ve(m)",
    "left": "left(m)",
    "kind": "m.kind.value",
}

#: the attributes that are message fields as they stand, so that an
#: equality with a constant can be looked up instead of evaluated
KEY_FIELDS = ("obj", "place", "container", "vs")

_ORDERING = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


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
    #: evaluated when this step consumes an event; the conjuncts
    #: :attr:`admission` decides come first
    preds: tuple[Expr, ...]
    admission: Admission = field(compare=False)


@dataclass(frozen=True)
class NegationGuard:
    """A kill edge: while an instance sits at ``guard_state``, an event
    matching ``kinds`` + ``preds`` kills it."""

    guard_state: int  # kills instances that have consumed this many steps
    binding: str
    kinds: frozenset[EventKind]
    preds: tuple[Expr, ...]  # :attr:`admission`'s conjuncts first
    admission: Admission = field(compare=False)


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


def _static_source(expr: Expr, binding: str, consts: dict) -> str | None:
    """Python source of boolean ``expr`` over an event message ``m``, or
    ``None`` unless ``binding``'s own event and constants decide it."""
    if isinstance(expr, Cmp):
        sides = []
        for side in (expr.left, expr.right):
            if isinstance(side, Literal):
                name = f"c{len(consts)}"
                consts[name] = side.value
                sides.append(name)
            elif isinstance(side, Attr) and side.binding == binding:
                sides.append(_ATTR_SOURCE.get(side.name))
            else:
                return None
        if None in sides:
            return None
        if expr.op in _ORDERING:
            return f"{_ORDERING[expr.op]}({sides[0]}, {sides[1]})"
        return f"({sides[0]} {expr.op} {sides[1]})"
    if isinstance(expr, Not):
        inner = _static_source(expr.operand, binding, consts)
        return None if inner is None else f"(not {inner})"
    if isinstance(expr, (And, Or)):
        parts = [_static_source(part, binding, consts) for part in expr.parts]
        if None in parts:
            return None
        return "(" + (" and " if isinstance(expr, And) else " or ").join(parts) + ")"
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

    def rank(conjunct: Expr) -> int:
        if _equality_keys(conjunct, binding) is not None:
            return 0
        return 2 if _static_source(conjunct, binding, {}) is None else 1

    preds = tuple(sorted(conjuncts, key=rank))
    key_sets = [keys for keys in (_equality_keys(c, binding) for c in preds) if keys]
    namespace: dict[str, object] = {}
    tests = []
    if len(kinds) < len(EventKind):
        for kind in EventKind:  # identity tests: hashing an Enum member is a Python call
            if kind in kinds:
                namespace[f"k{len(namespace)}"] = kind
        tests.append("(" + " or ".join(f"m.kind is {name}" for name in namespace) + ")")
    for conjunct in preds:
        source = _static_source(conjunct, binding, namespace)
        if source is not None:
            tests.append(source)
    namespace.update(ve=event_ve, left=event_left)
    namespace.update((name, _CMP[op]) for op, name in _ORDERING.items())
    exec(
        "def admits(m):\n"
        "    try:\n"
        f"        return {' and '.join(tests) or 'True'}\n"
        "    except TypeError:\n"
        "        return True\n",
        namespace,
    )
    return preds, Admission(
        test=namespace["admits"], keys=min(key_sets, key=len) if key_sets else None
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
