"""What a pattern-language expression means, as one plain tree walk.

``repro.sase.nfa`` translates expressions to Python source and runs the
generated functions; this is the interpreter it replaced, kept as the
oracle the differential in ``tests/test_sase_runtime.py`` holds the
translator to.  The rules, all of them:

* ``None`` is "no value" — an open interval's ``ve``, an index with no
  answer, a binding with no event.  It poisons ``+``/``-`` and every
  function but ``coalesce``; ``<`` ``<=`` ``>`` ``>=`` are false beside
  it; ``==``/``!=`` are Python's.
* An attribute of a Kleene+ binding reads the last event of the run.
* Operands are all evaluated, left to right, before an operator or a
  function looks at any of them; ``AND``/``OR`` alone stop early, and
  yield booleans.
* Ill-typed operands raise whatever Python raises (``TypeError``).
"""

from __future__ import annotations

from repro.events.messages import INFINITY, EventKind
from repro.sase.ast import And, Attr, BinOp, Cmp, Expr, Func, Literal, Not, Now, Or


def attribute(view, name: str):
    """``name`` of one bound event (``view.msg`` arrived at ``view.epoch``)."""
    msg = view.msg
    if name == "epoch":
        return view.epoch
    if name == "ve":
        return None if msg.ve == INFINITY else int(msg.ve)
    if name == "kind":
        return msg.kind.value
    if name == "left":
        if msg.kind is EventKind.END_LOCATION:
            return int(msg.ve)
        return msg.vs if msg.kind is EventKind.MISSING else None
    assert name in ("obj", "place", "container", "vs"), name
    return getattr(msg, name)


def evaluate(expr: Expr, bindings: dict, now: int, index=None):
    """The value of ``expr`` with ``bindings`` (name -> event view, or the
    list of views of a Kleene+ run) at epoch ``now`` over ``index``."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Now):
        return now
    if isinstance(expr, Attr):
        bound = bindings.get(expr.binding)
        if isinstance(bound, list):
            bound = bound[-1] if bound else None
        return None if bound is None else attribute(bound, expr.name)
    if isinstance(expr, Not):
        return not evaluate(expr.operand, bindings, now, index)
    if isinstance(expr, And):
        return all(evaluate(part, bindings, now, index) for part in expr.parts)
    if isinstance(expr, Or):
        return any(evaluate(part, bindings, now, index) for part in expr.parts)
    if isinstance(expr, (BinOp, Cmp)):
        left = evaluate(expr.left, bindings, now, index)
        right = evaluate(expr.right, bindings, now, index)
        if expr.op == "==":
            return left == right
        if expr.op == "!=":
            return left != right
        if left is None or right is None:
            return None if isinstance(expr, BinOp) else False
        return {
            "+": lambda: left + right,
            "-": lambda: left - right,
            "<": lambda: left < right,
            "<=": lambda: left <= right,
            ">": lambda: left > right,
            ">=": lambda: left >= right,
        }[expr.op]()
    assert isinstance(expr, Func), expr
    values = [evaluate(arg, bindings, now, index) for arg in expr.args]
    if expr.name == "coalesce":
        return next((value for value in values if value is not None), None)
    if any(value is None for value in values):
        return None
    if expr.name in ("max", "min"):
        return max(values) if expr.name == "max" else min(values)
    if index is None:
        return None
    lookup = {
        "loc": index.location_of,
        "container": index.container_of,
        "missing": lambda obj, at: bool(index.is_missing(obj, at)),
    }[expr.name]
    return lookup(values[0], values[1])
