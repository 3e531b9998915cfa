"""`repro.sase` — a SASE-style pattern language compiled to NFAs.

The standing-query engine of :mod:`repro.serving` originally shipped a
fixed, hand-coded pattern catalogue; every new monitoring scenario cost
bespoke engine code.  This package replaced that catalogue with a real
complex-event pattern language in the style of the SASE paper
("SASE: Complex Event Processing over Streams", arXiv cs/0612128):

* a **textual grammar** — ``PATTERN SEQ(arrival a, !departure d, ...)
  WHERE <predicates> WITHIN <window> RETURN <fields>`` — parsed by a
  recursive-descent parser into a typed AST (:mod:`repro.sase.ast`,
  :mod:`repro.sase.parser`);
* an **AST→NFA compiler** with predicate push-down, negation-as-absence
  edges, Kleene+ closure, and inference of the partition attribute for
  the partitioned-active-instance-stack optimization; it is also the
  **one evaluator** — every predicate and RETURN item becomes a
  generated Python function, and no other module says what an
  expression means (:mod:`repro.sase.nfa`);
* an **incremental runtime** consuming event messages epoch-by-epoch
  with window-expiry pruning and deterministic match ordering
  (:mod:`repro.sase.runtime`);
* :class:`~repro.sase.compiled.CompiledPattern`, the serving tier's one
  pattern implementation: matches flow through its subscription queues,
  backpressure and notification path;
* the serving catalogue as **library definitions** in the language
  (:mod:`repro.sase.library`), pinned byte-for-byte against the
  hand-coded classes they replaced (``tests/reference_patterns.py``).

Entry point::

    from repro.sase import compile_pattern
    pattern = compile_pattern(
        "PATTERN SEQ(uncontain u, departure d, missing m) "
        "WHERE d.obj == u.obj AND m.obj == u.obj WITHIN 60 EPOCHS "
        "RETURN u.obj, d.place"
    )
    engine.subscribe(pattern)       # a repro.serving Pattern like any other
"""

from repro.sase.ast import PatternAST, unparse
from repro.sase.compiled import CompiledPattern, compile_pattern
from repro.sase.errors import PatternError, PatternSemanticError, PatternSyntaxError
from repro.sase.parser import parse_pattern_source

__all__ = [
    "CompiledPattern",
    "PatternAST",
    "PatternError",
    "PatternSemanticError",
    "PatternSyntaxError",
    "compile_pattern",
    "parse_pattern_source",
    "unparse",
]
