"""`CompiledPattern` — a compiled pattern as a serving-tier citizen.

The one :class:`repro.serving.patterns.Pattern` the standing-query
engine runs: per-subscription state, ``prime`` from the live index on
subscribe, one ``evaluate`` per epoch feeding the subscription queues.
Matches are turned into :class:`~repro.serving.patterns.Notification`
values by a *render* function — the default renders the RETURN clause;
the library definitions (:mod:`repro.sase.library`) install renders
that produce the catalogue's wire notifications.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.sase.ast import PatternAST, unparse
from repro.sase.nfa import NfaProgram, compile_ast
from repro.sase.parser import parse_pattern_source
from repro.sase.runtime import Match, PatternRuntime
from repro.serving.patterns import (
    NOTIFY_SASE_MATCH,
    PATTERN_SASE,
    Notification,
    Pattern,
    PatternSpec,
)

#: turns a runtime match into the notification a subscriber receives
Render = Callable[[Match, object], Notification]


class CompiledPattern(Pattern):
    """A pattern compiled from source text, runnable by the engine."""

    kind_code = PATTERN_SASE

    def __init__(
        self,
        source: str,
        ast: PatternAST,
        program: NfaProgram,
        render: Render | None = None,
        notify_kind: str = NOTIFY_SASE_MATCH,
        compile_seconds: float = 0.0,
    ) -> None:
        self.source = source
        self.ast = ast
        self.program = program
        self.notify_kind = notify_kind
        self.compile_seconds = compile_seconds
        self.runtime = PatternRuntime(program)
        self._custom_render = render is not None
        self._render: Render = render if render is not None else self._default_render
        #: set by the library builders: the legacy wire spec this pattern
        #: re-expresses, so spec() round-trips for catalogue subscriptions
        self.spec_override: PatternSpec | None = None

    # -- serving Pattern API --------------------------------------------

    def spec(self) -> PatternSpec:
        if self.spec_override is not None:
            return self.spec_override
        return PatternSpec(PATTERN_SASE, source=self.source)

    @property
    def canonical_source(self) -> str:
        """The ``parse ∘ unparse`` fixpoint of the pattern source.

        Two textual variants of the same pattern (whitespace, keyword
        case, redundant parens) canonicalize to the same string — this is
        the serving tier's fan-out sharing key and the persisted form of
        a subscription.
        """
        return unparse(self.ast)

    def share_key(self) -> tuple | None:
        """Fan-out sharing identity (see :meth:`Pattern.share_key`).

        Library builders set ``spec_override``, so catalogue patterns
        share by their legacy wire spec; plain compiled patterns share by
        canonical source.  A pattern with a *custom* render but no spec
        override is unshareable — the render closure's identity is not
        captured by the source text.
        """
        if self.spec_override is not None:
            return super().share_key()
        if self._custom_render:
            return None
        return ("sase", self.canonical_source, self.notify_kind)

    def routing(self):
        return self.program.routing

    def prime(self, index, epoch) -> None:
        self.runtime.prime(index, epoch)

    def evaluate(self, epoch, messages, index) -> list[Notification]:
        matches = self.runtime.process_epoch(epoch, messages, index)
        return [self._render(match, index) for match in matches]

    # -- observability ---------------------------------------------------

    @property
    def sase_stats(self) -> dict:
        """Runtime counters the engine surfaces as ``spire_sase_*``."""
        stats = self.runtime.stats
        return {
            "active_instances": self.runtime.active_instances,
            "partitions": self.runtime.partition_count,
            "matches": stats.matches,
            "kills": stats.kills,
            "prunes": stats.prunes,
            "created": stats.created,
            "offered": stats.offered,
            "admitted": stats.admitted,
            "compile_seconds": self.compile_seconds,
        }

    # -- default rendering -----------------------------------------------

    def _default_render(self, match: Match, index) -> Notification:
        first = self.program.steps[0].binding
        bound = match.bindings.get(first)
        view = bound[0] if isinstance(bound, list) else bound
        count = sum(
            len(value) if isinstance(value, list) else 1
            for value in match.bindings.values()
        )
        if self.ast.returns:
            values = self.program.returns(match.bindings, None, match.epoch, index)
            detail = ", ".join(
                f"{item.label}={value}" for item, value in zip(self.ast.returns, values)
            )
        else:
            detail = " ".join(element.unparse() for element in self.ast.elements)
        return Notification(
            kind=self.notify_kind,
            epoch=match.epoch,
            obj=view.msg.obj if view is not None else None,
            place=view.msg.place if view is not None else None,
            container=view.msg.container if view is not None else None,
            value=count,
            detail=detail,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CompiledPattern({self.source!r})"


def compile_pattern(
    source: str,
    render: Render | None = None,
    notify_kind: str = NOTIFY_SASE_MATCH,
) -> CompiledPattern:
    """Parse + compile pattern text into a runnable serving pattern.

    Raises :class:`~repro.sase.errors.PatternSyntaxError` /
    :class:`~repro.sase.errors.PatternSemanticError` (both
    ``ValueError``) on bad input; the serving server forwards the message
    as a compile-error reply.
    """
    started = time.perf_counter()
    ast = parse_pattern_source(source)
    program = compile_ast(ast)
    elapsed = time.perf_counter() - started
    return CompiledPattern(
        source=source,
        ast=ast,
        program=program,
        render=render,
        notify_kind=notify_kind,
        compile_seconds=elapsed,
    )
