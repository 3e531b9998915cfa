"""Diagnostics: explain how SPIRE arrived at an object's estimate.

Monitoring operators distrust black-box inferences; :func:`explain_object`
exposes the evidence behind one object's current estimate — its observation
memory, every candidate container with the Eq. 1/2 numbers, the last
special-reader confirmation, and the Eq. 3/4 location distribution — as a
plain data object that renders to a readable report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.edge_inference import effective_beta, history_weight, infer_edges
from repro.core.graph import UNKNOWN_COLOR, GraphNode
from repro.core.node_inference import infer_node
from repro.core.pipeline import Spire
from repro.model.locations import LocationRegistry
from repro.model.objects import TagId


@dataclass(frozen=True)
class CandidateContainer:
    """One possible container of the object, with its evidence."""

    container: TagId
    probability: float
    confidence: float
    history_weight: float
    history_bits: tuple[bool, ...]
    is_confirmed: bool


@dataclass(frozen=True)
class Explanation:
    """Everything behind one object's current estimate.

    Attributes:
        tag: The object.
        observed_now: Whether a reader saw the object this epoch.
        recent_color / seen_at: The node's observation memory (§III-A).
        effective_beta: The beta edge inference used at this node (differs
            from the configured beta when the adaptive heuristic is on).
        candidates: Every candidate container with Eq. 1/2 evidence,
            most probable first.
        confirmed_parent / confirmed_at / confirmed_conflicts: The last
            special-reader confirmation and its conflict count.
        location_distribution: Eq. 3/4 color distribution
            (``UNKNOWN_COLOR`` key included) from the node's point of view,
            using currently-observed neighbours only.
        reported_location / reported_container: What the estimate store
            currently answers for the §II queries.
    """

    tag: TagId
    observed_now: bool
    recent_color: int | None
    seen_at: int
    effective_beta: float
    candidates: tuple[CandidateContainer, ...]
    confirmed_parent: TagId | None
    confirmed_at: int
    confirmed_conflicts: int
    location_distribution: dict[int, float]
    reported_location: int
    reported_container: TagId | None

    def render(self, registry: LocationRegistry | None = None) -> str:
        """Human-readable multi-line report."""

        def loc(color: int | None) -> str:
            if color is None:
                return "-"
            if color == UNKNOWN_COLOR:
                return "unknown"
            if registry is not None:
                return registry.by_color(color).name
            return f"L{color}"

        lines = [f"object {self.tag}"]
        status = "observed this epoch" if self.observed_now else "unobserved"
        lines.append(f"  status: {status}; last seen at {loc(self.recent_color)} (t={self.seen_at})")
        lines.append(f"  reported: location={loc(self.reported_location)} "
                     f"container={self.reported_container or '-'}")
        if self.confirmed_parent is not None:
            lines.append(
                f"  confirmed container: {self.confirmed_parent} at t={self.confirmed_at} "
                f"({self.confirmed_conflicts} conflicting observations since)"
            )
        if self.candidates:
            lines.append(f"  candidate containers (beta={self.effective_beta:.2f}):")
            for cand in self.candidates:
                marker = " [confirmed]" if cand.is_confirmed else ""
                bits = "".join("1" if b else "0" for b in cand.history_bits[:16])
                lines.append(
                    f"    {str(cand.container):12s} p={cand.probability:.3f} "
                    f"conf={cand.confidence:.3f} w={cand.history_weight:.3f} "
                    f"history={bits}{marker}"
                )
        else:
            lines.append("  no candidate containers")
        if self.location_distribution:
            lines.append("  location belief:")
            for color, prob in sorted(
                self.location_distribution.items(), key=lambda kv: -kv[1]
            ):
                lines.append(f"    {loc(color):16s} {prob:.3f}")
        return "\n".join(lines)


def explain_object(spire: Spire, tag: TagId, now: int | None = None) -> Explanation | None:
    """Build an :class:`Explanation` for ``tag`` from ``spire``'s state.

    Returns ``None`` when SPIRE has never seen the object.  ``now``
    defaults to one epoch past the node's last update, matching the view
    the most recent inference pass had.
    """
    node = spire.graph.get(tag)
    if node is None:
        return None
    params = spire.params

    infer_edges(node, params)  # refreshes every parent edge's prob/confidence
    candidates = tuple(
        sorted(
            (
                CandidateContainer(
                    container=edge.parent.tag,
                    probability=edge.prob,
                    confidence=edge.confidence,
                    history_weight=history_weight(edge, params),
                    history_bits=tuple(edge.history_bits(params.history_size)),
                    is_confirmed=edge.parent.tag == node.confirmed_parent,
                )
                for edge in node.parents.values()
            ),
            key=lambda c: -c.probability,
        )
    )

    if now is None:
        now = node.seen_at + 1
    effective_colors: dict[GraphNode, int] = {
        neighbour: neighbour.color
        for edge in node.edges()
        for neighbour in (edge.other(node),)
        if neighbour.color is not None
    }
    if node.is_colored:
        distribution = {node.color: 1.0}
    else:
        distribution = infer_node(
            node,
            effective_colors,
            now,
            params,
            spire.inference.color_periods,
            with_distribution=True,
        ).distribution

    current = spire.estimates.get(tag)
    return Explanation(
        tag=tag,
        observed_now=node.is_colored,
        recent_color=node.recent_color,
        seen_at=node.seen_at,
        effective_beta=effective_beta(node, params),
        candidates=candidates,
        confirmed_parent=node.confirmed_parent,
        confirmed_at=node.confirmed_at,
        confirmed_conflicts=node.confirmed_conflicts,
        location_distribution=distribution,
        reported_location=current.location if current else UNKNOWN_COLOR,
        reported_container=current.container if current else None,
    )
