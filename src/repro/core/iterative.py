"""Iterative inference across the graph (Sections IV-C and IV-D).

Inference starts from the colored nodes (observed objects) and sweeps
outwards in increasing distance ``d``: edge inference runs for nodes at
distance ``d``, then node inference assigns them a color, and the colors
and edge probabilities settled at distance ``d`` feed the inference at
``d + 1``.  The layer at ``d + 1`` is the set of unvisited nodes adjacent
to layer ``d``; it is found from whichever of the two sides is smaller
(see :meth:`IterativeInference._next_layer`), so an expansion costs the
edges of the side it scans, not those of the other.

*Complete* inference covers the whole graph (including nodes unreachable
from any colored node, whose belief simply decays toward "unknown");
*partial* inference visits only nodes within ``l`` hops of a colored node
and withholds "unknown" results, since those may merely reflect readers
that did not interrogate this epoch (§IV-D).

That ``l``-hop subgraph is the only bound on a partial epoch's cost: every
visited node's containment decision and location belief is computed afresh
(DESIGN.md §8).
"""

from __future__ import annotations

from repro.core.edge_inference import infer_edges
from repro.core.graph import UNKNOWN_COLOR, Graph, GraphNode, by_tag
from repro.core.interpretation import Estimate, InterpretationResult, LocationSource
from repro.core.node_inference import infer_node
from repro.core.params import InferenceParams
from repro.model.objects import TagId


class IterativeInference:
    """Runs the iterative inference algorithm over a :class:`Graph`.

    ``color_periods`` maps location colors to reader interrogation periods;
    node inference measures its decay age in these units (see
    :mod:`repro.core.node_inference`).
    """

    def __init__(
        self,
        graph: Graph,
        params: InferenceParams,
        color_periods: dict[int, int] | None = None,
    ) -> None:
        self.graph = graph
        self.params = params
        self.color_periods = color_periods or {}
        #: locations whose readers are presumed dead this epoch (set by the
        #: pipeline from the reader-health monitor); unobserved objects last
        #: seen there stop decaying toward "unknown" — see
        #: :func:`repro.core.node_inference.infer_node`.
        self.suppressed_colors: frozenset[int] = frozenset()
        # read by the traced run of benchmarks/e2e (spans.py), which may not
        # be edited: ``cache_misses`` counts containment decisions computed,
        # ``cache_hits`` stays 0 since the decision cache was removed
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------

    def run(self, now: int, complete: bool) -> InterpretationResult:
        """One inference pass; ``complete`` selects complete vs partial mode."""
        result = InterpretationResult(epoch=now, complete=complete)
        effective_colors: dict[GraphNode, int] = {}
        visited: set[GraphNode] = set()

        # d = 0: observed objects — edge inference only.
        frontier = sorted(self.graph.colored_nodes(), key=by_tag)
        for node in frontier:
            effective_colors[node] = node.color  # type: ignore[assignment]
            visited.add(node)
            container, container_prob = self._containment_of(node)
            result.add(
                Estimate(
                    node.tag,
                    node.color,  # type: ignore[arg-type]
                    1.0,
                    LocationSource.OBSERVED,
                    container,
                    container_prob,
                )
            )

        max_distance = None if complete else self.params.partial_hops
        distance = 0
        while frontier:
            distance += 1
            if max_distance is not None and distance > max_distance:
                break
            layer = self._next_layer(frontier, visited)
            frontier = self._infer_layer(layer, effective_colors, now, complete, result)

        if complete:
            # nodes unreachable from any colored node (e.g. vanished objects
            # whose candidate edges were all dropped) still need estimates.
            # None of their neighbours was reached either, so no color
            # propagates to them: they are inferred against an empty map.
            remaining = sorted(
                (n for n in self.graph.nodes() if n not in visited), key=by_tag
            )
            self._infer_layer(remaining, {}, now, complete, result)

        return result

    # ------------------------------------------------------------------

    def _next_layer(
        self, frontier: list[GraphNode], visited: set[GraphNode]
    ) -> list[GraphNode]:
        """The unvisited nodes adjacent to ``frontier``, in tag order.

        Found from whichever side is smaller.  Every visited node behind
        the frontier was itself a frontier once, all its neighbours were
        visited then, and inference only ever removes edges — so an
        unvisited node's visited neighbours all lie in ``frontier``, and
        scanning the unvisited nodes for a visited neighbour yields the
        same set as walking the frontier's edges.  In a complete epoch the
        frontier is most of the graph (everything just read); in a partial
        one it is a handful of nodes.
        """
        if len(frontier) > len(self.graph) - len(visited):
            layer = self._adjacent_unvisited(visited)
        else:
            layer = self._frontier_neighbours(frontier, visited)
        visited.update(layer)
        layer.sort(key=by_tag)
        return layer

    @staticmethod
    def _frontier_neighbours(
        frontier: list[GraphNode], visited: set[GraphNode]
    ) -> list[GraphNode]:
        """Expansion from the frontier: its neighbours not yet visited."""
        layer: dict[GraphNode, None] = {}
        for node in frontier:
            for edge in node.parents.values():
                if edge.parent not in visited:
                    layer[edge.parent] = None
            for edge in node.children.values():
                if edge.child not in visited:
                    layer[edge.child] = None
        return list(layer)

    def _adjacent_unvisited(self, visited: set[GraphNode]) -> list[GraphNode]:
        """Expansion from the far side: each unvisited node is taken at its
        first visited neighbour."""
        layer = []
        for node in self.graph.nodes():
            if node in visited:
                continue
            for edge in node.parents.values():
                if edge.parent in visited:
                    layer.append(node)
                    break
            else:
                for edge in node.children.values():
                    if edge.child in visited:
                        layer.append(node)
                        break
        return layer

    def _infer_layer(
        self,
        layer: list[GraphNode],
        effective_colors: dict[GraphNode, int],
        now: int,
        complete: bool,
        result: InterpretationResult,
    ) -> list[GraphNode]:
        """Edge + node inference for one distance layer; returns the layer.

        The layer's colors are published to ``effective_colors`` for the
        next distance.
        """
        # Edge inference first for the whole layer, then node inference with
        # colors fixed from strictly smaller distances (the beliefs of one
        # layer must not feed each other, §IV-C).
        params = self.params
        periods = self.color_periods
        suppressed = self.suppressed_colors
        containment_of = self._containment_of
        beliefs = []
        for node in layer:
            container, container_prob = containment_of(node)
            color, prob, _ = infer_node(
                node, effective_colors, now, params, periods, suppressed
            )
            beliefs.append((node, container, container_prob, color, prob))
        for node, container, container_prob, color, prob in beliefs:
            source = LocationSource.INFERRED
            if color != UNKNOWN_COLOR:
                effective_colors[node] = color
            elif not complete:
                # §IV-D: an unknown from partial inference may only mean the
                # reader did not interrogate this epoch
                source = LocationSource.WITHHELD
            result.add(
                Estimate(node.tag, color, prob, source, container, container_prob)
            )
        return layer

    # ------------------------------------------------------------------

    def _containment_of(self, node: GraphNode) -> tuple[TagId | None, float]:
        """The node's containment decision: ``(container tag, probability)``.

        Runs edge inference, removes the parent edges it found too weak from
        the graph, and applies the credibility floor.
        """
        self.cache_misses += 1
        if not node.parents:
            return None, 0.0
        best, weak = infer_edges(node, self.params)
        for edge in weak:
            self.graph.remove_edge(edge)
        # Containment-confidence floor: a chosen edge whose unnormalised
        # Eq. 2 confidence is below the pruning threshold is "unlikely to be
        # the true containment" (§IV-C), so no container is reported.  The
        # edge itself stays in the graph (it is the argmax, see
        # ``infer_edges``), preserving future evidence.
        if best.confidence < self.params.prune_threshold:
            return None, 0.0
        return best.parent.tag, best.prob
