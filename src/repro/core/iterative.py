"""Iterative inference across the graph (Sections IV-C and IV-D).

Inference starts from the colored nodes (observed objects) and sweeps
outwards in increasing distance ``d``: edge inference runs for nodes at
distance ``d``, then node inference assigns them a color, and the colors
and edge probabilities settled at distance ``d`` feed the inference at
``d + 1``.

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

from repro.core.edge_inference import infer_edges, prune_weak_parents
from repro.core.graph import UNKNOWN_COLOR, Graph, GraphNode
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
        frontier = sorted(self.graph.colored_nodes(), key=lambda n: n.tag)
        for node in frontier:
            effective_colors[node] = node.color  # type: ignore[assignment]
            visited.add(node)
            result.add(self._estimate_colored(node))

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
            # whose candidate edges were all dropped) still need estimates
            remaining = sorted(
                (n for n in self.graph.nodes() if n not in visited),
                key=lambda n: n.tag,
            )
            self._infer_layer_nodes(remaining, effective_colors, now, complete, result, visited)

        return result

    # ------------------------------------------------------------------

    def _next_layer(
        self, frontier: list[GraphNode], visited: set[GraphNode]
    ) -> list[GraphNode]:
        """Unvisited neighbours of the current frontier, in tag order."""
        layer: dict[GraphNode, None] = {}
        for node in frontier:
            for edge in node.parents.values():
                neighbour = edge.parent
                if neighbour not in visited:
                    layer[neighbour] = None
            for edge in node.children.values():
                neighbour = edge.child
                if neighbour not in visited:
                    layer[neighbour] = None
        for node in layer:
            visited.add(node)
        return sorted(layer, key=lambda n: n.tag)

    def _infer_layer(
        self,
        layer: list[GraphNode],
        effective_colors: dict[GraphNode, int],
        now: int,
        complete: bool,
        result: InterpretationResult,
    ) -> list[GraphNode]:
        """Edge + node inference for one distance layer; returns the layer."""
        if not layer:
            return []
        # Edge inference first for the whole layer, then node inference with
        # colors fixed from strictly smaller distances (the beliefs of one
        # layer must not feed each other, §IV-C).
        beliefs = []
        for node in layer:
            container, container_prob = self._containment_of(node)
            belief = infer_node(
                node,
                effective_colors,
                now,
                self.params,
                self.color_periods,
                self.suppressed_colors,
            )
            beliefs.append((node, container, container_prob, belief))
        for node, container, container_prob, belief in beliefs:
            if belief.color != UNKNOWN_COLOR:
                effective_colors[node] = belief.color
            result.add(
                self._estimate_inferred(node, container, container_prob, belief, complete)
            )
        return layer

    def _infer_layer_nodes(
        self,
        nodes: list[GraphNode],
        effective_colors: dict[GraphNode, int],
        now: int,
        complete: bool,
        result: InterpretationResult,
        visited: set[GraphNode],
    ) -> None:
        """Inference for nodes disconnected from every colored node."""
        for node in nodes:
            visited.add(node)
            container, container_prob = self._containment_of(node)
            belief = infer_node(
                node,
                effective_colors,
                now,
                self.params,
                self.color_periods,
                self.suppressed_colors,
            )
            result.add(
                self._estimate_inferred(node, container, container_prob, belief, complete)
            )

    # ------------------------------------------------------------------

    def _containment_of(self, node: GraphNode) -> tuple[TagId | None, float]:
        """The node's containment decision: ``(container tag, probability)``.

        Runs edge inference, removes the parent edges it found too weak from
        the graph, and applies the credibility floor.
        """
        self.cache_misses += 1
        best = infer_edges(node, self.params)
        for edge in prune_weak_parents(node, best, self.params):
            self.graph.remove_edge(edge)
        best = self._credible(best)
        if best is None:
            return None, 0.0
        return best.parent.tag, best.prob

    def _estimate_colored(self, node: GraphNode) -> Estimate:
        container, container_prob = self._containment_of(node)
        return Estimate(
            tag=node.tag,
            location=node.color,  # type: ignore[arg-type]
            location_prob=1.0,
            source=LocationSource.OBSERVED,
            container=container,
            container_prob=container_prob,
        )

    def _estimate_inferred(
        self,
        node: GraphNode,
        container: TagId | None,
        container_prob: float,
        belief,
        complete: bool,
    ) -> Estimate:
        withheld = not complete and belief.color == UNKNOWN_COLOR
        return Estimate(
            tag=node.tag,
            location=belief.color,
            location_prob=belief.prob,
            source=LocationSource.WITHHELD if withheld else LocationSource.INFERRED,
            container=container,
            container_prob=container_prob,
        )

    def _credible(self, best):
        """Containment-confidence floor: a chosen edge whose unnormalised
        Eq. 2 confidence is below the pruning threshold is "unlikely to be
        the true containment" (§IV-C), so no container is reported.  The
        edge itself stays in the graph when it is confirmed or the argmax
        (see :func:`prune_weak_parents`), preserving future evidence.
        """
        threshold = self.params.prune_threshold
        if best is not None and threshold > 0.0 and best.confidence < threshold:
            return None
        return best
