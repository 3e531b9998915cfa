"""The core's former procedures: the references its faster ones are pinned to.

Two loops of ``repro.core`` were replaced by procedures that do the same
thing while touching less (DESIGN.md §8, "Expansion and candidate
generation cost what they touch"); the originals live here, moved verbatim,
as the oracles of ``tests/test_reference_core.py``:

* :func:`next_layer` — layer expansion by walking every edge of every
  frontier node (``IterativeInference._next_layer``);
* :class:`ReferenceUpdater` — candidate generation that re-sorts and
  re-tests the co-located level for each newly colored node
  (``GraphUpdater._add_candidate_edges``), drawing one edge at a time
  through the single-edge :func:`add_edge` (``Graph.add_edge``).

They say what a layer and a node's candidates *are* in the plainest terms,
so that when the shipped code disagrees the reference shows which side is
wrong.
"""

from __future__ import annotations

from repro.core.capture import GraphUpdater
from repro.core.graph import Graph, GraphEdge, GraphNode


def next_layer(frontier: list[GraphNode], visited: set[GraphNode]) -> list[GraphNode]:
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


def add_edge(graph: Graph, parent: GraphNode, child: GraphNode, now: int) -> GraphEdge:
    """Create (or return the existing) edge ``parent -> child``."""
    if parent.level <= child.level:
        raise ValueError(
            f"edges must point down packaging levels: "
            f"{parent.tag} (level {parent.level}) -> {child.tag} (level {child.level})"
        )
    edge = parent.children.get(child.tag)
    if edge is not None:
        return edge
    edge = GraphEdge(parent, child, now)
    parent.children[child.tag] = edge
    child.parents[parent.tag] = edge
    graph._edge_count += 1
    graph._dirty.add(child)
    graph._dirty.add(parent)
    return edge


class ReferenceUpdater(GraphUpdater):
    """A :class:`GraphUpdater` whose step 2 is the per-node procedure."""

    def _add_candidate_edges(self, newly_colored, color, now):
        for node in sorted(newly_colored, key=lambda n: n.level):
            self._add_candidate_edges_of(node, color, now)

    def _add_candidate_edges_of(self, node: GraphNode, color: int, now: int) -> None:
        """Connect ``node`` to same-colored nodes in the closest layers.

        Candidates are taken in tag order, and a child bound to a different
        parent by a standing, conflict-free confirmation draws no edge.
        """
        graph = self.graph
        tag = node.tag
        drawn = 0
        above = graph.closest_colored_level(node.level, color, direction=+1)
        if above is not None:
            confirmed = self._binding_parent(node)
            if confirmed is not None:
                if confirmed.color == color and confirmed.level > node.level:
                    add_edge(graph, confirmed, node, now)
                    drawn += 1
            else:
                for parent in sorted(graph.colored_at(above, color), key=lambda n: n.tag):
                    add_edge(graph, parent, node, now)
                    drawn += 1
        below = graph.closest_colored_level(node.level, color, direction=-1)
        if below is not None:
            for child in sorted(graph.colored_at(below, color), key=lambda n: n.tag):
                confirmed = self._binding_parent(child)
                if confirmed is None or confirmed.tag == tag:
                    add_edge(graph, node, child, now)
                    drawn += 1
        self.candidate_edges += drawn
