"""The time-varying colored graph model (Section III-A).

Nodes are RFID-tagged objects, arranged in layers by packaging level; a
node's *color* is the location where it was observed in the current epoch
(``None`` when unobserved), and uncolored nodes remember their most recent
color and when they were last seen.  Directed edges encode *possible*
containment (parent → child) and carry a bit-vector of recent co-location
evidence.  Each node additionally remembers its last special-reader
confirmed parent, when that confirmation happened, and how many conflicting
observations have accumulated since.

The graph also keeps a per-epoch **dirty set** (see DESIGN.md §8): the nodes
whose color state, edges or read evidence changed this epoch.  It is a
diagnostic — its size is what traces, the ``spire_dirty_nodes`` gauge and
``EpochOutput.dirty_nodes`` report — and inference never reads it.
"""

from __future__ import annotations

import sys
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from repro.model.locations import UNKNOWN_COLOR
from repro.model.objects import PackagingLevel, TagId

_MIN_LEVEL = min(PackagingLevel).value
_MAX_LEVEL = max(PackagingLevel).value


class GraphEdge:
    """A possible containment relationship ``parent contains child``.

    ``history`` is the ``recent_colocations`` bit-vector of §III-A stored as
    an int: bit 0 is the most recent epoch with evidence, bit ``i`` the
    evidence from ``i`` evidence-epochs ago.  A bit is pushed whenever an
    epoch colors at least one endpoint (Fig. 4 step 4): 1 if both endpoints
    share a color, 0 otherwise.  ``filled`` counts pushed bits (saturating
    at the configured history size) so weighting can tell genuine zeros from
    never-written positions.
    """

    __slots__ = (
        "parent",
        "child",
        "history",
        "filled",
        "created_at",
        "update_time",
        "prob",
        "confidence",
    )

    def __init__(self, parent: "GraphNode", child: "GraphNode", now: int) -> None:
        self.parent = parent
        self.child = child
        self.history = 0
        self.filled = 0
        self.created_at = now
        self.update_time = now - 1  # statistics not yet updated this epoch
        self.prob = 0.0        # normalised Eq. 2 probability (set by edge inference)
        self.confidence = 0.0  # unnormalised Eq. 2 value (used for pruning)

    def push_history(self, co_located: bool, size: int) -> bool:
        """Shift the co-location bit-vector and record this epoch's bit.

        Returns True when the stored ``(history, filled)`` pair actually
        changed value — a saturated all-zero (or all-one) history shifted
        by another equal bit is a no-op, which the dirty set does not count.
        """
        old = self.history
        new = ((old << 1) | int(co_located)) & ((1 << size) - 1)
        self.history = new
        if self.filled < size:
            self.filled += 1
            return True
        return new != old

    def history_bits(self, size: int) -> list[bool]:
        """The bit-vector as a list, most recent first (for tests/debugging)."""
        return [bool((self.history >> i) & 1) for i in range(size)]

    def other(self, node: "GraphNode") -> "GraphNode":
        """The endpoint of this edge that is not ``node``."""
        return self.child if node is self.parent else self.parent

    def __repr__(self) -> str:
        return f"GraphEdge({self.parent.tag} -> {self.child.tag})"


class GraphNode:
    """One RFID-tagged object in the graph.

    ``color`` is the observed location color of the *current* epoch (``None``
    when unobserved this epoch); ``recent_color``/``seen_at`` is the
    (most recent color, seen at) memory of §III-A.  ``parents`` maps the tag
    of each possible container to the connecting edge; ``children`` likewise
    for possible contents.

    ``prev_color`` is the color held at the end of the *previous* epoch,
    maintained by :meth:`Graph.begin_epoch` for dirty-set accounting.
    """

    __slots__ = (
        "tag",
        "level",
        "color",
        "prev_color",
        "recent_color",
        "seen_at",
        "parents",
        "children",
        "confirmed_parent",
        "confirmed_at",
        "confirmed_conflicts",
        "created_at",
    )

    def __init__(self, tag: TagId, now: int) -> None:
        self.tag = tag
        self.level: int = tag.level.value
        self.color: int | None = None
        self.prev_color: int | None = None
        self.recent_color: int | None = None
        self.seen_at = now
        self.parents: dict[TagId, GraphEdge] = {}
        self.children: dict[TagId, GraphEdge] = {}
        self.confirmed_parent: TagId | None = None
        self.confirmed_at = -1
        self.confirmed_conflicts = 0
        self.created_at = now

    @property
    def is_colored(self) -> bool:
        return self.color is not None

    def set_confirmed_parent(self, parent: TagId, now: int) -> None:
        """Record a special-reader confirmation that ``parent`` contains this object."""
        self.confirmed_parent = parent
        self.confirmed_at = now
        self.confirmed_conflicts = 0

    def record_conflict(self) -> None:
        """Count an observation conflicting with the last confirmation."""
        self.confirmed_conflicts += 1

    def edges(self) -> Iterator[GraphEdge]:
        """All incident edges (parent edges first)."""
        yield from self.parents.values()
        yield from self.children.values()

    def __repr__(self) -> str:
        color = self.color if self.color is not None else "-"
        return f"GraphNode({self.tag}, color={color})"


#: Approximate per-node / per-edge memory footprint in bytes, measured once
#: from live instances (slots object + the two per-node dicts).  Used by
#: :meth:`Graph.memory_bytes`, the deterministic stand-in for the paper's
#: JVM heap measurements in Fig. 10.
_NODE_BYTES = (
    sys.getsizeof(GraphNode(TagId(PackagingLevel.ITEM, 1), 0))
    + 2 * sys.getsizeof({})
    + 64  # tag + bookkeeping entries in the graph-level indexes
)
_EDGE_BYTES = (
    sys.getsizeof(
        GraphEdge(
            GraphNode(TagId(PackagingLevel.CASE, 1), 0),
            GraphNode(TagId(PackagingLevel.ITEM, 1), 0),
            0,
        )
    )
    + 2 * 104  # two dict entries (parent.children / child.parents)
)


#: sort key putting nodes in tag order — the order candidate edges are drawn
#: and inference layers are swept in, so that no set's iteration order
#: (object identity hashes) reaches an edge dict or a tie-break
by_tag = attrgetter("tag")


def _reject_edge(parent: GraphNode, child: GraphNode) -> None:
    raise ValueError(
        f"edges must point down packaging levels: "
        f"{parent.tag} (level {parent.level}) -> {child.tag} (level {child.level})"
    )


class Graph:
    """The time-varying colored graph with its layer/color indexes.

    The graph is mutated in an epoch rhythm: :meth:`begin_epoch` clears all
    node colors (observed objects will be re-colored by the capture step),
    then :class:`repro.core.capture.GraphUpdater` applies each reader's
    reading set.  An index from ``(layer, color)`` to the colored nodes
    backs Fig. 4's "closest level above/below containing nodes colored C"
    queries in O(#levels).
    """

    def __init__(self) -> None:
        self._nodes: dict[TagId, GraphNode] = {}
        self._colored: set[GraphNode] = set()
        # level -> color -> set of nodes currently colored that color
        self._by_level_color: dict[int, dict[int, set[GraphNode]]] = {
            level: {} for level in range(_MIN_LEVEL, _MAX_LEVEL + 1)
        }
        self._edge_count = 0
        #: nodes whose color state, edges or read evidence changed this
        #: epoch (cleared by :meth:`begin_epoch`)
        self._dirty: set[GraphNode] = set()
        #: nodes colored in the previous epoch (for lost-color detection)
        self._prev_colored: list[GraphNode] = []

    # ------------------------------------------------------------------
    # basic access
    # ------------------------------------------------------------------

    def __contains__(self, tag: TagId) -> bool:
        return tag in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def get(self, tag: TagId) -> GraphNode | None:
        return self._nodes.get(tag)

    def node(self, tag: TagId) -> GraphNode:
        """Node for ``tag``; raises ``KeyError`` if absent."""
        return self._nodes[tag]

    def nodes(self) -> Iterator[GraphNode]:
        return iter(self._nodes.values())

    def colored_nodes(self) -> Iterable[GraphNode]:
        """Nodes observed (colored) in the current epoch."""
        return self._colored

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def edges(self) -> Iterator[GraphEdge]:
        """All edges, each yielded once (from its parent endpoint)."""
        for node in self._nodes.values():
            yield from node.children.values()

    def memory_bytes(self) -> int:
        """Deterministic estimate of the graph's resident size in bytes."""
        return self.node_count * _NODE_BYTES + self._edge_count * _EDGE_BYTES

    # ------------------------------------------------------------------
    # epoch lifecycle and coloring
    # ------------------------------------------------------------------

    def begin_epoch(self) -> None:
        """Uncolor every node; uncolored nodes keep (recent_color, seen_at).

        Also rolls the per-epoch dirty-set accounting: each previously
        colored node's color is remembered as ``prev_color`` (consumed by
        :meth:`set_color` and :meth:`finalize_epoch` for dirty-set
        accounting) and the dirty set is cleared.
        """
        for node in self._prev_colored:
            node.prev_color = None
        prev = list(self._colored)
        for node in prev:
            node.prev_color = node.color
            node.color = None
        self._prev_colored = prev
        for color_index in self._by_level_color.values():
            color_index.clear()
        self._colored.clear()
        self._dirty.clear()

    def finalize_epoch(self) -> None:
        """Close the epoch's dirty-set accounting.

        A node colored last epoch but not this one *lost* its color — a
        color-state change :meth:`set_color` cannot see (it is never called
        for the node), so it is caught here by comparing against
        ``prev_color``.
        """
        dirty = self._dirty
        for node in self._prev_colored:
            if node.color is None:
                dirty.add(node)

    def get_or_create(self, tag: TagId, now: int) -> GraphNode:
        """Node for ``tag``, creating it on first observation (Fig. 4 step 1)."""
        node = self._nodes.get(tag)
        if node is None:
            node = GraphNode(tag, now)
            self._nodes[tag] = node
            self._dirty.add(node)
        return node

    def set_color(self, node: GraphNode, color: int, now: int) -> bool:
        """Color ``node`` for the current epoch.

        Returns True when ``color`` is a *new* color for the node — i.e. it
        differs from the node's most recent color — which is what gates edge
        creation in Fig. 4 (see the step-2 optimisation in §III-B).
        """
        if node.color == color:
            return False
        if node.color is not None:
            # re-colored within the epoch (dedup normally prevents this;
            # last writer wins)
            self._by_level_color[node.level][node.color].discard(node)
        is_new = node.recent_color != color
        node.color = color
        node.recent_color = color
        node.seen_at = now
        if node.prev_color != color:
            self._dirty.add(node)
        self._by_level_color[node.level].setdefault(color, set()).add(node)
        self._colored.add(node)
        return is_new

    def colored_at(self, level: int, color: int) -> set[GraphNode]:
        """Nodes at ``level`` currently colored ``color`` (may be empty)."""
        return self._by_level_color.get(level, {}).get(color, set())

    def closest_colored_level(self, level: int, color: int, direction: int) -> int | None:
        """Closest level above (+1) or below (-1) ``level`` with ``color`` nodes."""
        step = 1 if direction > 0 else -1
        candidate = level + step
        while _MIN_LEVEL <= candidate <= _MAX_LEVEL:
            if self.colored_at(candidate, color):
                return candidate
            candidate += step
        return None

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------

    def add_edge(self, parent: GraphNode, child: GraphNode, now: int) -> GraphEdge:
        """Create (or return the existing) edge ``parent -> child``."""
        self.add_edges(child, (parent,), (), now)
        return parent.children[child.tag]

    def add_edges(
        self,
        node: GraphNode,
        parents: Sequence[GraphNode],
        children: Sequence[GraphNode],
        now: int,
    ) -> None:
        """Draw ``p -> node`` for each of ``parents``, then ``node -> c``
        for each of ``children``.

        The one place edges are created.  Capture draws all of a newly
        colored node's candidates in one call, a co-located level on each
        side, so ``parents`` must hold nodes of a *single* packaging level
        and so must ``children``: level ordering is checked once per side
        per call, on its first node, not once per edge.  A pair that
        already has an edge keeps it untouched — ``created_at``, history
        and its position in both endpoints' dicts stay — and new edges are
        appended to both endpoints' dicts in iteration order, which is the
        order every downstream tie-break sees.
        """
        level = node.level
        if parents and parents[0].level <= level:
            _reject_edge(parents[0], node)
        if children and children[0].level >= level:
            _reject_edge(node, children[0])
        tag = node.tag
        dirty_add = self._dirty.add
        created = 0
        mine = node.parents
        for parent in parents:
            parent_tag = parent.tag
            if parent_tag not in mine:
                mine[parent_tag] = parent.children[tag] = GraphEdge(parent, node, now)
                dirty_add(parent)
                created += 1
        mine = node.children
        for child in children:
            child_tag = child.tag
            if child_tag not in mine:
                mine[child_tag] = child.parents[tag] = GraphEdge(node, child, now)
                dirty_add(child)
                created += 1
        if created:
            dirty_add(node)
            self._edge_count += created

    def remove_edge(self, edge: GraphEdge) -> None:
        """Drop ``edge`` from both endpoints."""
        removed = edge.parent.children.pop(edge.child.tag, None)
        edge.child.parents.pop(edge.parent.tag, None)
        if removed is not None:
            self._edge_count -= 1
            self._dirty.add(edge.child)
            self._dirty.add(edge.parent)

    def remove_node(self, tag: TagId) -> None:
        """Remove the node for ``tag`` and all its incident edges.

        Used when an object exits the physical world through a proper
        channel (§IV-C graph pruning).
        """
        node = self._nodes.pop(tag, None)
        if node is None:
            return
        for edge in list(node.edges()):
            self.remove_edge(edge)
        if node.color is not None:
            self._by_level_color[node.level][node.color].discard(node)
        self._colored.discard(node)
        self._dirty.discard(node)

    # ------------------------------------------------------------------
    # the dirty set: a per-epoch diagnostic (DESIGN.md §8)
    # ------------------------------------------------------------------

    def mark_dirty(self, node: GraphNode) -> None:
        """Count ``node`` among this epoch's changed nodes."""
        self._dirty.add(node)

    def dirty_nodes(self) -> Iterable[GraphNode]:
        """Nodes whose color state, edges or evidence changed this epoch."""
        return self._dirty

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    def mark_recent_colors_dirty(self, colors: Iterable[int]) -> None:
        """Dirty every node whose remembered color is in ``colors``.

        Used on reader-health suppression transitions: the decay behaviour
        of all objects last seen at an affected location changes, so they
        join the epoch's dirty set.  This is an O(total nodes) scan, but it
        runs only when the suppressed-color *set* changes (outage onset or
        recovery), never on the steady-state per-epoch path.
        """
        wanted = set(colors)
        if not wanted:
            return
        dirty = self._dirty
        for node in self._nodes.values():
            if node.recent_color in wanted:
                dirty.add(node)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert structural consistency; used by property-based tests."""
        edge_total = 0
        for node in self._nodes.values():
            for tag, edge in node.children.items():
                assert edge.parent is node and edge.child.tag == tag
                assert edge.child.parents.get(node.tag) is edge, "asymmetric edge"
                assert edge.parent.level > edge.child.level, "edge level ordering"
                edge_total += 1
            for tag, edge in node.parents.items():
                assert edge.child is node and edge.parent.tag == tag
            if node.color is not None:
                assert node in self._by_level_color[node.level][node.color]
                assert node in self._colored
                assert node.recent_color == node.color
        assert edge_total == self._edge_count, "edge count drift"
        for level, colors in self._by_level_color.items():
            for color, nodes in colors.items():
                for node in nodes:
                    assert node.color == color and node.level == level
        # two colored endpoints of an edge must share the color (§III-A)
        for node in self._nodes.values():
            for edge in node.children.values():
                if edge.parent.is_colored and edge.child.is_colored:
                    assert edge.parent.color == edge.child.color, (
                        f"edge {edge} connects different colors"
                    )
