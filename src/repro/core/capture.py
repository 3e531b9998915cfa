"""Stream-driven graph construction (Section III-B, Fig. 4).

:class:`GraphUpdater` applies one reader's epoch reading set at a time,
exactly as the paper's ``graph_update`` procedure: (1) create and color
nodes, (2) add candidate containment edges for nodes that gained a *new*
color, (3) remove outdated edges (different colors, or contradicted by a
special-reader confirmation), (4) update per-edge co-location statistics and
per-node confirmations.  Processing is incremental per reader and leaves the
graph consistent after each reading set, so coarsely synchronised readers
are handled naturally.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Sequence

from repro.core.graph import Graph, GraphNode, by_tag
from repro.core.params import InferenceParams
from repro.model.objects import PackagingLevel, TagId
from repro.readers.reader import Reader
from repro.readers.stream import EpochReadings

_by_level = attrgetter("level")

#: one co-located level as step-2 candidates: (all, unbound, bound by parent tag)
_LevelCandidates = tuple[list[GraphNode], list[GraphNode], dict[TagId, list[GraphNode]]]


@dataclass(frozen=True)
class ReaderInfo:
    """The deployment knowledge SPIRE holds about one reader.

    Attributes:
        reader_id: Reader id appearing in the raw stream.
        color: Color (location) the reader's readings imply.
        is_special: Whether readings from this reader confirm containment.
        singulation_level: For special readers, the container level the
            reader scans one at a time.
        is_exit: Whether the reader marks a proper exit channel — objects it
            observes leave the monitored world, and their nodes are removed
            after inference.
        period: Interrogation period in epochs (drives the partial/complete
            inference schedule, §IV-D).
    """

    reader_id: int
    color: int
    is_special: bool = False
    singulation_level: PackagingLevel | None = None
    is_exit: bool = False
    period: int = 1

    @classmethod
    def from_reader(cls, reader: Reader) -> "ReaderInfo":
        return cls(
            reader_id=reader.reader_id,
            color=reader.location.color,
            is_special=reader.is_special,
            singulation_level=reader.singulation_level,
            is_exit=reader.is_exit,
            period=reader.period,
        )


@dataclass(frozen=True)
class Confirmation:
    """What one special-reader reading set confirms (§II, §III-B step 3).

    A special reader scans containers at ``singulation_level`` one at a
    time, so when exactly one tag at that level appears in the reading set:

    * that container is confirmed to be a *top-level* container (any parent
      edge of it can be dropped), and
    * it is confirmed to be the parent of every co-read tag one packaging
      level below it.
    """

    top_container: TagId | None
    parent_of: dict[TagId, TagId]

    @classmethod
    def from_readings(
        cls, tags: list[TagId], singulation_level: PackagingLevel | None
    ) -> "Confirmation":
        if singulation_level is None:
            return cls(top_container=None, parent_of={})
        containers = [t for t in tags if t.level == singulation_level]
        if len(containers) != 1:
            # Nothing (or several containers — impossible under proper
            # singulation, but the stream is untrusted) at the singulated
            # level: no confirmation can be drawn this epoch.
            return cls(top_container=None, parent_of={})
        container = containers[0]
        child_level = singulation_level - 1
        parent_of = {t: container for t in tags if t.level == child_level}
        return cls(top_container=container, parent_of=parent_of)


NO_CONFIRMATION = Confirmation(top_container=None, parent_of={})


class GraphUpdater:
    """Applies epoch reading sets to a :class:`Graph` (the data-capture module)."""

    def __init__(self, graph: Graph, params: InferenceParams) -> None:
        self.graph = graph
        self.params = params
        #: tags observed by an exit reader in the current epoch; the
        #: pipeline removes their nodes after inference (§IV-C pruning).
        self.exiting: set[TagId] = set()
        #: locations whose readers are presumed dead this epoch (set by the
        #: pipeline from the reader-health monitor).  A non-co-location
        #: against a node last seen at a suppressed color is withheld from
        #: the edge statistics: the missing read is explained by the outage
        #: and must not erode containment evidence or confirmations.
        self.suppressed_colors: frozenset[int] = frozenset()
        #: cumulative candidate-edge draws (plain int: the telemetry layer
        #: reads per-epoch deltas off the hot path, see repro.obs)
        self.candidate_edges = 0
        # registration-time reader cache (see register_readers)
        self._registered: dict[int, ReaderInfo] | None = None
        self._derived: dict[int, tuple[ReaderInfo, int | None]] = {}

    # ------------------------------------------------------------------

    def register_readers(self, readers: dict[int, ReaderInfo]) -> None:
        """Cache per-reader derived values at registration time.

        Derives once what :meth:`apply_epoch` would otherwise recompute per
        epoch: the singulation *child* level a special reader confirms
        parents at, bundled with the info record so the per-epoch loop does
        a single dict lookup per reporting reader.
        """
        self._registered = readers
        self._derived = {
            reader_id: (
                info,
                info.singulation_level - 1
                if info.singulation_level is not None
                else None,
            )
            for reader_id, info in readers.items()
        }

    def begin_epoch(self) -> None:
        """Start a new epoch: uncolor all nodes, reset per-epoch state."""
        self.graph.begin_epoch()
        self.exiting = set()

    def apply_epoch(
        self,
        readings: EpochReadings,
        readers: dict[int, ReaderInfo],
        now: int,
    ) -> None:
        """Apply a full (deduplicated) epoch of readings, one reader at a time.

        Raises ``KeyError`` for a reading from an unregistered reader id
        before the graph is touched (see :meth:`check_readers`).
        """
        self.check_readers(readings, readers)
        derived = self._derived
        self.begin_epoch()
        for reader_id in sorted(readings.by_reader):
            self.apply_reader(readings.by_reader[reader_id], derived[reader_id][0], now)
        self.graph.finalize_epoch()

    def check_readers(
        self, readings: EpochReadings, readers: dict[int, ReaderInfo]
    ) -> None:
        """Raise ``KeyError`` if any reporting reader id is not in ``readers``.

        Mutates nothing the epoch rhythm depends on, so a caller can reject
        a bad batch while it is still free to accept a corrected one for
        the same epoch.
        """
        if readers is not self._registered:
            self.register_readers(readers)
        unknown = readings.by_reader.keys() - self._derived.keys()
        if unknown:
            raise KeyError(f"reading from unknown reader id {min(unknown)}")

    def apply_reader(self, tags: list[TagId], info: ReaderInfo, now: int) -> None:
        """The ``graph_update(G, R_k)`` procedure of Fig. 4 for one reader."""
        graph = self.graph
        color = info.color

        # Step 1: create and color nodes (Fig. 4 lines 2-6).
        newly_colored: list[GraphNode] = []
        colored: list[GraphNode] = []
        for tag in tags:
            node = graph.get_or_create(tag, now)
            is_new_color = graph.set_color(node, color, now)
            colored.append(node)
            if is_new_color:
                newly_colored.append(node)

        if info.is_exit:
            self.exiting.update(tags)

        confirmation = (
            Confirmation.from_readings(tags, info.singulation_level)
            if info.is_special
            else NO_CONFIRMATION
        )

        # Step 2: add candidate edges for nodes with a new color
        # (Fig. 4 lines 9-13, with the §III-B "newly colored only"
        # optimisation).  Process levels bottom-up as in the paper.
        if newly_colored:
            self._add_candidate_edges(newly_colored, color, now)

        # Steps 3+4: remove outdated edges and update statistics
        # (Fig. 4 lines 14-31) for every colored node.
        for node in colored:
            self._refresh_edges(node, confirmation, now)

        # Confirmation effects that do not hinge on a visited edge: record
        # the confirmed parent even if the corresponding edge was only just
        # created, and drop edges contradicted by the confirmation.
        self._apply_confirmation(confirmation, now)

    # ------------------------------------------------------------------
    # step 2
    # ------------------------------------------------------------------

    def _add_candidate_edges(
        self, newly_colored: list[GraphNode], color: int, now: int
    ) -> None:
        """Connect each newly colored node to the same-colored nodes in the
        closest layers, bottom-up (Fig. 4 lines 9-13).

        If the adjacent layer has no node of this color, the edge is drawn
        to the next higher/lower layer that does (§III-B step 2), so e.g. an
        item whose case was missed can still be tied to a co-located pallet.

        Step 2 only adds edges: colors, confirmations and the node set are
        fixed while it runs, so everything a node's candidates depend on
        except the node itself is constant within one reading set.  It is
        derived once per level (:meth:`_candidate_index`) and every node of
        a level draws from that, instead of re-sorting and re-testing the
        co-located level per node.

        **Confirmation-aware filtering** (DESIGN.md §8): a child bound to a
        different parent by a standing, conflict-free special-reader
        confirmation draws no new candidate edge.  While the confirmation is
        unconflicted the confirmed edge only ever receives co-location
        pushes (a contradicting push records a conflict in the same breath),
        so its Eq. 2 confidence stays at the ``(1 - beta) + beta`` ceiling
        and strictly dominates any rival's ``beta``-bounded confidence —
        the rival could never be chosen, but would be maintained forever
        when the pair keeps sharing a location (e.g. co-shelved objects).
        The first conflict, or the confirmed parent leaving the graph,
        reopens normal candidate generation.
        """
        graph = self.graph
        index: dict[int | None, _LevelCandidates] = {None: ([], [], {})}
        drawn = 0
        for level, nodes in groupby(sorted(newly_colored, key=_by_level), key=_by_level):
            above = graph.closest_colored_level(level, color, direction=+1)
            below = graph.closest_colored_level(level, color, direction=-1)
            candidates = self._candidate_index(index, above, color)[0]
            _, unbound, bound = self._candidate_index(index, below, color)
            for node in nodes:
                parents: Sequence[GraphNode] = ()
                if candidates:
                    confirmed = self._binding_parent(node)
                    if confirmed is None:
                        parents = candidates
                    elif confirmed.color == color and confirmed.level > level:
                        parents = (confirmed,)
                own = bound.get(node.tag)
                children = unbound if own is None else sorted(unbound + own, key=by_tag)
                graph.add_edges(node, parents, children, now)
                drawn += len(parents) + len(children)
        self.candidate_edges += drawn

    def _candidate_index(
        self, index: dict[int | None, _LevelCandidates], level: int | None, color: int
    ) -> _LevelCandidates:
        """The nodes at ``level`` colored ``color`` as candidates, memoised
        in ``index`` for the duration of one reading set (which seeds it
        with no candidates for "no such level").

        Returns ``(all, unbound, bound)``: every such node (the candidate
        parents of a node below), those free to take any parent, and — by
        binding parent's tag — those that accept an edge from that parent
        only (see :meth:`_binding_parent`).  All three are in tag order:
        the colored-at index holds sets, whose iteration order follows
        object identity hashes — letting that order leak into edge
        insertion order (and through dict-order tie-breaking, into
        container choices) makes otherwise identical runs diverge between
        processes.
        """
        entry = index.get(level)
        if entry is None:
            nodes = sorted(self.graph.colored_at(level, color), key=by_tag)
            unbound: list[GraphNode] = []
            bound: dict[TagId, list[GraphNode]] = {}
            for node in nodes:
                confirmed = self._binding_parent(node)
                if confirmed is None:
                    unbound.append(node)
                else:
                    bound.setdefault(confirmed.tag, []).append(node)
            entry = index[level] = (nodes, unbound, bound)
        return entry

    def _binding_parent(self, node: GraphNode) -> GraphNode | None:
        """The node's confirmed parent, when that confirmation still binds:
        conflict-free and the parent still in the graph (see
        :meth:`_add_candidate_edges`)."""
        confirmed = node.confirmed_parent
        if confirmed is None or node.confirmed_conflicts:
            return None
        return self.graph.get(confirmed)

    # ------------------------------------------------------------------
    # steps 3 + 4
    # ------------------------------------------------------------------

    def _refresh_edges(self, node: GraphNode, confirmation: Confirmation, now: int) -> None:
        """Drop outdated edges of ``node`` and update edge statistics.

        ``node`` is colored (the caller iterates this epoch's colored
        nodes), which lets the parent-side and child-side loops specialise
        the co-location and skip tests instead of re-deriving them per edge
        via :meth:`GraphEdge.other`.  Removals are collected and applied
        after the loops so the edge dicts can be iterated without snapshot
        copies; per-edge work is independent, so deferral does not change
        behaviour.
        """
        graph = self.graph
        size = self.params.history_size
        mask = (1 << size) - 1
        color = node.color
        tag = node.tag
        parent_of = confirmation.parent_of
        top = confirmation.top_container
        suppressed = self.suppressed_colors
        dirty_add = graph._dirty.add
        removals: list = []

        # node as the parent endpoint: same-colored edges are visited only
        # once, from here — the higher packaging level (§III-B cost
        # analysis; both endpoints of a same-colored edge are colored by
        # the same reader, so this visit does the full work).  The history
        # push (GraphEdge.push_history) is inlined: this loop touches every
        # standing edge of every colored node each epoch and the call
        # dispatch alone dominates it.
        for edge in node.children.values():
            child = edge.child
            co_located = child.color == color

            # Step 3 (lines 15-20): removal applies to pre-existing edges.
            if edge.created_at < now:
                if child.color is not None and not co_located:
                    removals.append(edge)
                    continue
                child_tag = child.tag
                if top == child_tag:
                    # the child is confirmed to be a top-level container
                    removals.append(edge)
                    continue
                confirmed = parent_of.get(child_tag)
                if confirmed is not None and confirmed != tag:
                    # the child has a different confirmed parent this epoch
                    removals.append(edge)
                    continue

            # Step 4 (lines 21-31): update statistics once per epoch.
            if edge.update_time < now:
                if not co_located and suppressed and self._outage_explains(child):
                    # graceful degradation: the partner was last seen at a
                    # location whose reader is down, so this epoch carries
                    # no co-location evidence either way
                    edge.update_time = now
                    continue
                old = edge.history
                new = ((old << 1) | 1) & mask if co_located else (old << 1) & mask
                edge.history = new
                if edge.filled < size:
                    edge.filled += 1
                    dirty_add(child)
                elif new != old:
                    dirty_add(child)
                if co_located:
                    if parent_of.get(child.tag) == tag:
                        if child.confirmed_parent != tag or child.confirmed_conflicts:
                            dirty_add(child)
                        child.set_confirmed_parent(tag, now)
                elif child.confirmed_parent == tag:
                    child.record_conflict()
                    dirty_add(child)
                edge.update_time = now

        # node as the child endpoint: a parent sharing this epoch's color
        # was (or will be) handled by its own parent-side visit above, so
        # only differently-colored or unobserved parents remain — never a
        # co-location.
        for edge in node.parents.values():
            parent = edge.parent
            if parent.color == color:
                continue

            if edge.created_at < now:
                if parent.color is not None:
                    removals.append(edge)
                    continue
                if top == tag:
                    removals.append(edge)
                    continue
                confirmed = parent_of.get(tag)
                if confirmed is not None and confirmed != parent.tag:
                    removals.append(edge)
                    continue

            if edge.update_time < now:
                if suppressed and self._outage_explains(parent):
                    edge.update_time = now
                    continue
                old = edge.history
                new = (old << 1) & mask
                edge.history = new
                if edge.filled < size:
                    edge.filled += 1
                    dirty_add(node)
                elif new != old:
                    dirty_add(node)
                if node.confirmed_parent == parent.tag:
                    node.record_conflict()
                    dirty_add(node)
                edge.update_time = now

        for edge in removals:
            graph.remove_edge(edge)

    def _outage_explains(self, other: GraphNode) -> bool:
        """True when ``other`` is unobserved and its last known location's
        reader is presumed dead — the non-read is the outage's fault."""
        return (
            bool(self.suppressed_colors)
            and not other.is_colored
            and other.recent_color is not None
            and other.recent_color in self.suppressed_colors
        )

    def _apply_confirmation(self, confirmation: Confirmation, now: int) -> None:
        """Apply confirmation effects beyond the per-edge pass.

        Fig. 4 folds confirmation handling into the edge loop; when a
        confirmed pair's edge was created only this epoch (so step 3 skipped
        it) the child must still learn its confirmed parent, and parent
        edges of a confirmed top-level container must still be dropped even
        if the container itself was the unvisited endpoint.
        """
        graph = self.graph
        if confirmation.top_container is not None:
            top = graph.get(confirmation.top_container)
            if top is not None:
                for edge in list(top.parents.values()):
                    graph.remove_edge(edge)
        for child_tag, parent_tag in confirmation.parent_of.items():
            child = graph.get(child_tag)
            if child is None:
                continue
            if child.confirmed_parent != parent_tag:
                child.set_confirmed_parent(parent_tag, now)
                graph.mark_dirty(child)
            # drop alternative parent edges contradicted by the confirmation
            for edge in list(child.parents.values()):
                if edge.parent.tag != parent_tag and edge.created_at < now:
                    graph.remove_edge(edge)
