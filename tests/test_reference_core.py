"""Differential tests: the core's procedures against their references.

``tests/reference_core.py`` holds the plain procedures that layer expansion
and candidate generation replaced; hypothesis drives both sides over random
graphs and reading sets and requires *identical* outcomes — the same layer
in the same order, the same edges in the same dict positions — because
every tie-break downstream (edge inference's argmax, conflict resolution,
the stream digests) reads those orders.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.capture import GraphUpdater, ReaderInfo
from repro.core.graph import Graph
from repro.core.iterative import IterativeInference
from repro.core.params import InferenceParams
from repro.model.objects import PackagingLevel, TagId
from repro.readers.dedup import Deduplicator

from tests import reference_core
from tests.conftest import epoch_readings

# ---------------------------------------------------------------------------
# layer expansion
# ---------------------------------------------------------------------------

POOL_SIZES = ((PackagingLevel.PALLET, 3), (PackagingLevel.CASE, 6), (PackagingLevel.ITEM, 12))
POOL = [TagId(level, serial) for level, count in POOL_SIZES for serial in range(1, count + 1)]


@st.composite
def sweeps(draw):
    """A random layered graph, the nodes a sweep starts from, and for each
    expansion the edges inference removes before it."""
    tags = draw(st.lists(st.sampled_from(POOL), min_size=2, max_size=len(POOL), unique=True))
    pairs = [(p, c) for p in tags for c in tags if p.level > c.level]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=40, unique=True)) if pairs else []
    start = draw(st.lists(st.sampled_from(tags), min_size=1, max_size=len(tags), unique=True))
    removals = draw(
        st.lists(st.lists(st.sampled_from(edges), max_size=4), max_size=6) if edges else st.just([])
    )
    return tags, edges, start, removals


@given(sweeps())
@settings(max_examples=300, deadline=None)
def test_both_scan_directions_return_the_reference_layer(sweep):
    tags, edges, start, removals = sweep
    graph = Graph()
    for tag in tags:
        graph.get_or_create(tag, 0)
    for parent, child in edges:
        graph.add_edge(graph.node(parent), graph.node(child), 0)
    inference = IterativeInference(graph, InferenceParams())

    frontier = sorted((graph.node(tag) for tag in start), key=lambda n: n.tag)
    visited = set(frontier)
    for step in range(len(tags)):
        # inference only ever removes edges between two expansions
        for parent, child in removals[step] if step < len(removals) else ():
            edge = graph.node(parent).children.get(child)
            if edge is not None:
                graph.remove_edge(edge)

        expected_visited = set(visited)
        expected = reference_core.next_layer(frontier, expected_visited)

        from_frontier = inference._frontier_neighbours(frontier, visited)
        from_unvisited = inference._adjacent_unvisited(visited)
        assert sorted(from_frontier, key=lambda n: n.tag) == expected
        assert sorted(from_unvisited, key=lambda n: n.tag) == expected

        # and the dispatching method, whichever side it picks
        assert inference._next_layer(frontier, visited) == expected
        assert visited == expected_visited
        frontier = expected
        if not frontier:
            break


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------

DOCK = ReaderInfo(reader_id=0, color=0)
BELT = ReaderInfo(reader_id=1, color=1, is_special=True, singulation_level=PackagingLevel.CASE)
SHELF = ReaderInfo(reader_id=2, color=2, period=3)
#: a second reader at the shelf: two reading sets share a color in one epoch
SHELF_B = ReaderInfo(reader_id=3, color=2, period=3)
PALLET_BELT = ReaderInfo(
    reader_id=4, color=4, is_special=True, singulation_level=PackagingLevel.PALLET
)
READERS = {r.reader_id: r for r in (DOCK, BELT, SHELF, SHELF_B, PALLET_BELT)}

tag_lists = st.lists(st.sampled_from(POOL), max_size=10, unique=True)
reading_sets = st.dictionaries(st.sampled_from(sorted(READERS)), tag_lists, max_size=4)

#: between epochs, state the readings alone reach only rarely: a
#: confirmation out of nowhere (possibly naming a parent that is not in the
#: graph), a conflict on a standing one, a node leaving the graph (which is
#: how a confirmed parent departs)
tampering = st.lists(
    st.one_of(
        st.tuples(st.just("confirm"), st.sampled_from(POOL), st.sampled_from(POOL)),
        st.tuples(st.just("conflict"), st.sampled_from(POOL)),
        st.tuples(st.just("remove"), st.sampled_from(POOL)),
    ),
    max_size=4,
)


def tamper(graph: Graph, ops, now: int) -> None:
    for op in ops:
        node = graph.get(op[1])
        if node is None:
            continue
        if op[0] == "confirm":
            if op[2].level > node.tag.level:
                node.set_confirmed_parent(op[2], now)
        elif op[0] == "conflict":
            node.record_conflict()
        else:
            graph.remove_node(node.tag)


def edge_orders(graph: Graph) -> dict:
    return {
        node.tag: (list(node.parents), list(node.children), node.color)
        for node in graph.nodes()
    }


@given(st.lists(st.tuples(tampering, reading_sets), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_candidate_index_draws_what_the_per_node_procedure_draws(epochs):
    params = InferenceParams()
    shipped = GraphUpdater(Graph(), params)
    reference = reference_core.ReferenceUpdater(Graph(), params)
    dedup = Deduplicator()
    for now, (ops, by_reader) in enumerate(epochs):
        clean = dedup.process(epoch_readings(now, by_reader))
        for updater in (shipped, reference):
            tamper(updater.graph, ops, now)
            updater.apply_epoch(clean, READERS, now)
        assert edge_orders(shipped.graph) == edge_orders(reference.graph)
        assert shipped.candidate_edges == reference.candidate_edges
        assert shipped.graph.edge_count == reference.graph.edge_count
        assert {n.tag for n in shipped.graph.dirty_nodes()} == {
            n.tag for n in reference.graph.dirty_nodes()
        }
        shipped.graph.check_invariants()
