"""Unit tests for node inference (Eqs. 3–4)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.graph import Graph
from repro.core.node_inference import infer_node
from repro.core.params import InferenceParams
from repro.model.locations import UNKNOWN_COLOR

from tests.conftest import case, item, pallet

BLUE, GREEN = 0, 1


@pytest.fixture
def graph() -> Graph:
    return Graph()


def seen_node(graph, tag, color, seen_at):
    """Uncolored node with (recent color, seen at) memory."""
    node = graph.get_or_create(tag, seen_at)
    graph.set_color(node, color, seen_at)
    graph.begin_epoch()
    return node


class TestFadingColor:
    def test_recently_seen_keeps_color(self, graph):
        node = seen_node(graph, item(1), BLUE, seen_at=9)
        belief = infer_node(node, {}, now=10, params=InferenceParams())
        assert belief.color == BLUE

    def test_long_absence_becomes_unknown(self, graph):
        node = seen_node(graph, item(1), BLUE, seen_at=0)
        belief = infer_node(node, {}, now=100, params=InferenceParams(theta=1.25))
        assert belief.color == UNKNOWN_COLOR

    def test_theta_zero_never_fades(self, graph):
        node = seen_node(graph, item(1), BLUE, seen_at=0)
        belief = infer_node(node, {}, now=10_000, params=InferenceParams(theta=0.0))
        assert belief.color == BLUE

    def test_higher_theta_fades_faster(self, graph):
        node = seen_node(graph, item(1), BLUE, seen_at=0)
        slow = infer_node(node, {}, now=3, params=InferenceParams(theta=0.5), with_distribution=True)
        fast = infer_node(node, {}, now=3, params=InferenceParams(theta=3.0), with_distribution=True)
        assert slow.distribution[BLUE] > fast.distribution[BLUE]
        assert slow.distribution[UNKNOWN_COLOR] < fast.distribution[UNKNOWN_COLOR]

    def test_distribution_normalised(self, graph):
        node = seen_node(graph, item(1), BLUE, seen_at=0)
        belief = infer_node(node, {}, now=5, params=InferenceParams(), with_distribution=True)
        assert sum(belief.distribution.values()) == pytest.approx(1.0)


class TestPropagation:
    def _linked(self, graph, edge_prob=1.0):
        parent = graph.get_or_create(case(1), 0)
        child = seen_node(graph, item(1), BLUE, seen_at=0)
        edge = graph.add_edge(parent, child, 0)
        edge.prob = edge_prob
        edge.confidence = max(edge_prob, 0.5)  # above the propagation floor
        return parent, child

    def test_container_color_propagates(self, graph):
        parent, child = self._linked(graph)
        belief = infer_node(
            child, {parent: GREEN}, now=50, params=InferenceParams(gamma=0.6, theta=1.25)
        )
        # faded own color: the container's observed color should win
        assert belief.color == GREEN

    def test_low_gamma_caps_propagation_below_unknown(self, graph):
        # with gamma < 0.5 the Eq. 3/4 masses make "unknown" beat a fully
        # propagated color once the own color has decayed — the paper's
        # conflict resolution (Table I Rule I), not node inference, is what
        # keeps a long-unobserved contained object at its container's
        # location
        parent, child = self._linked(graph)
        belief = infer_node(
            child,
            {parent: GREEN},
            now=50,
            params=InferenceParams(gamma=0.4, theta=1.25),
            with_distribution=True,
        )
        assert belief.color == UNKNOWN_COLOR
        assert belief.distribution[GREEN] == pytest.approx(0.4, abs=0.01)

    def test_gamma_zero_ignores_edges(self, graph):
        parent, child = self._linked(graph)
        belief = infer_node(
            child, {parent: GREEN}, now=2, params=InferenceParams(gamma=0.0), with_distribution=True
        )
        assert GREEN not in belief.distribution

    def test_gamma_one_trusts_only_edges(self, graph):
        parent, child = self._linked(graph)
        belief = infer_node(
            child, {parent: GREEN}, now=2, params=InferenceParams(gamma=1.0), with_distribution=True
        )
        assert belief.color == GREEN
        assert belief.distribution[GREEN] == pytest.approx(1.0)

    def test_unknown_neighbours_propagate_nothing(self, graph):
        parent, child = self._linked(graph)
        belief = infer_node(
            child, {parent: UNKNOWN_COLOR}, now=50, params=InferenceParams()
        )
        assert belief.color == UNKNOWN_COLOR

    def test_edges_weighted_by_probability(self, graph):
        child = seen_node(graph, item(1), BLUE, seen_at=0)
        strong_parent = graph.get_or_create(case(1), 0)
        weak_parent = graph.get_or_create(case(2), 0)
        strong_edge = graph.add_edge(strong_parent, child, 0)
        strong_edge.prob, strong_edge.confidence = 0.9, 0.9
        weak_edge = graph.add_edge(weak_parent, child, 0)
        weak_edge.prob, weak_edge.confidence = 0.1, 0.4
        belief = infer_node(
            child,
            {strong_parent: GREEN, weak_parent: BLUE},
            now=50,
            params=InferenceParams(gamma=0.8),
        )
        assert belief.color == GREEN

    def test_child_edges_also_propagate(self, graph):
        parent = seen_node(graph, case(1), BLUE, seen_at=0)
        child = graph.get_or_create(item(1), 0)
        edge = graph.add_edge(parent, child, 0)
        edge.prob, edge.confidence = 1.0, 1.0
        belief = infer_node(
            parent, {child: GREEN}, now=50, params=InferenceParams(gamma=0.5)
        )
        assert belief.color == GREEN


class TestPeriodNormalisedDecay:
    def test_slow_reader_location_fades_slower(self, graph):
        node = seen_node(graph, item(1), BLUE, seen_at=0)
        params = InferenceParams(theta=1.25)
        raw = infer_node(node, {}, now=60, params=params, with_distribution=True)
        scaled = infer_node(
            node, {}, now=60, params=params, color_periods={BLUE: 60}, with_distribution=True
        )
        # 60 epochs is one shelf period: no decay yet under scaling
        assert scaled.distribution[BLUE] > raw.distribution[BLUE]
        assert scaled.color == BLUE

    def test_fast_reader_unaffected_by_scaling(self, graph):
        node = seen_node(graph, item(1), BLUE, seen_at=0)
        params = InferenceParams(theta=1.25)
        raw = infer_node(node, {}, now=10, params=params, with_distribution=True)
        scaled = infer_node(
            node, {}, now=10, params=params, color_periods={BLUE: 1}, with_distribution=True
        )
        assert raw.distribution == scaled.distribution


class TestEdgeCases:
    def test_never_propagated_never_seen_is_unknown(self, graph):
        node = graph.get_or_create(item(1), 0)
        node.recent_color = None
        belief = infer_node(node, {}, now=10, params=InferenceParams())
        assert belief.color == UNKNOWN_COLOR
        assert belief.prob == pytest.approx(1.0)

    def test_deterministic_tie_break_prefers_recent_color(self, graph):
        # construct an exact tie between own color and a propagated color
        node = seen_node(graph, item(1), BLUE, seen_at=0)
        parent = graph.get_or_create(case(1), 0)
        edge = graph.add_edge(parent, node, 0)
        edge.prob, edge.confidence = 1.0, 1.0
        params = InferenceParams(gamma=0.5, theta=0.0)  # fade = 1 forever
        belief = infer_node(node, {parent: GREEN}, now=5, params=params, with_distribution=True)
        assert belief.distribution[BLUE] == pytest.approx(belief.distribution[GREEN])
        assert belief.color == BLUE


def _general_accumulation(node, effective_colors, now, params, color_periods, suppressed_colors):
    """Eqs. 3-4 as ``infer_node`` computed them before it had an early
    exit: every score in a dict, normalised, argmax through ``rank``.  Kept
    here as the reference the shortcut must reproduce float for float."""
    gamma = params.gamma
    scores = {}
    age = now - node.seen_at
    if age <= 0:
        age = 1
    if color_periods and node.recent_color is not None:
        period = color_periods.get(node.recent_color, 1)
        if period > 1:
            age = max(1.0, age / period)
    if node.recent_color is not None and node.recent_color in suppressed_colors:
        fade = 1.0
    else:
        fade = 1.0 / (age ** params.theta) if params.theta > 0 else 1.0
    if node.recent_color is not None:
        scores[node.recent_color] = (1.0 - gamma) * fade
    scores[UNKNOWN_COLOR] = (1.0 - gamma) * (1.0 - fade)
    if gamma > 0.0:
        propagated = {}
        z2 = 0.0
        for edge in node.edges():
            color = effective_colors.get(edge.other(node))
            if color is None or color == UNKNOWN_COLOR:
                continue
            propagated[color] = propagated.get(color, 0.0) + edge.prob
            z2 += edge.prob
        if z2 > 0.0:
            for color, mass in propagated.items():
                scores[color] = scores.get(color, 0.0) + gamma * mass / z2
    total = sum(scores.values())
    if total <= 0.0:
        return UNKNOWN_COLOR, 1.0
    distribution = {color: mass / total for color, mass in scores.items()}

    def rank(item):
        color, prob = item
        return (
            prob,
            1 if color == node.recent_color else 0,
            1 if color != UNKNOWN_COLOR else 0,
            -color,
        )

    return max(distribution.items(), key=rank)


class TestPropagationFreeEarlyExit:
    """With no propagating neighbour the belief is a two-way comparison;
    it must be the *same floats* as the general accumulation, not close."""

    @settings(max_examples=400, deadline=None)
    @given(
        age=st.integers(min_value=-1, max_value=5000),
        period=st.sampled_from([None, 1, 2, 10, 60]),
        theta=st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 1.25, 3.0]),
            st.floats(min_value=0.0, max_value=8.0),
        ),
        gamma=st.one_of(
            st.sampled_from([0.0, 0.4, 1.0]), st.floats(min_value=0.0, max_value=1.0)
        ),
        recent=st.sampled_from([None, BLUE, GREEN]),
        suppressed=st.booleans(),
        neighbours=st.sampled_from(["none", "absent", "unknown", "zero_prob"]),
    )
    @example(age=2, period=None, theta=1.0, gamma=0.4, recent=BLUE,
             suppressed=False, neighbours="absent")  # age**theta == 2: exact tie
    @example(age=4, period=None, theta=0.5, gamma=0.0, recent=GREEN,
             suppressed=False, neighbours="unknown")  # the same tie through a root
    @example(age=120, period=60, theta=1.0, gamma=0.4, recent=BLUE,
             suppressed=False, neighbours="none")  # and through the reader period
    @example(age=7, period=None, theta=1.25, gamma=1.0, recent=BLUE,
             suppressed=False, neighbours="none")  # gamma == 1: no mass at all
    def test_same_floats_as_the_general_accumulation(
        self, age, period, theta, gamma, recent, suppressed, neighbours
    ):
        graph = Graph()
        node = graph.get_or_create(case(1), 0)
        node.recent_color = recent
        effective_colors = {}
        if neighbours != "none":
            parent = graph.get_or_create(pallet(1), 0)
            child = graph.get_or_create(item(1), 0)
            up = graph.add_edge(parent, node, 0)
            down = graph.add_edge(node, child, 0)
            up.prob, down.prob = 0.75, 0.25
            if neighbours == "unknown":
                effective_colors = {parent: UNKNOWN_COLOR, child: UNKNOWN_COLOR}
            elif neighbours == "zero_prob":
                # colored neighbours behind edges of probability 0: Z2 is 0
                up.prob = down.prob = 0.0
                effective_colors = {parent: GREEN, child: BLUE}
        params = InferenceParams(theta=theta, gamma=gamma)
        periods = {recent: period} if period and recent is not None else None
        dead = frozenset({recent}) if suppressed and recent is not None else frozenset()

        expected = _general_accumulation(node, effective_colors, age, params, periods, dead)
        belief = infer_node(node, effective_colors, age, params, periods, dead)
        assert (belief.color, belief.prob) == expected
        assert belief.distribution is None
        # asking for the distribution takes the general path inside infer_node
        full = infer_node(node, effective_colors, age, params, periods, dead, with_distribution=True)
        assert (full.color, full.prob) == expected
        assert full.distribution[full.color] == full.prob

    def test_exact_tie_keeps_the_recent_color(self, graph):
        node = seen_node(graph, item(1), BLUE, seen_at=0)
        belief = infer_node(node, {}, now=2, params=InferenceParams(theta=1.0))
        assert (belief.color, belief.prob) == (BLUE, 0.5)

    def test_gamma_one_without_neighbours_is_unknown(self, graph):
        node = seen_node(graph, item(1), BLUE, seen_at=0)
        belief = infer_node(node, {}, now=3, params=InferenceParams(gamma=1.0))
        assert (belief.color, belief.prob) == (UNKNOWN_COLOR, 1.0)
