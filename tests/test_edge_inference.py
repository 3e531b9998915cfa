"""Unit tests for edge inference (Eqs. 1–2) and pruning."""

import pytest

from repro.core.edge_inference import (
    effective_beta,
    history_weight,
    infer_edges,
)
from repro.core.graph import Graph
from repro.core.params import InferenceParams

from tests.conftest import case, item


@pytest.fixture
def graph() -> Graph:
    return Graph()


def make_edge(graph, parent_tag, child_tag, bits, now=10):
    """Edge with a given co-location history (most recent bit first)."""
    parent = graph.get_or_create(parent_tag, 0)
    child = graph.get_or_create(child_tag, 0)
    edge = graph.add_edge(parent, child, 0)
    size = InferenceParams().history_size
    for bit in reversed(bits):
        edge.push_history(bit, size)
    return edge


class TestHistoryWeight:
    def test_empty_history_weighs_zero(self, graph):
        edge = make_edge(graph, case(1), item(1), [])
        assert history_weight(edge, InferenceParams()) == 0.0

    def test_alpha_zero_is_fraction_of_filled(self, graph):
        edge = make_edge(graph, case(1), item(1), [True, False, True, True])
        assert history_weight(edge, InferenceParams(alpha=0.0)) == pytest.approx(3 / 4)

    def test_single_positive_bit_weighs_one(self, graph):
        edge = make_edge(graph, case(1), item(1), [True])
        assert history_weight(edge, InferenceParams()) == pytest.approx(1.0)

    def test_positive_alpha_emphasises_recent(self, graph):
        recent = make_edge(graph, case(1), item(1), [True, False, False, False])
        old = make_edge(graph, case(2), item(2), [False, False, False, True])
        params = InferenceParams(alpha=1.0)
        assert history_weight(recent, params) > history_weight(old, params)

    def test_alpha_zero_ignores_position(self, graph):
        recent = make_edge(graph, case(1), item(1), [True, False, False, False])
        old = make_edge(graph, case(2), item(2), [False, False, False, True])
        params = InferenceParams(alpha=0.0)
        assert history_weight(recent, params) == history_weight(old, params)


class TestInferEdges:
    def test_no_parents_returns_none(self, graph):
        node = graph.get_or_create(item(1), 0)
        assert infer_edges(node, InferenceParams()) == (None, [])

    def test_probabilities_normalised(self, graph):
        make_edge(graph, case(1), item(1), [True, True])
        make_edge(graph, case(2), item(1), [True, False])
        node = graph.node(item(1))
        infer_edges(node, InferenceParams())
        total = sum(e.prob for e in node.parents.values())
        assert total == pytest.approx(1.0)

    def test_stronger_history_wins(self, graph):
        strong = make_edge(graph, case(1), item(1), [True, True, True, True])
        make_edge(graph, case(2), item(1), [True, False, False, False])
        node = graph.node(item(1))
        best, _weak = infer_edges(node, InferenceParams())
        assert best is strong

    def test_confirmation_outweighs_moderate_history(self, graph):
        make_edge(graph, case(1), item(1), [True, True])
        confirmed = make_edge(graph, case(2), item(1), [True, True])
        node = graph.node(item(1))
        node.set_confirmed_parent(case(2), now=5)
        best, _weak = infer_edges(node, InferenceParams(beta=0.4))
        assert best is confirmed
        # the (1 - beta) memory bonus shows in the unnormalised confidence
        assert confirmed.confidence == pytest.approx(0.6 * 1.0 + 0.4 * 1.0)

    def test_beta_one_ignores_confirmation(self, graph):
        strong = make_edge(graph, case(1), item(1), [True] * 8)
        confirmed = make_edge(graph, case(2), item(1), [False] * 8)
        node = graph.node(item(1))
        node.set_confirmed_parent(case(2), now=5)
        best, _weak = infer_edges(node, InferenceParams(beta=1.0))
        assert best is strong

    def test_beta_zero_trusts_only_confirmation(self, graph):
        make_edge(graph, case(1), item(1), [True] * 8)
        confirmed = make_edge(graph, case(2), item(1), [False] * 8)
        node = graph.node(item(1))
        node.set_confirmed_parent(case(2), now=5)
        best, _weak = infer_edges(node, InferenceParams(beta=0.0))
        assert best is confirmed

    def test_uniform_when_no_evidence(self, graph):
        make_edge(graph, case(1), item(1), [])
        make_edge(graph, case(2), item(1), [])
        node = graph.node(item(1))
        best, _weak = infer_edges(node, InferenceParams())
        assert best is not None
        for edge in node.parents.values():
            assert edge.prob == pytest.approx(0.5)


class TestAdaptiveBeta:
    def test_fixed_beta_without_flag(self, graph):
        node = graph.get_or_create(item(1), 0)
        assert effective_beta(node, InferenceParams(beta=0.3)) == 0.3

    def test_without_confirmation_falls_back(self, graph):
        node = graph.get_or_create(item(1), 0)
        params = InferenceParams(beta=0.3, adaptive_beta=True)
        assert effective_beta(node, params) == 0.3

    def test_conflicts_raise_beta(self, graph):
        edge = make_edge(graph, case(1), item(1), [True, True, True])
        node = graph.node(item(1))
        node.set_confirmed_parent(case(1), now=0)
        node.confirmed_conflicts = 3
        params = InferenceParams(beta=0.4, adaptive_beta=True)
        # 3 conflicts vs 3 supportive observations -> beta = 0.5
        assert effective_beta(node, params) == pytest.approx(3 / (3 + edge.filled))

    def test_no_conflicts_keeps_beta_low(self, graph):
        make_edge(graph, case(1), item(1), [True] * 10)
        node = graph.node(item(1))
        node.set_confirmed_parent(case(1), now=0)
        params = InferenceParams(beta=0.4, adaptive_beta=True)
        assert effective_beta(node, params) == 0.0


class TestPruning:
    def test_weak_edges_listed(self, graph):
        make_edge(graph, case(1), item(1), [True] * 8)
        weak = make_edge(graph, case(2), item(1), [False] * 8)
        node = graph.node(item(1))
        _best, victims = infer_edges(node, InferenceParams(prune_threshold=0.25))
        assert victims == [weak]

    def test_best_edge_never_pruned(self, graph):
        make_edge(graph, case(1), item(1), [False] * 8)
        node = graph.node(item(1))
        best, victims = infer_edges(node, InferenceParams(prune_threshold=0.9))
        assert best is not None and victims == []

    def test_confirmed_edge_never_pruned(self, graph):
        make_edge(graph, case(1), item(1), [True] * 8)
        make_edge(graph, case(2), item(1), [False] * 8)
        node = graph.node(item(1))
        node.set_confirmed_parent(case(2), now=0)
        # beta = 1: history decides, so the confirmed edge is not the argmax
        best, victims = infer_edges(node, InferenceParams(beta=1.0, prune_threshold=0.9))
        assert best.parent.tag == case(1) and victims == []

    def test_zero_threshold_disables_pruning(self, graph):
        make_edge(graph, case(1), item(1), [True] * 8)
        make_edge(graph, case(2), item(1), [False] * 8)
        node = graph.node(item(1))
        _best, victims = infer_edges(node, InferenceParams(prune_threshold=0.0))
        assert victims == []
