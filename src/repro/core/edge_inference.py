"""Edge inference (Section IV-A): most-likely container of an object.

For a node ``v``, every incoming (parent) edge gets a weight from its
recent co-location history (Eq. 1), those weights are balanced against the
last special-reader confirmation (Eq. 2), and the edge with the highest
probability is chosen as the most likely container.

Equation 1 weights the history bit-vector with a Zipf distribution.  The
paper writes the position weight as ``i^-alpha`` with ``i`` starting at 0;
we use ``(i + 1)^-alpha`` so position 0 (the most recent epoch) is well
defined for ``alpha > 0`` — with the paper's chosen ``alpha = 0`` the two
are identical.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.graph import GraphEdge, GraphNode
from repro.core.params import InferenceParams


@lru_cache(maxsize=64)
def _zipf_weights(size: int, alpha: float) -> tuple[tuple[float, ...], float]:
    """Per-position Zipf weights and their sum for a history of ``size`` bits."""
    weights = tuple(1.0 / (i + 1) ** alpha for i in range(size))
    return weights, sum(weights)


def history_weight(edge: GraphEdge, params: InferenceParams) -> float:
    """Eq. 1: normalised Zipf-weighted sum of the co-location bit-vector.

    Normalisation runs over the *filled* positions of the bit-vector, so the
    weight is the (Zipf-weighted) fraction of remembered evidence epochs in
    which the two objects were co-located — a fresh edge whose single
    evidence bit is positive weighs 1.0, not 1/S.  This keeps the §IV-C
    pruning threshold (default 0.25) meaningful for young edges.
    """
    filled = min(edge.filled, params.history_size)
    if filled == 0 or edge.history == 0:
        return 0.0
    if params.alpha == 0.0:
        # all positions weigh equally: popcount / filled
        return edge.history.bit_count() / filled
    weights, _total = _zipf_weights(params.history_size, params.alpha)
    acc = 0.0
    norm = 0.0
    for i in range(filled):
        norm += weights[i]
        if (edge.history >> i) & 1:
            acc += weights[i]
    return acc / norm


def effective_beta(node: GraphNode, params: InferenceParams) -> float:
    """The ``beta`` to use at ``node`` (§IV-A / Expt 1 adaptive heuristic).

    The adaptive policy sets beta to the ratio of *conflicting* observations
    (only one of the object and its confirmed container was read) to all
    observations involving either since the last confirmation.  Many
    conflicts mean the confirmation is likely obsolete, so belief shifts to
    recent history (high beta); no conflicts keep the confirmation dominant.
    """
    if not params.adaptive_beta or node.confirmed_parent is None:
        return params.beta
    conflicts = node.confirmed_conflicts
    confirmed_edge = node.parents.get(node.confirmed_parent)
    supportive = confirmed_edge.filled if confirmed_edge is not None else 0
    total = conflicts + supportive
    if total == 0:
        return params.beta
    return conflicts / total


def infer_edges(
    node: GraphNode, params: InferenceParams
) -> tuple[GraphEdge | None, list[GraphEdge]]:
    """Run edge inference at ``node``: ``(most likely parent edge, weak edges)``.

    Every parent edge's :attr:`~repro.core.graph.GraphEdge.prob` (normalised
    Eq. 2 probability) and :attr:`~repro.core.graph.GraphEdge.confidence`
    (unnormalised value, used for pruning and Fig. 10) are updated in place.
    The most likely edge is ``None`` when the node has no parent edges.

    The weak edges are those eligible for pruning (§IV-C): unnormalised
    confidence below ``params.prune_threshold``, except the chosen edge and
    the node's confirmed parent edge — removing those would discard the
    containment estimate itself.  Removing them is the caller's business.
    """
    parents = node.parents
    if not parents:
        return None, []
    beta = effective_beta(node, params)
    memory_weight = 1.0 - beta
    confirmed = node.confirmed_parent
    alpha = params.alpha
    history_size = params.history_size
    threshold = params.prune_threshold

    best: GraphEdge | None = None
    best_confidence = -1.0
    weak: list[GraphEdge] = []
    z = 0.0
    for edge in parents.values():
        # Eq. 1 inlined for the paper's alpha = 0 (all positions equal:
        # popcount over filled positions); other alphas take the general
        # Zipf-weighted path.
        history = edge.history
        if history == 0:
            weight = 0.0
        elif alpha == 0.0:
            filled = edge.filled
            weight = history.bit_count() / (
                filled if filled <= history_size else history_size
            )
        else:
            weight = history_weight(edge, params)
        if edge.parent.tag == confirmed:
            confidence = memory_weight + beta * weight
        else:
            confidence = beta * weight
            if confidence < threshold:
                weak.append(edge)
        edge.confidence = confidence
        z += confidence
        if confidence > best_confidence:
            best = edge
            best_confidence = confidence

    if z > 0.0:
        for edge in parents.values():
            edge.prob = edge.confidence / z
    else:
        # no history and no confirmation: uniform over candidates (``best``
        # is already the first of them)
        uniform = 1.0 / len(parents)
        for edge in parents.values():
            edge.prob = uniform
    if best in weak:
        weak.remove(best)
    return best, weak
