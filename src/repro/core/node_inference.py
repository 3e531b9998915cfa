"""Node inference (Section IV-B): most-likely location of an unobserved object.

An uncolored node's location distribution (Eq. 3) mixes:

* the node's own *fading color* — its most recent observed color, decaying
  with the time since the object was last seen at rate ``theta``;
* the colors *propagated through edges* from neighbours whose location is
  known (observed this epoch, or already inferred earlier in the iterative
  sweep), each weighted by the edge's Eq. 2 probability; and
* the special color *unknown* (Eq. 4), which absorbs the decayed belief.

Reproduction note (documented in DESIGN.md): the decay age ``now -
seen_at`` is measured in *expected observation periods* of the object's
last known location, not raw epochs.  A shelf read once a minute gives an
unobserved object one detection opportunity per 60 epochs; measuring decay
in raw epochs would declare nearly every shelved object missing after a
single missed read, which contradicts the paper's sub-10 % error rates at
minute-scale shelf periods.  The paper's own discussion of Fig. 9(f)
("it otherwise takes too long to wait for the next reading, adjust the
belief...") implies belief adjusts per reading opportunity; with 1-second
reader periods (the fastest readers) the two formulations coincide.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.graph import UNKNOWN_COLOR, GraphNode
from repro.core.params import InferenceParams


class NodeBelief(NamedTuple):
    """Outcome of node inference at one node.

    Attributes:
        color: The argmax color (may be ``UNKNOWN_COLOR``).
        prob: Probability mass of the chosen color after normalisation.
        distribution: Full color -> probability map (normalised), including
            the ``UNKNOWN_COLOR`` entry; ``None`` unless the caller asked
            for it (``with_distribution``).
    """

    color: int
    prob: float
    distribution: dict[int, float] | None = None


def infer_node(
    node: GraphNode,
    effective_colors: dict[GraphNode, int],
    now: int,
    params: InferenceParams,
    color_periods: dict[int, int] | None = None,
    suppressed_colors: frozenset[int] = frozenset(),
    with_distribution: bool = False,
) -> NodeBelief:
    """Run node inference at an uncolored ``node`` (Eqs. 3–4).

    ``effective_colors`` supplies the location of every neighbour whose
    color is already known this pass (observed nodes and nodes inferred at a
    smaller distance ``d``); neighbours absent from the map propagate
    nothing.  ``UNKNOWN_COLOR`` entries propagate nothing either — only
    known locations travel along containment edges.

    ``color_periods`` maps each location color to the interrogation period
    of its reader(s); the decay age is measured in these units (see the
    module docstring).  Omitting it measures age in raw epochs.

    ``suppressed_colors`` are locations whose readers are presumed dead
    (see :class:`repro.faults.health.ReaderHealthMonitor`): an unobserved
    object whose most recent color is suppressed stops decaying — its
    non-read is explained by the outage, not by the object vanishing — so
    the belief freezes at the last known location until the reader returns.

    ``with_distribution`` also returns the whole normalised color map
    (diagnostics: :mod:`repro.core.explain`); the sweep needs the argmax
    only.
    """
    gamma = params.gamma
    recent = node.recent_color

    # fading most recent color (first term of Eq. 3) and unknown (Eq. 4)
    age = now - node.seen_at
    if age <= 0:
        # defensive: a node observed this epoch should not be inferred
        age = 1
    if color_periods and recent is not None:
        period = color_periods.get(recent, 1)
        if period > 1:
            age = max(1.0, age / period)
    if recent is not None and recent in suppressed_colors:
        fade = 1.0  # reader outage: absence of reads carries no evidence
    else:
        fade = 1.0 / (age ** params.theta) if params.theta > 0 else 1.0
    keep = (1.0 - gamma) * fade
    unknown = (1.0 - gamma) * (1.0 - fade)

    # colors propagated through edges (second term of Eq. 3).  Note the Z2
    # renormalisation runs over *propagating* edges only, per the paper: a
    # single observed neighbour receives the whole gamma mass even when its
    # edge is weak.  This occasionally drags an unobserved object toward a
    # departed co-location neighbour, but filtering weak edges here was
    # measured to hurt overall event accuracy (it trades propagation churn
    # for unknown churn) — see EXPERIMENTS.md, Fig. 11(a).
    propagated: dict[int, float] = {}
    z2 = 0.0
    if gamma > 0.0 and effective_colors:
        get_color = effective_colors.get
        # parent edges first, then child edges — the accumulation order of
        # node.edges(), preserved so float summation is unchanged
        for edge in node.parents.values():
            color = get_color(edge.parent)
            if color is None or color == UNKNOWN_COLOR:
                continue
            propagated[color] = propagated.get(color, 0.0) + edge.prob
            z2 += edge.prob
        for edge in node.children.values():
            color = get_color(edge.child)
            if color is None or color == UNKNOWN_COLOR:
                continue
            propagated[color] = propagated.get(color, 0.0) + edge.prob
            z2 += edge.prob

    if z2 <= 0.0 and not with_distribution:
        # Nothing propagates, so Eq. 3's second term vanishes and the
        # belief is the two-way comparison of the faded color against
        # unknown — the same operations in the same order as the general
        # accumulation below, hence the same floats; a tie keeps the
        # recent color, as the tie-breaking below does.  (``recent_color``
        # is a reader's location, never ``UNKNOWN_COLOR``.)
        if recent is None:
            return NodeBelief(UNKNOWN_COLOR, 1.0)
        total = keep + unknown
        if total > 0.0:  # gamma == 1 leaves no mass: answered below
            keep /= total
            unknown /= total
            if keep >= unknown:
                return NodeBelief(recent, keep)
            return NodeBelief(UNKNOWN_COLOR, unknown)

    scores: dict[int, float] = {}
    if recent is not None:
        scores[recent] = keep
    scores[UNKNOWN_COLOR] = unknown
    if z2 > 0.0:
        for color, mass in propagated.items():
            scores[color] = scores.get(color, 0.0) + gamma * mass / z2

    total = sum(scores.values())
    if total <= 0.0:
        # no memory and nothing propagated: the location is unknown
        distribution = {UNKNOWN_COLOR: 1.0}
    else:
        distribution = {color: mass / total for color, mass in scores.items()}

    # argmax with deterministic tie-breaking: prefer the node's recent
    # color, then known colors over unknown, then the smallest color id.
    best_color, best_prob = max(
        distribution.items(),
        key=lambda item: (
            item[1],
            item[0] == recent,
            item[0] != UNKNOWN_COLOR,
            -item[0],
        ),
    )
    return NodeBelief(best_color, best_prob, distribution if with_distribution else None)
