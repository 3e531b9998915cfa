"""Per-epoch inference accuracy against ground truth (Expts 1–4).

"An inference result is marked as an error if it is inconsistent with the
ground truth" (§VI-B).  The paper does not spell out the scored population,
so this module implements three policies (see DESIGN.md §3):

* ``ALL`` — every object present in the ground-truth snapshot (plus ghost
  objects SPIRE still tracks after a missed exit reading, scored against
  the unknown location).  The intuitive headline metric; used for the
  read-rate sensitivity experiment (Fig. 9(d)).
* ``INFERRED_ONLY`` — restricted to objects *not observed* this epoch,
  i.e. the decisions node inference actually had to make.
* ``HARD_ONLY`` — restricted further to unobserved objects whose true
  location differs from where SPIRE last saw them (moved, vanished or
  departed while unobserved).  These are the cases the fading-color /
  containment-propagation / unknown trade-off is about, and the population
  that reproduces the paper's Fig. 9(b)/(c)/(e) curve shapes.

Location scoring compares the estimate-store color with the true location
(the unknown location matches :data:`~repro.core.graph.UNKNOWN_COLOR`).
Containment scoring compares estimated and true direct containers over
objects where either side is non-trivial (a true container exists or a
container was estimated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.model.locations import UNKNOWN_COLOR
from repro.core.pipeline import Spire
from repro.model.truth import TruthSnapshot


class ScoringPolicy(Enum):
    """Which (object, epoch) pairs a location error rate is computed over."""

    ALL = "all"
    INFERRED_ONLY = "inferred_only"
    HARD_ONLY = "hard_only"


@dataclass
class AccuracyAccumulator:
    """Accumulates location/containment error counts across epochs.

    Attributes:
        policy: Scoring policy for the *location* metric (containment is
            always scored with the ALL population).
        exclude_colors: Location colors excluded from scoring — the paper
            excludes the entry door, which is used only to warm up the
            graph (§VI-A).
    """

    policy: ScoringPolicy = ScoringPolicy.ALL
    exclude_colors: frozenset[int] = frozenset()
    location_errors: int = 0
    location_total: int = 0
    containment_errors: int = 0
    containment_total: int = 0
    #: per-packaging-level (level value -> [errors, total]) breakdown
    location_by_level: dict[int, list[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------

    def score_epoch(self, spire: Spire, truth: TruthSnapshot) -> None:
        """Score one epoch: SPIRE's current estimates vs the truth snapshot."""
        estimates = spire.estimates
        graph = spire.graph

        # objects present in the world
        for tag, location in truth.locations.items():
            true_color = location.color
            if true_color in self.exclude_colors:
                continue
            current = estimates.get(tag)
            estimated_color = current.location if current is not None else UNKNOWN_COLOR
            observed = current.observed if current is not None else False

            if self._in_population(tag, true_color, observed, graph):
                self.location_total += 1
                level = self.location_by_level.setdefault(tag.level, [0, 0])
                level[1] += 1
                if estimated_color != true_color:
                    self.location_errors += 1
                    level[0] += 1

            true_container = truth.containers.get(tag)
            estimated_container = current.container if current is not None else None
            if true_container is not None or estimated_container is not None:
                self.containment_total += 1
                if estimated_container != true_container:
                    self.containment_errors += 1

        # ghost objects: SPIRE still tracks them, the world no longer holds
        # them (their exit reading was missed); the correct answer is the
        # unknown location
        for tag, current in estimates.items():
            if tag in truth.locations:
                continue
            if self._in_population(tag, UNKNOWN_COLOR, current.observed, graph):
                self.location_total += 1
                if current.location != UNKNOWN_COLOR:
                    self.location_errors += 1

    def _in_population(self, tag, true_color: int, observed: bool, graph) -> bool:
        if self.policy is ScoringPolicy.ALL:
            return True
        if observed:
            return False
        if self.policy is ScoringPolicy.INFERRED_ONLY:
            return True
        # HARD_ONLY: true location differs from where SPIRE last saw the tag
        node = graph.get(tag)
        last_seen_color = node.recent_color if node is not None else None
        return last_seen_color is not None and last_seen_color != true_color

    # ------------------------------------------------------------------

    @property
    def location_error_rate(self) -> float:
        """Fraction of scored location estimates inconsistent with truth."""
        if self.location_total == 0:
            return 0.0
        return self.location_errors / self.location_total

    @property
    def containment_error_rate(self) -> float:
        """Fraction of scored containment estimates inconsistent with truth."""
        if self.containment_total == 0:
            return 0.0
        return self.containment_errors / self.containment_total

    def location_error_rate_for_level(self, level: int) -> float:
        """Location error rate restricted to one packaging level."""
        errors, total = self.location_by_level.get(level, [0, 0])
        return errors / total if total else 0.0

    def summary(self) -> dict[str, float]:
        """Headline numbers as a flat dict (for reports and logs)."""
        return {
            "location_error_rate": self.location_error_rate,
            "containment_error_rate": self.containment_error_rate,
            "location_total": float(self.location_total),
            "containment_total": float(self.containment_total),
        }
