"""The four benchmark workloads, as literals.

Every number here is copied, not imported: the Table III configuration
and the 10-zone map live in ``repro.experiments.table3`` today, and a PR
that edits or deletes that module must neither break nor silently change
what this benchmark measures.  The scenarios are simulated at one pinned
seed; a run's ``--seed`` decides which further readings are missed
(``passes.with_read_misses``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

#: Table III high-injection trace (``table3_config(5, duration_for([12000], 5))``):
#: a pallet of 5 cases x 20 items every 10 epochs, nothing leaves the
#: shelves, so the graph grows to ~14k nodes over 1332 epochs.
GROWTH_SIM = {
    "duration": 1332,
    "pallet_period": 10,
    "cases_per_pallet_min": 5,
    "cases_per_pallet_max": 5,
    "items_per_case": 20,
    "read_rate": 0.85,
    "shelf_read_period": 60,
    "num_shelves": 8,
    "shelving_time_mean": 13320,
    "shelving_time_jitter": 0,
    "belt_dwell": 1,
}

#: Steady state with departures: ~3.3k standing objects, a complete
#: inference every 10 epochs, anomalies and fall-offs so deletes, Missing
#: events and containment changes all occur.
CHURN_SIM = {
    "duration": 2400,
    "pallet_period": 30,
    "cases_per_pallet_min": 5,
    "cases_per_pallet_max": 5,
    "items_per_case": 20,
    "read_rate": 0.7,
    "shelf_read_period": 10,
    "num_shelves": 4,
    "shelving_time_mean": 240,
    "shelving_time_jitter": 60,
    "belt_dwell": 1,
    "anomaly_period": 50,
    "fall_off_probability": 0.02,
}

#: inbound + one zone per shelf + outbound over the 8-shelf growth layout
#: (``scaling_zone_assignment(8)``): 10 zones.
SCALING_ZONES = {
    "inbound": ["entry-door", "receiving-belt"],
    "shelf-01": ["shelf-1"],
    "shelf-02": ["shelf-2"],
    "shelf-03": ["shelf-3"],
    "shelf-04": ["shelf-4"],
    "shelf-05": ["shelf-5"],
    "shelf-06": ["shelf-6"],
    "shelf-07": ["shelf-7"],
    "shelf-08": ["shelf-8"],
    "outbound": ["packaging-area", "exit-belt", "exit-door"],
}


#: the simulator seed of every scenario
PINNED_SEED = 41


@dataclass(frozen=True)
class Workload:
    """One set of inputs plus the session shape that consumes them.

    ``BENCHMARK.json`` holds the one-line reason for each workload.

    Attributes:
        name: Workload name (as in ``BENCHMARK.json``).
        sim: ``SimulationConfig`` keyword arguments of the scenario.
        pinned_epochs: Length of the pinned trace (the scenario as
            simulated, shorter, without seed-picked misses) on which
            accuracy and compression are scored: identical on every run
            of unchanged code, whatever ``--seed`` is, so those gates
            can be tight.
        epochs: Use only the first ``epochs`` epochs of the seeded trace
            (``None`` = all).
        session: Extra ``SpireConfig`` keyword arguments; ``workers``
            selects ``mode == "parallel"``.
        serve: Drive the session through ``serve()`` / ``pump()`` over
            loopback TCP instead of calling ``process_epoch`` directly.
        passes: Passes over the trace at the default ``--seconds`` (two on
            the longest workload, three on the others; scaled with
            ``--seconds``, never fewer than two).
        score_every: Accuracy is scored on every ``score_every``-th
            object (by serial) at each complete epoch of the pinned
            trace.  1 where ``location_of`` is a dict lookup; 8 where it
            is a pipe round trip to a worker.
        metrics_on_pass: The traced run adds one pass with
            ``SpireConfig(metrics=True)``.
    """

    name: str
    sim: dict
    pinned_epochs: int
    epochs: int | None = None
    session: dict = field(default_factory=dict)
    serve: bool = False
    passes: int = 3
    score_every: int = 1
    metrics_on_pass: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("growth_local", GROWTH_SIM, pinned_epochs=480),
        Workload("churn_local", CHURN_SIM, pinned_epochs=600, metrics_on_pass=True),
        Workload(
            "growth_pipe",
            GROWTH_SIM,
            pinned_epochs=480,
            session={
                "zone_map": SCALING_ZONES,
                "workers": 2,
                "checkpoint_interval": 50,
            },
            passes=2,
            score_every=8,
        ),
        Workload("serve_tcp", CHURN_SIM, pinned_epochs=240, epochs=700, serve=True),
    )
}


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the one place that names every metric, its
    unit, direction and bound, and says why each workload exists."""
    return json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def serving_patterns(places: dict[str, int], items: int) -> list:
    """The 20 distinct standing queries of ``serve_tcp``.

    All six catalogue kinds as ``PatternSpec`` plus two raw SASE source
    texts.  ``places`` maps location names to colors; ``items`` is how
    many item serials exist, so the watched objects are real ones.
    """
    from repro.model.objects import PackagingLevel, TagId
    from repro.serving.patterns import (
        PATTERN_DWELL,
        PATTERN_LEFT_WITHOUT_CONTAINER,
        PATTERN_MISSING,
        PATTERN_OBJECT,
        PATTERN_PLACE,
        PATTERN_TAIL,
        PatternSpec,
    )

    belt = places["receiving-belt"]
    shelves = [places[f"shelf-{i}"] for i in (1, 2, 3, 4)]
    packaging = places["packaging-area"]
    exit_belt = places["exit-belt"]
    return [
        PatternSpec(PATTERN_TAIL, place=belt),
        PatternSpec(PATTERN_TAIL, place=exit_belt),
        PatternSpec(PATTERN_PLACE, place=shelves[0]),
        PatternSpec(PATTERN_PLACE, place=shelves[1]),
        PatternSpec(PATTERN_PLACE, place=packaging),
        PatternSpec(PATTERN_DWELL, place=shelves[2], k=120),
        PatternSpec(PATTERN_DWELL, place=shelves[3], k=200),
        PatternSpec(PATTERN_DWELL, place=packaging, k=20),
        PatternSpec(PATTERN_MISSING, k=5),
        PatternSpec(PATTERN_MISSING, k=20),
        PatternSpec(PATTERN_MISSING, k=60),
        PatternSpec(PATTERN_OBJECT, obj=TagId(PackagingLevel.CASE, 7)),
        PatternSpec(PATTERN_OBJECT, obj=TagId(PackagingLevel.CASE, 1 + items // 40)),
        PatternSpec(PATTERN_OBJECT, obj=TagId(PackagingLevel.ITEM, 1 + items // 2)),
        PatternSpec(PATTERN_LEFT_WITHOUT_CONTAINER, place=belt),
        PatternSpec(PATTERN_LEFT_WITHOUT_CONTAINER, place=shelves[0]),
        PatternSpec(PATTERN_LEFT_WITHOUT_CONTAINER, place=packaging),
        PatternSpec(PATTERN_LEFT_WITHOUT_CONTAINER, place=exit_belt),
        f"PATTERN SEQ(arrival a) WHERE a.place == {exit_belt}",
        (
            f"PATTERN SEQ(departure d, arrival a) WHERE d.place == {shelves[1]} "
            f"AND a.obj == d.obj AND a.place == {packaging} WITHIN 30 EPOCHS "
            f"RETURN a.obj AS obj, d.left AS left"
        ),
    ]
