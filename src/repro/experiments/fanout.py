"""Fan-out benchmark: 10k subscribers over a shared fan-out tree.

Backs the ``fanout`` section of ``BENCH_table3.json`` and the CI
fan-out gate.  Two phases over the Table III high-injection workload:

* **In-process fan-out** — ``subscribers`` standing queries spread over
  ``distinct`` pattern shapes replay the full workload.  The shared
  fan-out tree coalesces duplicate subscriptions into one
  :class:`~repro.serving.engine.SharedRuntime` per distinct pattern, so
  the per-epoch evaluation count must equal the runtime count —
  independent of the subscriber count.  Per-epoch ``publish`` latency is
  recorded into a :class:`repro.obs.metrics.Histogram` (log₂ buckets, so
  the payload carries the full distribution, not just summary points).
* **Shared-vs-unshared equivalence** — N duplicate subscribers on one
  shared engine against N independent single-subscription engines over
  the same stream; drained notifications must be byte-identical under
  :func:`repro.serving.protocol.encode_notification` while the shared
  side evaluates each pattern once instead of N times.

Queries competing with pushes over TCP are measured by the ``serve_tcp``
workload of ``benchmarks/e2e``, not here.
"""

from __future__ import annotations

import time

from repro.distributed import DEFAULT_CHECKPOINT_INTERVAL, Coordinator, partition_by_location
from repro.experiments.table3 import (
    DEFAULT_CASES_PER_PALLET,
    DEFAULT_SEED,
    duration_for,
    scaling_zone_assignment,
    table3_config,
)
from repro.model.objects import PackagingLevel, TagId
from repro.obs.metrics import Histogram
from repro.serving.engine import StandingQueryEngine
from repro.serving.patterns import (
    PATTERN_DWELL,
    PATTERN_MISSING,
    PATTERN_OBJECT,
    PATTERN_PLACE,
    PatternSpec,
    pattern_from_spec,
)
from repro.serving.protocol import encode_notification
from repro.simulator.warehouse import WarehouseSimulator

#: acceptance floor recorded alongside the measurements
MIN_DISTINCT_PATTERNS = 100


def _distinct_specs(colors: list[int], count: int) -> list[PatternSpec]:
    """``count`` pairwise-distinct pattern specs cycling every legacy
    kind over the deployment's places — each spec is one shared runtime."""
    specs: list[PatternSpec] = []
    seen: set[tuple] = set()
    i = 0
    while len(specs) < count:
        place = colors[i % len(colors)]
        kind = i % 4
        if kind == 0:
            spec = PatternSpec(PATTERN_PLACE, place=place)
        elif kind == 1:
            spec = PatternSpec(PATTERN_DWELL, place=place, k=20 + (i % 7) * 5)
        elif kind == 2:
            spec = PatternSpec(PATTERN_MISSING, k=3 + i % 40)
        else:
            spec = PatternSpec(
                PATTERN_OBJECT, obj=TagId(PackagingLevel.ITEM, 1 + i)
            )
        i += 1
        key = (spec.kind, spec.obj, spec.place, spec.k)
        if key in seen:
            continue
        seen.add(key)
        specs.append(spec)
    return specs


def _workload(milestone: int, cases_per_pallet: int, seed: int):
    config = table3_config(
        cases_per_pallet, duration_for([milestone], cases_per_pallet), seed
    )
    sim = WarehouseSimulator(config).run()
    zones = partition_by_location(
        sim.layout.readers,
        scaling_zone_assignment(config.num_shelves),
        sim.layout.registry,
    )
    return config, sim, zones


def _fanout_phase(
    milestone: int,
    cases_per_pallet: int,
    seed: int,
    subscribers: int,
    distinct: int,
    max_queue: int,
    drain_every: int,
) -> dict:
    """Replay the workload under ``subscribers`` shared subscriptions."""
    config, sim, zones = _workload(milestone, cases_per_pallet, seed)
    coordinator = Coordinator(zones, checkpoint_interval=DEFAULT_CHECKPOINT_INTERVAL)
    engine = StandingQueryEngine(expand_level2=True)
    colors = [loc.color for loc in sim.layout.registry.known_locations()]
    specs = _distinct_specs(colors, distinct)
    # fresh Pattern instance per subscriber: sharing must happen through
    # the share key, never through object identity
    subs = [
        engine.subscribe(pattern_from_spec(specs[i % distinct]), max_queue=max_queue)
        for i in range(subscribers)
    ]
    assert len(engine.runtimes) == distinct, (
        f"expected {distinct} shared runtimes, got {len(engine.runtimes)}"
    )

    publish_hist = Histogram()
    epochs = 0
    delivered = 0
    t_replay = time.perf_counter()
    for readings in sim.stream:
        result = coordinator.process_epoch(readings)
        with publish_hist.time():
            engine.publish(result.epoch, result.messages)
        epochs += 1
        if epochs % drain_every == 0:
            for sub in subs:
                delivered += len(engine.drain(sub.sub_id))
    replay_s = time.perf_counter() - t_replay
    for sub in subs:
        delivered += len(engine.drain(sub.sub_id))

    evaluations = engine.stats.pattern_evaluations
    return {
        "milestone": milestone,
        "epochs": epochs,
        "objects_indexed": len(engine.index.objects()),
        "subscribers": subscribers,
        "distinct_patterns": distinct,
        "shared_runtimes": len(engine.runtimes),
        "pattern_evaluations": evaluations,
        "evaluations_per_epoch": evaluations / max(epochs, 1),
        "evaluations_independent_of_subscribers": (
            evaluations == epochs * len(engine.runtimes)
        ),
        "notifications_delivered": engine.stats.notifications_delivered,
        "notifications_dropped": engine.stats.notifications_dropped,
        "notifications_drained": delivered,
        "subscriptions_evicted": engine.stats.subscriptions_evicted,
        "max_queue": max_queue,
        "drain_every": drain_every,
        "replay_s": replay_s,
        "publish_latency": {
            "count": publish_hist.count,
            "sum_s": publish_hist.sum,
            "mean_ms": 1e3 * publish_hist.sum / max(publish_hist.count, 1),
            "log2_buckets_s": {
                str(e): n for e, n in sorted(publish_hist.buckets.items())
            },
        },
    }


def _equivalence_phase(
    milestone: int, cases_per_pallet: int, seed: int, duplicates: int
) -> dict:
    """N duplicate subscribers (shared) vs N independent engines."""
    config, sim, zones = _workload(milestone, cases_per_pallet, seed)
    colors = [loc.color for loc in sim.layout.registry.known_locations()]
    specs = _distinct_specs(colors, 6)

    shared = StandingQueryEngine(expand_level2=True)
    shared_subs = [
        [shared.subscribe(pattern_from_spec(spec)) for _ in range(duplicates)]
        for spec in specs
    ]
    independent = [StandingQueryEngine(expand_level2=True) for _ in range(duplicates)]
    independent_subs = [
        [engine.subscribe(pattern_from_spec(spec)) for spec in specs]
        for engine in independent
    ]

    coordinator = Coordinator(zones, checkpoint_interval=DEFAULT_CHECKPOINT_INTERVAL)
    epochs = 0
    for readings in sim.stream:
        result = coordinator.process_epoch(readings)
        messages = list(result.messages)
        shared.publish(result.epoch, messages)
        for engine in independent:
            engine.publish(result.epoch, messages)
        epochs += 1

    byte_identical = True
    for s, spec_subs in enumerate(shared_subs):
        reference = None
        for d, sub in enumerate(spec_subs):
            blob = b"".join(encode_notification(n) for n in sub.drain())
            unshared = b"".join(
                encode_notification(n) for n in independent_subs[d][s].drain()
            )
            if reference is None:
                reference = blob
            byte_identical &= blob == reference and blob == unshared

    return {
        "milestone": milestone,
        "epochs": epochs,
        "duplicates": duplicates,
        "patterns": len(specs),
        "byte_identical": byte_identical,
        "shared_evaluations": shared.stats.pattern_evaluations,
        "unshared_evaluations": sum(
            e.stats.pattern_evaluations for e in independent
        ),
        "evaluation_savings_x": (
            sum(e.stats.pattern_evaluations for e in independent)
            / max(shared.stats.pattern_evaluations, 1)
        ),
    }


def run_fanout_bench(
    milestone: int = 12_000,
    cases_per_pallet: int = DEFAULT_CASES_PER_PALLET,
    seed: int = DEFAULT_SEED,
    subscribers: int = 10_000,
    distinct: int = 100,
    max_queue: int = 64,
    drain_every: int = 8,
    equivalence_milestone: int = 1_000,
    equivalence_duplicates: int = 4,
) -> dict:
    """Run both phases; returns the ``fanout`` payload for
    ``BENCH_table3.json``."""
    fanout = _fanout_phase(
        milestone, cases_per_pallet, seed, subscribers, distinct,
        max_queue, drain_every,
    )
    equivalence = _equivalence_phase(
        equivalence_milestone, cases_per_pallet, seed, equivalence_duplicates
    )
    return {
        "fanout": fanout,
        "equivalence": equivalence,
        "floors": {"min_distinct_patterns": MIN_DISTINCT_PATTERNS},
    }


def check_fanout(payload: dict) -> list[str]:
    """Validate a fanout payload against the acceptance floors.

    Returns human-readable violations (empty = pass).
    """
    problems: list[str] = []
    fanout = payload.get("fanout", {})
    equivalence = payload.get("equivalence", {})
    if fanout.get("distinct_patterns", 0) < MIN_DISTINCT_PATTERNS:
        problems.append(
            f"only {fanout.get('distinct_patterns', 0)} distinct patterns "
            f"(floor: {MIN_DISTINCT_PATTERNS})"
        )
    if fanout.get("shared_runtimes") != fanout.get("distinct_patterns"):
        problems.append(
            f"shared runtimes {fanout.get('shared_runtimes')} != "
            f"distinct patterns {fanout.get('distinct_patterns')}"
        )
    if not fanout.get("evaluations_independent_of_subscribers", False):
        problems.append(
            f"pattern evaluations {fanout.get('pattern_evaluations')} != "
            f"epochs x runtimes "
            f"({fanout.get('epochs')} x {fanout.get('shared_runtimes')})"
        )
    if fanout.get("subscriptions_evicted", 0) != 0:
        problems.append(
            f"{fanout.get('subscriptions_evicted')} subscriber(s) evicted "
            f"during the in-process replay (expected none)"
        )
    if not equivalence.get("byte_identical", False):
        problems.append(
            "shared fan-out notifications diverged from independent engines"
        )
    return problems
