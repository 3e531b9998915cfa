"""Serving-layer benchmark: query throughput and subscription fan-out.

This module backs both ``benchmarks/test_serving_throughput.py`` and the
``serving`` section of ``BENCH_table3.json``.  It reuses the Table III
high-injection workload (nothing leaves the shelves, so the tracked
population grows to the requested milestone) and measures the serving
layer on top of the zone-coordinator substrate:

* **Point-query throughput** — one-shot queries against the live
  :class:`~repro.query.index.EventStreamIndex` after the full replay,
  cycling objects and query kinds (location/container/is-missing), both
  in-process and over a loopback TCP connection through
  :class:`~repro.serving.server.SpireServer`;
* **Subscription fan-out** — the replay runs with a large population of
  concurrent standing queries (every pattern kind represented); per-epoch
  ``publish`` latency is the fan-out cost a live deployment pays, and
  queue depths are tracked every epoch to demonstrate the bounded-queue
  backpressure policy (max observed depth must never exceed ``max_queue``).

The replay drains subscription queues every ``drain_every`` epochs — a
deliberately *slow* consumer, so drop-oldest backpressure is exercised
rather than sidestepped.
"""

from __future__ import annotations

import asyncio
import time
from statistics import median

from repro.distributed import Coordinator, partition_by_location
from repro.experiments.table3 import (
    DEFAULT_CASES_PER_PALLET,
    DEFAULT_SEED,
    duration_for,
    scaling_zone_assignment,
    table3_config,
)
from repro.model.objects import PackagingLevel, TagId
from repro.serving.client import SpireClient
from repro.serving.engine import StandingQueryEngine
from repro.serving.patterns import (
    PATTERN_DWELL,
    PATTERN_LEFT_WITHOUT_CONTAINER,
    PATTERN_MISSING,
    PATTERN_OBJECT,
    PATTERN_PLACE,
    PatternSpec,
    pattern_from_spec,
)
from repro.serving.server import SpireServer
from repro.simulator.warehouse import WarehouseSimulator

#: acceptance floors recorded alongside the measurements
MIN_POINT_QUERIES_PER_S = 1_000
MIN_SUBSCRIPTIONS = 100


def _make_patterns(colors: list[int], count: int):
    """``count`` pattern instances cycling every kind over the deployment's
    places — the mixed standing-query population of a live dashboard,
    built the way the server builds a subscription's pattern."""
    specs = []
    for i in range(count):
        place = colors[i % len(colors)]
        kind = i % 5
        if kind == 0:
            specs.append(PatternSpec(PATTERN_PLACE, place=place))
        elif kind == 1:
            specs.append(PatternSpec(PATTERN_DWELL, place=place, k=20 + (i % 5) * 10))
        elif kind == 2:
            specs.append(PatternSpec(PATTERN_MISSING, k=5 + i % 10))
        elif kind == 3:
            specs.append(PatternSpec(PATTERN_OBJECT, obj=TagId(PackagingLevel.ITEM, 1 + i)))
        else:
            specs.append(PatternSpec(PATTERN_LEFT_WITHOUT_CONTAINER, place=place))
    return [pattern_from_spec(spec) for spec in specs]


def _point_query_loop(engine: StandingQueryEngine, queries: int) -> dict:
    """Throughput of ``queries`` one-shot lookups against the live index."""
    index = engine.index
    objects = index.objects()
    t = engine.last_epoch or 0
    kinds = (
        lambda obj, at: index.location_of(obj, at),
        lambda obj, at: index.container_of(obj, at),
        lambda obj, at: index.is_missing(obj, at),
        lambda obj, at: index.dwell_time(obj, index.location_of(obj, at) or 0, at),
    )
    t0 = time.perf_counter()
    for i in range(queries):
        obj = objects[i % len(objects)]
        kinds[i % len(kinds)](obj, max(0, t - (i % 64)))
    elapsed = time.perf_counter() - t0
    return {
        "queries": queries,
        "seconds": elapsed,
        "queries_per_s": queries / max(elapsed, 1e-12),
        "mean_us": 1e6 * elapsed / max(queries, 1),
    }


async def _tcp_query_loop(engine: StandingQueryEngine, queries: int) -> dict:
    """Round-trip throughput of sequential one-shot queries over loopback
    TCP — protocol + framing + asyncio overhead included."""
    async with SpireServer(engine=engine) as server:
        client = await SpireClient.connect(server.host, server.port)
        try:
            objects = engine.index.objects()
            t = engine.last_epoch or 0
            t0 = time.perf_counter()
            for i in range(queries):
                obj = objects[i % len(objects)]
                if i % 2 == 0:
                    await client.location_of(obj, max(0, t - (i % 64)))
                else:
                    await client.container_of(obj, max(0, t - (i % 64)))
            elapsed = time.perf_counter() - t0
        finally:
            await client.close()
    return {
        "queries": queries,
        "seconds": elapsed,
        "queries_per_s": queries / max(elapsed, 1e-12),
        "mean_us": 1e6 * elapsed / max(queries, 1),
    }


def run_serving_bench(
    milestone: int = 12_000,
    cases_per_pallet: int = DEFAULT_CASES_PER_PALLET,
    seed: int = DEFAULT_SEED,
    subscriptions: int = 120,
    max_queue: int = 256,
    drain_every: int = 8,
    point_queries: int = 50_000,
    tcp_queries: int = 2_000,
) -> dict:
    """Grow the Table III workload to ``milestone`` tracked objects while
    serving ``subscriptions`` standing queries, then measure point-query
    throughput.  Returns the ``serving`` payload for ``BENCH_table3.json``.
    """
    config = table3_config(
        cases_per_pallet, duration_for([milestone], cases_per_pallet), seed
    )
    sim = WarehouseSimulator(config).run()
    zones = partition_by_location(
        sim.layout.readers,
        scaling_zone_assignment(config.num_shelves),
        sim.layout.registry,
    )
    coordinator = Coordinator(zones, checkpoint_interval=50)
    engine = StandingQueryEngine(expand_level2=True)
    colors = [loc.color for loc in sim.layout.registry.known_locations()]
    subs = [
        engine.subscribe(pattern, max_queue=max_queue)
        for pattern in _make_patterns(colors, subscriptions)
    ]

    publish_laps: list[float] = []
    max_depth = 0
    epochs = 0
    t_replay = time.perf_counter()
    for readings in sim.stream:
        result = coordinator.process_epoch(readings)
        t0 = time.perf_counter()
        engine.publish(result.epoch, result.messages)
        publish_laps.append(time.perf_counter() - t0)
        epochs += 1
        max_depth = max(max_depth, max(len(s.queue) for s in subs))
        if epochs % drain_every == 0:
            for sub in subs:
                engine.drain(sub.sub_id)
    replay_s = time.perf_counter() - t_replay
    for sub in subs:
        engine.drain(sub.sub_id)

    publish_sorted = sorted(publish_laps)
    p95 = publish_sorted[int(0.95 * (len(publish_sorted) - 1))]
    point = _point_query_loop(engine, point_queries)
    tcp = asyncio.run(_tcp_query_loop(engine, tcp_queries))

    return {
        "workload": {
            "milestone": milestone,
            "cases_per_pallet": cases_per_pallet,
            "duration": config.duration,
            "seed": seed,
            "epochs": epochs,
            "objects_indexed": len(engine.index.objects()),
            "messages_published": engine.stats.messages_published,
        },
        "subscriptions": {
            "count": subscriptions,
            "max_queue": max_queue,
            "drain_every": drain_every,
            "max_queue_depth": max_depth,
            "queues_bounded": max_depth <= max_queue,
            "notifications_delivered": engine.stats.notifications_delivered,
            "notifications_dropped": engine.stats.notifications_dropped,
            "publish_mean_ms": 1e3 * sum(publish_laps) / max(len(publish_laps), 1),
            "publish_median_ms": 1e3 * median(publish_laps),
            "publish_p95_ms": 1e3 * p95,
            "replay_s": replay_s,
        },
        "point_queries": point,
        "tcp_queries": tcp,
        "floors": {
            "min_point_queries_per_s": MIN_POINT_QUERIES_PER_S,
            "min_subscriptions": MIN_SUBSCRIPTIONS,
        },
    }


def check_serving(payload: dict) -> list[str]:
    """Validate a serving payload against the acceptance floors.

    Returns human-readable violations (empty = pass).
    """
    problems: list[str] = []
    subs = payload.get("subscriptions", {})
    point = payload.get("point_queries", {})
    if point.get("queries_per_s", 0.0) < MIN_POINT_QUERIES_PER_S:
        problems.append(
            f"point-query throughput {point.get('queries_per_s', 0.0):.0f}/s "
            f"is below the {MIN_POINT_QUERIES_PER_S}/s floor"
        )
    if subs.get("count", 0) < MIN_SUBSCRIPTIONS:
        problems.append(
            f"only {subs.get('count', 0)} concurrent subscriptions "
            f"(floor: {MIN_SUBSCRIPTIONS})"
        )
    if not subs.get("queues_bounded", False):
        problems.append(
            f"queue depth {subs.get('max_queue_depth')} exceeded the "
            f"max_queue bound {subs.get('max_queue')}"
        )
    return problems
