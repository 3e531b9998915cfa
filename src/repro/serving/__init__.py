"""Continuous-query serving over the compressed event stream.

SPIRE is a substrate *feeding* higher-level stream and query processors
(§I, §V-B); this package is that layer — the follow-up systems (SASE-style
complex event processing, the distributed RFID query processors in
PAPERS.md) motivate its shape.  Three pieces:

* :mod:`repro.serving.patterns` — what a standing predicate is to the
  wire and the engine (interface, spec, notification); the predicates
  themselves — tails, point watches, dwell/missing thresholds, compound
  containment anomalies — are :mod:`repro.sase` patterns;
* :mod:`repro.serving.engine` — the **shared fan-out tree**: a live
  incremental :class:`~repro.query.index.EventStreamIndex`, subscriptions
  keyed by canonical pattern identity so N subscribers to the same
  pattern cost one evaluation per epoch, per-subscriber bounded delivery
  queues with tiered backpressure (drop-oldest escalating to
  slow-consumer eviction), and serving counters;
* :mod:`repro.serving.server` / :mod:`repro.serving.client` — an asyncio
  TCP front-end, in the process that owns the engine, speaking the
  length-prefixed binary protocol of :mod:`repro.serving.protocol` (one
  batched event frame per epoch per connection), fed by a coordinator
  pump so serving composes with sharded execution and zone failover.
  ``serve --workers N`` takes inference off the serving process.

See docs/SERVING.md for a quickstart and DESIGN.md §10 for the
architecture.
"""

from repro.serving.engine import (
    ServingStats,
    SharedRuntime,
    StandingQueryEngine,
    Subscription,
)
from repro.serving.patterns import Notification, Pattern, pattern_from_spec
from repro.serving.server import SpireServer, pump_coordinator
from repro.serving.client import ClientSubscription, ServingError, SpireClient

__all__ = [
    "ClientSubscription",
    "ServingError",
    "SharedRuntime",
    "Notification",
    "Pattern",
    "ServingStats",
    "SpireClient",
    "SpireServer",
    "StandingQueryEngine",
    "Subscription",
    "pattern_from_spec",
    "pump_coordinator",
]
