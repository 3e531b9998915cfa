"""The standing-query engine: subscriptions over a live index.

:class:`StandingQueryEngine` is the transport-free core of the serving
layer (the asyncio server in :mod:`repro.serving.server` is a thin shell
around it):

* it owns the **live index** — an incrementally maintained
  :class:`~repro.query.index.EventStreamIndex` extended once per epoch
  with the coordinator's merged output (level-2 streams are expanded
  through the streaming decompressor first, so patterns see explicit
  per-object histories);
* it keeps the **shared fan-out tree**: subscriptions are keyed by their
  pattern's canonical identity (:meth:`Pattern.share_key` — for compiled
  patterns the :func:`repro.sase.unparse` fixpoint of the source), so N
  subscribers to the same pattern share one :class:`SharedRuntime` and
  cost **one** evaluation per epoch plus O(N) enqueue into per-subscriber
  bounded queues;
* it **routes each epoch's events once**: a pattern that says which
  events it can act on (:meth:`Pattern.routing` — an event kind, or a
  field pinned to a constant such as ``place == 4``) is handed only
  those, so an epoch costs O(batch + events handed over), not
  O(batch × distinct patterns);
* it applies **tiered backpressure**: when a queue is full the oldest
  notification is dropped and a
  :data:`~repro.faults.warnings.WarningKind.SUBSCRIPTION_OVERFLOW`
  warning (naming the canonical pattern and subscriber count) is
  recorded, at most one per subscription per epoch; when ``evict_after``
  is set and a subscription overflows that many publishes in a row, it
  is **evicted** with a
  :data:`~repro.faults.warnings.WarningKind.SUBSCRIPTION_EVICTED`
  warning so a stalled consumer eventually costs nothing at all;
* it **quarantines a raising pattern**: an exception out of one shared
  runtime's evaluation retires that runtime and evicts its subscribers
  (:data:`~repro.faults.warnings.WarningKind.PATTERN_QUARANTINED`);
  the epoch goes on for everyone else;
* it records **serving counters** (:class:`ServingStats`): epochs and
  messages published, notifications delivered/dropped, evictions,
  pattern evaluations, one-shot query count, and log₂-bucketed latency
  histograms for both queries and per-epoch publishes;
* subscriptions survive restarts: :meth:`dump_subscriptions` serializes
  the canonical pattern text (or legacy spec) per subscription and
  :meth:`restore_subscriptions` re-arms them with their original ids.
"""

from __future__ import annotations

import json
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable

from repro.compression.decompress import StreamingLevel2Decompressor
from repro.events.messages import EventMessage
from repro.faults.warnings import Quarantine, WarningKind
from repro.model.objects import TagId
from repro.query.index import EventStreamIndex
from repro.serving.patterns import (
    NOTIFY_SUBSCRIPTION_EVICTED,
    PATTERN_SASE,
    Notification,
    Pattern,
    PatternSpec,
    pattern_from_spec,
)

#: version byte for the subscription snapshot JSON (see dump_subscriptions)
SUBSCRIPTIONS_VERSION = 1


def _log2_bucket(seconds: float) -> int:
    """Bucket ``b`` counts latencies in ``[2^(b-1), 2^b)`` µs (0: < 1 µs)."""
    micros = seconds * 1e6
    bucket = 0
    while micros >= 1.0:
        micros /= 2.0
        bucket += 1
    return bucket


def describe_pattern(pattern: Pattern) -> str:
    """Canonical human/wire-readable identity of a pattern: the
    ``unparse`` fixpoint of its source."""
    return pattern.canonical_source


@dataclass
class ServingStats:
    """Observability counters for one serving session."""

    epochs_published: int = 0
    messages_published: int = 0
    notifications_delivered: int = 0
    notifications_dropped: int = 0
    subscriptions_opened: int = 0
    subscriptions_closed: int = 0
    subscriptions_evicted: int = 0
    pattern_evaluations: int = 0
    queries_served: int = 0
    query_seconds: float = 0.0
    publish_seconds: float = 0.0
    #: one-shot query latency histogram: bucket ``b`` counts queries with
    #: latency in ``[2^(b-1), 2^b)`` microseconds (bucket 0: < 1 µs)
    latency_buckets: Counter = field(default_factory=Counter)
    #: per-epoch publish (index extend + evaluate + fan-out) latency,
    #: same log₂-µs bucketing as the query histogram
    publish_buckets: Counter = field(default_factory=Counter)

    def observe_query(self, seconds: float) -> None:
        self.queries_served += 1
        self.query_seconds += seconds
        self.latency_buckets[_log2_bucket(seconds)] += 1

    def observe_publish(self, seconds: float) -> None:
        self.publish_seconds += seconds
        self.publish_buckets[_log2_bucket(seconds)] += 1

    @property
    def active_subscriptions(self) -> int:
        return self.subscriptions_opened - self.subscriptions_closed

    def latency_lines(self) -> list[str]:
        """Render the latency histogram (one line per non-empty bucket)."""
        lines = []
        for bucket in sorted(self.latency_buckets):
            upper = 2**bucket
            share = self.latency_buckets[bucket] / max(self.queries_served, 1)
            lines.append(
                f"< {upper:>8} µs  {self.latency_buckets[bucket]:>8}  {share:>6.1%}"
            )
        return lines

    def summary_lines(self) -> list[str]:
        """Human-readable block for the ``serve`` subcommand's shutdown."""
        mean_us = 1e6 * self.query_seconds / max(self.queries_served, 1)
        lines = [
            f"epochs published        {self.epochs_published} "
            f"({self.messages_published} event message(s))",
            f"subscriptions           {self.active_subscriptions} active / "
            f"{self.subscriptions_opened} opened / "
            f"{self.subscriptions_evicted} evicted",
            f"notifications           {self.notifications_delivered} delivered / "
            f"{self.notifications_dropped} dropped",
            f"pattern evaluations     {self.pattern_evaluations}",
            f"one-shot queries        {self.queries_served} "
            f"(mean {mean_us:.1f} µs)",
        ]
        if self.latency_buckets:
            lines.append("query latency histogram:")
            lines.extend(f"  {line}" for line in self.latency_lines())
        return lines


class SharedRuntime:
    """One pattern evaluator shared by every subscriber to that pattern.

    The fan-out tree's interior node: holds the (stateful) pattern
    instance, the member subscriptions broadcast to, and the evaluation
    counter that the equivalence bench uses to prove evaluations per
    epoch are independent of the duplicate-subscriber count.
    """

    __slots__ = (
        "key",
        "pattern",
        "canonical",
        "members",
        "evaluations",
        "routing",
        "candidates",
        "seen",
    )

    def __init__(self, key: tuple, pattern: Pattern, canonical: str) -> None:
        self.key = key
        self.pattern = pattern
        self.canonical = canonical
        self.members: dict[int, Subscription] = {}
        self.evaluations = 0
        #: ``pattern.routing()``, read once; ``None``: the whole batch
        self.routing = pattern.routing()
        #: this epoch's events for a routed pattern, in batch order
        self.candidates: list[EventMessage] = []
        #: batch position of the last candidate: an event that reaches
        #: the pattern by two of its keys is still handed over once
        self.seen = -1


class Subscription:
    """One standing query: a shared pattern plus its bounded delivery queue."""

    __slots__ = (
        "sub_id",
        "pattern",
        "queue",
        "max_queue",
        "delivered",
        "dropped",
        "runtime",
        "durable",
        "overflow_streak",
    )

    def __init__(self, sub_id: int, pattern: Pattern, max_queue: int) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.sub_id = sub_id
        self.pattern = pattern
        self.queue: deque[Notification] = deque()
        self.max_queue = max_queue
        self.delivered = 0
        self.dropped = 0
        #: the SharedRuntime this subscription fans out from (engine-set)
        self.runtime: SharedRuntime | None = None
        #: durable subscriptions (restored from a snapshot, awaiting their
        #: consumer to reconnect) are exempt from slow-consumer eviction
        self.durable = False
        #: consecutive publishes that overflowed this queue (eviction tier)
        self.overflow_streak = 0

    def push(self, notifications: list[Notification]) -> int:
        """Enqueue, dropping the oldest on overflow; returns drops."""
        queue = self.queue
        queue.extend(notifications)
        dropped = len(queue) - self.max_queue
        if dropped <= 0:
            return 0
        for _ in range(dropped):
            queue.popleft()
        self.dropped += dropped
        return dropped

    def drain(self, limit: int | None = None) -> list[Notification]:
        """Remove and return up to ``limit`` queued notifications."""
        n = len(self.queue) if limit is None else min(limit, len(self.queue))
        out = [self.queue.popleft() for _ in range(n)]
        self.delivered += len(out)
        return out


class StandingQueryEngine:
    """Shared fan-out tree + live index, fed one epoch at a time.

    Args:
        expand_level2: Expand the published stream through the streaming
            level-2 decompressor before indexing/evaluation, so patterns
            see explicit per-object location histories.  Use it whenever
            the pump's substrate runs compression level 2 (the default).
        quarantine: Destination for overflow/eviction warnings (a fresh
            :class:`~repro.faults.warnings.Quarantine` if omitted —
            coordinator pumps typically share theirs).
        evict_after: Evict a subscription after this many *consecutive*
            overflowing publishes (0 disables eviction, the default —
            drop-oldest alone then bounds memory but not enqueue work).
            Negative values raise ``ValueError``.
    """

    def __init__(
        self,
        expand_level2: bool = False,
        quarantine: Quarantine | None = None,
        evict_after: int = 0,
    ) -> None:
        if evict_after < 0:
            raise ValueError(
                f"evict_after must be >= 0 (0 disables eviction), got {evict_after}"
            )
        self.index = EventStreamIndex()
        self.quarantine = quarantine if quarantine is not None else Quarantine()
        self.stats = ServingStats()
        self.last_epoch: int | None = None
        self.evict_after = evict_after
        #: (sub_id, eviction notice) pairs from the most recent publish —
        #: the server reads this to notify owners before dropping them
        self.evicted: list[tuple[int, Notification]] = []
        self._expander = StreamingLevel2Decompressor() if expand_level2 else None
        self._subscriptions: dict[int, Subscription] = {}
        self._runtimes: dict[tuple, SharedRuntime] = {}
        #: routing tables (see _route): ``id(kind)`` -> runtimes taking
        #: that kind (identity: hashing an Enum member is a Python call),
        #: and field -> (its getter, value -> runtimes keyed on it)
        self._kind_routes: dict[int, list[SharedRuntime]] = {}
        self._key_routes: dict[str, tuple[Callable, dict[object, list[SharedRuntime]]]] = {}
        self._next_id = 1

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------

    @property
    def subscriptions(self) -> dict[int, Subscription]:
        """Live subscriptions by id (read-only view by convention)."""
        return self._subscriptions

    @property
    def runtimes(self) -> dict[tuple, SharedRuntime]:
        """Shared pattern runtimes by share key (read-only by convention)."""
        return self._runtimes

    def subscribe(self, pattern: Pattern, max_queue: int = 1024) -> Subscription:
        """Register a standing query; returns its subscription handle.

        If an identical pattern (same :meth:`Pattern.share_key` — for
        compiled patterns the canonical ``unparse`` source) is already
        subscribed, the new subscription **joins its shared runtime**:
        the pattern is evaluated once per epoch regardless of how many
        subscribers listen, and each match is broadcast to every member
        queue.  A late joiner shares the runtime's state from its own
        subscribe time forward.  Otherwise the pattern is primed from
        the live index so threshold patterns count ongoing episodes from
        their true start.
        """
        return self._register(pattern, max_queue)

    def _register(
        self,
        pattern: Pattern,
        max_queue: int,
        sub_id: int | None = None,
        durable: bool = False,
    ) -> Subscription:
        key = pattern.share_key()
        runtime = self._runtimes.get(key) if key is not None else None
        if runtime is None:
            pattern.prime(self.index, self.last_epoch)
            rkey = key if key is not None else ("unique", self._next_id, id(pattern))
            runtime = SharedRuntime(rkey, pattern, describe_pattern(pattern))
            self._runtimes[rkey] = runtime
            self._add_routes(runtime)
        sid = self._next_id if sub_id is None else sub_id
        self._next_id = max(self._next_id, sid + 1)
        sub = Subscription(sid, runtime.pattern, max_queue)
        sub.runtime = runtime
        sub.durable = durable
        runtime.members[sid] = sub
        self._subscriptions[sid] = sub
        self.stats.subscriptions_opened += 1
        return sub

    def unsubscribe(self, sub_id: int) -> bool:
        """Drop a subscription; returns whether it existed.

        The last member leaving a shared runtime retires the runtime (its
        pattern state is discarded; a fresh subscriber re-primes).
        """
        sub = self._subscriptions.pop(sub_id, None)
        if sub is None:
            return False
        runtime = sub.runtime
        if runtime is not None:
            runtime.members.pop(sub_id, None)
            if not runtime.members and self._runtimes.pop(runtime.key, None) is not None:
                self._drop_routes(runtime)
        self.stats.subscriptions_closed += 1
        return True

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _add_routes(self, runtime: SharedRuntime) -> None:
        if runtime.routing is None:
            return
        kinds, keys = runtime.routing
        for kind in kinds:
            self._kind_routes.setdefault(id(kind), []).append(runtime)
        for name, value in keys:
            if name not in self._key_routes:
                self._key_routes[name] = (attrgetter(name), {})
            self._key_routes[name][1].setdefault(value, []).append(runtime)

    def _drop_routes(self, runtime: SharedRuntime) -> None:
        if runtime.routing is None:
            return
        kinds, keys = runtime.routing
        for kind in kinds:
            self._kind_routes[id(kind)].remove(runtime)
        for name, value in keys:
            table = self._key_routes[name][1]
            table[value].remove(runtime)
            if not table[value]:
                del table[value]  # lookups are per event: keep the tables small

    def _route(self, batch: list[EventMessage]) -> None:
        """One pass over the batch: append each event to the candidates
        of every routed runtime that asked for its kind or for a value
        it carries."""
        for runtime in self._runtimes.values():
            if runtime.routing is not None:
                runtime.candidates = []
                runtime.seen = -1
        kind_routes = self._kind_routes
        key_routes = list(self._key_routes.values())
        for position, msg in enumerate(batch):
            for runtime in kind_routes.get(id(msg.kind), ()):
                runtime.seen = position
                runtime.candidates.append(msg)
            for getter, table in key_routes:
                for runtime in table.get(getter(msg), ()):
                    if runtime.seen != position:
                        runtime.seen = position
                        runtime.candidates.append(msg)

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------

    def publish(self, epoch: int, messages: list[EventMessage]) -> int:
        """Apply one epoch's merged output; returns notifications queued.

        Extends the live index, evaluates each **shared runtime** once
        against its share of the (expanded) batch, and broadcasts matches
        to every member queue with drop-oldest backpressure.
        Subscriptions that overflow ``evict_after`` publishes in a row
        are evicted (their notices land in :attr:`evicted` for the server
        to deliver).
        """
        start = time.perf_counter()
        if self._expander is not None:
            batch: list[EventMessage] = []
            for msg in messages:
                batch.extend(self._expander.feed(msg))
            batch.extend(self._expander.flush())
        else:
            batch = list(messages)
        self.index.extend(batch)
        self.last_epoch = epoch
        self.stats.epochs_published += 1
        self.stats.messages_published += len(batch)

        queued = 0
        self.evicted = []
        self._route(batch)
        for runtime in list(self._runtimes.values()):
            offered = batch if runtime.routing is None else runtime.candidates
            try:
                notes = runtime.pattern.evaluate(epoch, offered, self.index)
            except Exception as exc:
                self._quarantine(runtime, epoch, exc)
                continue
            runtime.evaluations += 1
            self.stats.pattern_evaluations += 1
            if not notes:
                continue
            overflowed: list[Subscription] = []
            for sub in runtime.members.values():
                queued += len(notes)
                dropped = sub.push(notes)
                if not dropped:
                    sub.overflow_streak = 0
                    continue
                sub.overflow_streak += 1
                self.stats.notifications_dropped += dropped
                self.quarantine.warn(
                    WarningKind.SUBSCRIPTION_OVERFLOW,
                    epoch,
                    detail=(
                        f"subscription {sub.sub_id} queue full "
                        f"({sub.max_queue}); dropped {dropped} oldest; "
                        f"pattern {runtime.canonical!r} "
                        f"({len(runtime.members)} subscriber(s))"
                    ),
                )
                if (
                    self.evict_after
                    and not sub.durable
                    and sub.overflow_streak >= self.evict_after
                ):
                    overflowed.append(sub)
            for sub in overflowed:
                # second backpressure tier: remove a persistently slow consumer
                detail = (
                    f"subscription {sub.sub_id} evicted after {sub.overflow_streak} "
                    f"consecutive overflowing epochs ({sub.dropped} dropped total); "
                    f"pattern {runtime.canonical!r} "
                    f"({len(runtime.members)} subscriber(s))"
                )
                self._evict(sub, epoch, detail)
                self.quarantine.warn(
                    WarningKind.SUBSCRIPTION_EVICTED, epoch, detail=detail
                )
        self.stats.observe_publish(time.perf_counter() - start)
        return queued

    def _quarantine(self, runtime: SharedRuntime, epoch: int, exc: Exception) -> None:
        """Retire a pattern whose evaluation raised (it compiled but is
        ill-typed, e.g. ``e.place < 'x'``) together with every subscriber
        to it, durable or not, so the epoch goes on for everyone else."""
        detail = (
            f"pattern {runtime.canonical!r} raised {type(exc).__name__} ({exc}); "
            f"{len(runtime.members)} subscriber(s) evicted"
        )
        self.quarantine.warn(WarningKind.PATTERN_QUARANTINED, epoch, detail=detail)
        for sub in list(runtime.members.values()):
            self._evict(sub, epoch, detail)  # the last one out retires the runtime

    def _evict(self, sub: Subscription, epoch: int, detail: str) -> None:
        """Drop a subscription the engine gave up on, leaving its notice
        in :attr:`evicted` for the owner."""
        self.unsubscribe(sub.sub_id)
        self.stats.subscriptions_evicted += 1
        self.evicted.append(
            (
                sub.sub_id,
                Notification(
                    kind=NOTIFY_SUBSCRIPTION_EVICTED,
                    epoch=epoch,
                    value=sub.dropped,
                    detail=detail,
                ),
            )
        )

    def drain(self, sub_id: int, limit: int | None = None) -> list[Notification]:
        """Consume queued notifications for one subscription."""
        sub = self._subscriptions.get(sub_id)
        if sub is None:
            return []
        out = sub.drain(limit)
        self.stats.notifications_delivered += len(out)
        return out

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def dump_subscriptions(self) -> bytes:
        """Serialize the subscription registry for restart re-arming.

        Compiled patterns persist as their **canonical source** (the
        ``repro.sase.unparse`` fixpoint), legacy catalogue patterns as
        their spec fields; either re-compiles to the same share key on
        restore, so restored duplicates coalesce back into shared
        runtimes.  Pattern *state* is not persisted — restored patterns
        re-prime from the restored server's live index.
        """
        entries = []
        for sub in self._subscriptions.values():
            spec = sub.pattern.spec()
            entry: dict = {"id": sub.sub_id, "max_queue": sub.max_queue}
            if spec.kind == PATTERN_SASE:
                entry["kind"] = PATTERN_SASE
                entry["source"] = sub.pattern.canonical_source
            else:
                entry["kind"] = spec.kind
                entry["obj"] = spec.obj.key() if spec.obj is not None else 0
                entry["place"] = spec.place
                entry["k"] = spec.k
            entries.append(entry)
        doc = {"version": SUBSCRIPTIONS_VERSION, "subscriptions": entries}
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    def restore_subscriptions(self, data: bytes) -> int:
        """Re-arm subscriptions from :meth:`dump_subscriptions` output.

        Restored subscriptions keep their original ids (the id counter
        advances past them) and are marked **durable**: they are exempt
        from slow-consumer eviction until a consumer reconnects, since a
        just-restarted server has no connected consumers at all.
        Returns the number of subscriptions restored.
        """
        doc = json.loads(data.decode("utf-8"))
        version = doc.get("version")
        if version != SUBSCRIPTIONS_VERSION:
            raise ValueError(f"unsupported subscription snapshot version {version!r}")
        restored = 0
        for entry in doc.get("subscriptions", []):
            kind = entry["kind"]
            if kind == PATTERN_SASE:
                spec = PatternSpec(PATTERN_SASE, source=entry["source"])
            else:
                obj_key = entry.get("obj", 0)
                spec = PatternSpec(
                    kind,
                    obj=TagId.from_key(obj_key) if obj_key else None,
                    place=entry.get("place"),
                    k=entry.get("k", 0),
                )
            pattern = pattern_from_spec(spec)
            self._register(
                pattern, entry["max_queue"], sub_id=entry["id"], durable=True
            )
            restored += 1
        return restored

    # ------------------------------------------------------------------
    # one-shot queries
    # ------------------------------------------------------------------

    def timed_query(self, fn: Callable, *args):
        """Run one point query against the live index, recording latency."""
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.stats.observe_query(time.perf_counter() - start)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Serving counters as a :mod:`repro.obs` snapshot.

        Derived from :class:`ServingStats` on demand (no double
        bookkeeping on the publish path); the latency histograms' log₂-µs
        buckets map directly onto the obs histogram's exponent keys.
        """
        s = self.stats

        def counter(name: str, value) -> dict:
            return {"name": name, "kind": "counter", "labels": {}, "value": value}

        def gauge(name: str, value) -> dict:
            return {"name": name, "kind": "gauge", "labels": {}, "value": value}

        series = [
            counter("spire_serving_epochs_published_total", s.epochs_published),
            counter("spire_serving_messages_published_total", s.messages_published),
            counter("spire_serving_notifications_delivered_total", s.notifications_delivered),
            counter("spire_serving_notifications_dropped_total", s.notifications_dropped),
            counter("spire_serving_subscriptions_opened_total", s.subscriptions_opened),
            counter("spire_serving_subscriptions_closed_total", s.subscriptions_closed),
            counter("spire_serving_evictions_total", s.subscriptions_evicted),
            counter("spire_serving_pattern_evaluations_total", s.pattern_evaluations),
            counter("spire_serving_queries_total", s.queries_served),
            gauge("spire_serving_active_subscriptions", s.active_subscriptions),
            gauge("spire_serving_shared_runtimes", len(self._runtimes)),
            gauge(
                "spire_serving_queued_notifications",
                sum(len(sub.queue) for sub in self._subscriptions.values()),
            ),
            {
                "name": "spire_serving_query_latency_microseconds",
                "kind": "histogram",
                "labels": {},
                "buckets": {str(b): n for b, n in sorted(s.latency_buckets.items())},
                "sum": s.query_seconds * 1e6,
                "count": s.queries_served,
            },
            {
                "name": "spire_serving_publish_latency_microseconds",
                "kind": "histogram",
                "labels": {},
                "buckets": {str(b): n for b, n in sorted(s.publish_buckets.items())},
                "sum": s.publish_seconds * 1e6,
                "count": s.epochs_published,
            },
        ]
        # aggregate compiled-pattern (repro.sase) runtime counters across
        # shared runtimes (NOT subscriptions — members share one evaluator);
        # duck-typed so the engine never imports repro.sase
        sase_totals = {
            "active_instances": 0,
            "partitions": 0,
            "matches": 0,
            "kills": 0,
            "prunes": 0,
            "offered": 0,
            "admitted": 0,
            "compile_seconds": 0.0,
        }
        compiled_count = 0
        for runtime in self._runtimes.values():
            sase = getattr(runtime.pattern, "sase_stats", None)
            if sase is None:
                continue
            compiled_count += 1
            for key in sase_totals:
                sase_totals[key] += sase.get(key, 0)
        series.extend(
            [
                gauge("spire_sase_compiled_patterns", compiled_count),
                gauge("spire_sase_active_instances", sase_totals["active_instances"]),
                gauge("spire_sase_partitions", sase_totals["partitions"]),
                counter("spire_sase_matches_total", sase_totals["matches"]),
                counter("spire_sase_kills_total", sase_totals["kills"]),
                counter("spire_sase_prunes_total", sase_totals["prunes"]),
                counter("spire_sase_events_offered_total", sase_totals["offered"]),
                counter("spire_sase_events_admitted_total", sase_totals["admitted"]),
                counter(
                    "spire_sase_compile_seconds_total", sase_totals["compile_seconds"]
                ),
            ]
        )
        help_text = {
            "spire_serving_epochs_published_total": "Epochs fed to the standing-query engine",
            "spire_serving_messages_published_total": "Expanded event messages published",
            "spire_serving_notifications_delivered_total": "Notifications drained to subscribers",
            "spire_serving_notifications_dropped_total": "Notifications dropped by bounded queues",
            "spire_serving_subscriptions_opened_total": "Subscriptions opened",
            "spire_serving_subscriptions_closed_total": "Subscriptions closed",
            "spire_serving_evictions_total": "Subscriptions evicted (slow consumer or raising pattern)",
            "spire_serving_pattern_evaluations_total": "Shared-runtime pattern evaluations",
            "spire_serving_queries_total": "One-shot queries served",
            "spire_serving_active_subscriptions": "Currently active subscriptions",
            "spire_serving_shared_runtimes": "Distinct shared pattern runtimes",
            "spire_serving_queued_notifications": "Notifications waiting in subscription queues",
            "spire_serving_query_latency_microseconds": "One-shot query latency (log2-bucketed)",
            "spire_serving_publish_latency_microseconds": "Per-epoch publish latency (log2-bucketed)",
            "spire_sase_compiled_patterns": "Shared runtimes running compiled patterns",
            "spire_sase_active_instances": "Live partial matches across compiled patterns",
            "spire_sase_partitions": "Active instance-stack partitions across compiled patterns",
            "spire_sase_matches_total": "Pattern matches emitted by compiled patterns",
            "spire_sase_kills_total": "Partial matches killed by negation edges",
            "spire_sase_prunes_total": "Partial matches pruned at window expiry",
            "spire_sase_events_offered_total": "Events handed to compiled patterns after routing",
            "spire_sase_events_admitted_total": "Offered events that passed the admission skip",
            "spire_sase_compile_seconds_total": "Time spent compiling pattern source",
        }
        return {"series": series, "help": help_text}
