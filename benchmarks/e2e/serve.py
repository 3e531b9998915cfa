"""The ``serve_tcp`` pass: the program's own pump, a subscriber and a
query client over loopback TCP, all on one event loop.

Load shape: ``SpireSession.pump(..., epoch_interval)`` is a paced closed
loop (the next epoch is pulled ``epoch_interval`` after the previous
publish returned).  Connection A holds every subscription and drains
``SpireClient.notifications``; connection B issues one-shot queries in a
closed loop with one query outstanding.  The loop thread plus the pump's
executor thread are the two threads of the pass.

The benchmark's own per-epoch work (stream digest, accuracy scoring)
runs on that loop between the pacing sleep and the next pull.  It is
outside every epoch interval, and its duration is taken off the round
trip of the query that was in flight across it.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
from struct import Struct
from time import perf_counter

from repro.api import SpireSession
from repro.serving.client import SpireClient
from repro.serving.protocol import encode_notification

from measure import peak_rss_mb, percentile
from passes import (
    OutputCheck,
    PassResult,
    Trace,
    checkpoint_extras,
    probe_object,
    session_config,
)
from workloads import Workload

#: subscriptions held by connection A, spread over the trace's 20 patterns
SUBSCRIPTIONS = 100
#: idle time after each publish: the accelerated stand-in for the paper's
#: 1 s epochs, so latency is service time, not replay backlog
EPOCH_INTERVAL_S = 0.005
#: per-subscription queue bound, above the largest per-epoch burst of any
#: pattern here, so the run has no drops and no evictions
MAX_QUEUE = 8192
#: a reply or notification not seen this long after the pump ended is lost
DRAIN_TIMEOUT_S = 10.0
#: every n-th query reply is compared with a direct index lookup
VERIFY_EVERY = 100

pack_id = Struct("<I").pack


class _Tap:
    """Stands between the pump and the server to see the emitted stream."""

    def __init__(self, server, sink: list) -> None:
        self._server = server
        self._sink = sink
        self.metrics_provider = server.metrics_provider

    async def publish_epoch(self, epoch, messages):
        self._sink.append(messages)
        return await self._server.publish_epoch(epoch, messages)


def _index_probe(index, objects: list, at: int) -> float:
    """Median microseconds of an in-process point lookup (20k lookups,
    timed in batches of 100 so the clock is not what is measured)."""
    batches = []
    lookups = [objects[i % len(objects)] for i in range(100)]
    for _ in range(200):
        start = perf_counter()
        for obj in lookups:
            index.location_of(obj, at)
        batches.append((perf_counter() - start) / len(lookups) * 1e6)
    return percentile(batches, 50)


async def _serve_pass(trace: Trace, workload: Workload, full: bool, rec) -> PassResult:
    check = OutputCheck(trace, full, workload.score_every)
    period = trace.period
    epochs = trace.epochs
    pulls: list[float] = []
    published: list[float] = []
    pending: list = []
    last_seen: dict[int, float] = {}
    received: dict[int, int] = {}
    note_sha = hashlib.sha256()
    rtts: list[float] = []
    failures: list[str] = []
    #: ``harness_s`` sums the benchmark's own between-epoch work, which
    #: runs on the loop thread and would be charged to a query in flight
    state = {"pumping": True, "mismatched": 0, "queries": 0, "failed": 0, "harness_s": 0.0}

    def fail(operations: int, message: str) -> None:
        state["failed"] += operations
        failures.append(message)

    with SpireSession(session_config(trace, workload)) as session:
        async with session.serve() as server:
            engine = server.engine
            follower = await SpireClient.connect(server.host, server.port)
            querier = await SpireClient.connect(server.host, server.port)
            try:
                handles = [
                    await follower.subscribe(
                        trace.patterns[i % len(trace.patterns)], max_queue=MAX_QUEUE
                    )
                    for i in range(SUBSCRIPTIONS)
                ]

                def between(index: int) -> None:
                    # work on the previous epoch's output, before the next
                    # pull is stamped: outside every timed interval
                    start = perf_counter()
                    for messages in pending:
                        check.feed(messages)
                    pending.clear()
                    if index and epochs[index - 1].epoch % period == 0:
                        check.score(session, epochs[index - 1].epoch)
                    state["harness_s"] += perf_counter() - start

                def source():
                    for index, readings in enumerate(epochs):
                        between(index)
                        now = perf_counter()
                        pulls.append(now)
                        if rec is not None:
                            rec.begin_epoch(readings.epoch, now)
                        yield readings
                    between(len(epochs))

                def on_epoch(_epoch: int, _pumped: int) -> None:
                    now = perf_counter()
                    published.append(now)
                    if rec is not None:
                        rec.end_epoch(now)

                async def consume() -> None:
                    queue = follower.notifications
                    while True:
                        batch = [await queue.get()]
                        while not queue.empty():
                            batch.append(queue.get_nowait())
                        now = perf_counter()
                        # hashed one by one, so the digest does not depend on
                        # how many notifications a wake-up happened to drain
                        for sub_id, note in batch:
                            last_seen[note.epoch] = now
                            received[sub_id] = received.get(sub_id, 0) + 1
                            note_sha.update(pack_id(sub_id) + encode_notification(note))

                async def query_loop() -> None:
                    index = engine.index
                    i = 0
                    while state["pumping"]:
                        obj = probe_object(trace, max(len(pulls) - 1, 0), i)
                        at = engine.last_epoch or 0
                        harness_s = state["harness_s"]
                        start = perf_counter()
                        if i % 2:
                            reply = await querier.is_missing(obj, at)
                        else:
                            reply = await querier.location_of(obj, at)
                        rtts.append(perf_counter() - start - (state["harness_s"] - harness_s))
                        if i % VERIFY_EVERY == 0:
                            lookup = index.is_missing if i % 2 else index.location_of
                            direct = lookup(obj, at)
                            state["mismatched"] += reply != direct
                        i += 1
                        state["queries"] = i

                consumer = asyncio.ensure_future(consume())
                queries = asyncio.ensure_future(query_loop())
                gc.collect()
                await session.pump(
                    _Tap(server, pending),
                    source(),
                    epoch_interval=EPOCH_INTERVAL_S,
                    on_epoch=on_epoch,
                )
                state["pumping"] = False
                try:
                    await asyncio.wait_for(queries, DRAIN_TIMEOUT_S)
                except asyncio.TimeoutError:
                    fail(1, "a query reply timed out")
                deadline = perf_counter() + DRAIN_TIMEOUT_S
                while (
                    sum(received.values()) < engine.stats.notifications_delivered
                    and perf_counter() < deadline
                ):
                    await asyncio.sleep(0.01)
                consumer.cancel()
                await asyncio.gather(consumer, return_exceptions=True)

                expected = engine.stats.notifications_delivered
                for handle in handles:
                    sub = engine.subscriptions.get(handle.id)
                    got = received.get(handle.id, 0)
                    if sub is None or handle.evicted:
                        fail(1, f"subscription {handle.id} was evicted")
                    elif sub.dropped or sub.delivered != got:
                        fail(
                            sub.dropped + abs(sub.delivered - got),
                            f"subscription {handle.id}: sent {sub.delivered}, dropped "
                            f"{sub.dropped}, received {got}",
                        )
                if state["mismatched"]:
                    fail(
                        state["mismatched"],
                        f"{state['mismatched']} query replies differ from the index",
                    )
                rss = peak_rss_mb()
                probe = [probe_object(trace, len(epochs) - 1, i) for i in range(100)]
                extra = {
                    "index.query_us_p50": _index_probe(engine.index, probe, engine.last_epoch or 0),
                    "engine.notifications_dropped": engine.stats.notifications_dropped,
                    "engine.shared_runtimes": len(engine.runtimes),
                    "notify.delivered": expected,
                    "query.count": state["queries"],
                    "deliver_lag": [
                        last_seen[r.epoch] - published[i]
                        for i, r in enumerate(epochs)
                        if r.epoch in last_seen
                    ],
                    "pulls": dict(zip(trace.numbers, pulls)),
                }
                if rec is not None:
                    extra.update(checkpoint_extras(session))
            finally:
                await follower.close()
                await querier.close()

    result = check.finish()
    # the emitted stream's digest is folded with the digest of every
    # notification as received, so either changing fails the comparison
    note_sha.update(result["digest"].encode())
    result["digest"] = note_sha.hexdigest()
    extra["codec.encode_s"] = check.encode_s
    extra["codec.bytes_out"] = check.bytes_out
    busy = [done - pulled for pulled, done in zip(pulls, published)]
    latency = [
        last_seen.get(r.epoch, done) - pulled
        for r, pulled, done in zip(epochs, pulls, published)
    ]
    return PassResult(
        busy=busy,
        latency=latency,
        queries=rtts,
        check=result,
        peak_rss_mb=rss,
        attempted=len(epochs) + state["queries"] + expected,
        failures=failures + result["failures"],
        failed=state["failed"] + len(result["failures"]),
        extra=extra,
    )


def run_serve_pass(trace: Trace, workload: Workload, full: bool, rec=None) -> PassResult:
    return asyncio.run(_serve_pass(trace, workload, full, rec))
