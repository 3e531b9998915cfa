"""Asyncio TCP front-end over the standing-query engine.

:class:`SpireServer` wraps a :class:`~repro.serving.engine.StandingQueryEngine`
in an asyncio TCP server speaking the length-prefixed protocol of
:mod:`repro.serving.protocol`.  Connections are independent: each gets a
:class:`~repro.distributed.wire.FrameDecoder`, and each subscription is
owned by the connection that opened it (closing the socket tears its
subscriptions down).

The server does not read the stream itself — a **pump** feeds it.
:func:`pump_coordinator` drives a :class:`~repro.distributed.coordinator.
Coordinator` (or :class:`~repro.distributed.parallel.ParallelCoordinator`)
one epoch at a time in the default executor, so serving composes with
sharded execution and zone failover: whatever the substrate emits —
including the splice messages of ``fail_zone``/``recover_zone`` — is what
subscribers see.  After each published epoch, every subscription's queue
is flushed to its connection as **one coalesced ``FRAME_EVENT_BATCH``
frame per epoch**, with subscriptions that drained the identical
notification sequence sharing one encoded group, and the epoch's
eviction notices riding the same frame; the engine's bounded queues
(drop-oldest, escalating to eviction when ``evict_after`` is set) are the
backpressure boundary, so a stalled client costs memory ``O(max_queue)``
and never blocks the pump.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Iterable

from repro.distributed.wire import FrameDecoder, WireError, encode_frame
from repro.events.messages import EventMessage
from repro.obs.metrics import merge_snapshots, render_prometheus
from repro.readers.stream import EpochReadings
from repro.serving import protocol
from repro.serving.engine import StandingQueryEngine
from repro.sase import compile_pattern
from repro.serving.patterns import pattern_from_spec


class SpireServer:
    """Serve one-shot queries and standing subscriptions over TCP."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        engine: StandingQueryEngine | None = None,
        metrics_provider: Callable[[], dict] | None = None,
        evict_after: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.engine = engine if engine is not None else StandingQueryEngine(
            expand_level2=True, evict_after=evict_after
        )
        #: optional callback returning a substrate obs snapshot (e.g. a
        #: coordinator's ``metrics_snapshot``) merged into ``METRICS`` replies
        self.metrics_provider = metrics_provider
        self._server: asyncio.AbstractServer | None = None
        #: sub_id -> writer owning that subscription
        self._sub_owner: dict[int, asyncio.StreamWriter] = {}
        #: (share key, max_queue) -> ids of restored subscriptions no
        #: connection has taken over yet, oldest first
        self._unowned: dict[tuple, list[int]] = {}
        self._writers: set[asyncio.StreamWriter] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._lock = asyncio.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    async def __aenter__(self) -> "SpireServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # publishing (called by pumps)
    # ------------------------------------------------------------------

    async def publish_epoch(self, epoch: int, messages: list[EventMessage]) -> int:
        """Feed one epoch's merged output; flush matches to subscribers."""
        async with self._lock:
            queued = self.engine.publish(epoch, messages)
            await self._flush_subscriptions()
        return queued

    async def _flush_subscriptions(self) -> None:
        dead: list[int] = []
        #: per-writer drained output, preserving subscription order
        by_writer: dict[asyncio.StreamWriter, list[tuple[int, list]]] = {}
        # the engine already dropped the subscriptions it just evicted;
        # each notice goes to its owner ahead of the epoch's matches
        for sub_id, note in self.engine.evicted:
            writer = self._sub_owner.pop(sub_id, None)
            if writer is not None and not writer.is_closing():
                by_writer.setdefault(writer, []).append((sub_id, [note]))
        for sub_id, writer in list(self._sub_owner.items()):
            notes = self.engine.drain(sub_id)
            if not notes:
                continue
            if writer.is_closing():
                dead.append(sub_id)
                continue
            by_writer.setdefault(writer, []).append((sub_id, notes))
        epoch = self.engine.last_epoch or 0
        for writer, entries in by_writer.items():
            # one coalesced frame per epoch per connection; subscriptions
            # that drained the *identical* notification sequence (the common
            # case under shared fan-out) share one encoded group, so N
            # duplicate subscribers cost one body
            groups: dict[tuple, list[int]] = {}
            sequences: dict[tuple, list] = {}
            for sub_id, notes in entries:
                key = tuple(map(id, notes))
                if key in groups:
                    groups[key].append(sub_id)
                else:
                    groups[key] = [sub_id]
                    sequences[key] = notes
            payload = protocol.encode_event_batch(
                epoch, [(groups[key], sequences[key]) for key in groups]
            )
            writer.write(encode_frame(payload))
            try:
                await writer.drain()
            except (ConnectionError, RuntimeError):
                dead.extend(sub_id for sub_id, _ in entries)
        for sub_id in dead:
            self._drop_subscription(sub_id)

    def _drop_subscription(self, sub_id: int) -> None:
        self._sub_owner.pop(sub_id, None)
        self.engine.unsubscribe(sub_id)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        decoder = FrameDecoder()
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                try:
                    frames = decoder.feed(chunk)
                except WireError:
                    break
                for payload in frames:
                    reply = await self._dispatch(payload, writer)
                    if reply is not None:
                        writer.write(encode_frame(reply))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown tears connections down
        finally:
            async with self._lock:
                owned = [s for s, w in self._sub_owner.items() if w is writer]
                for sub_id in owned:
                    self._drop_subscription(sub_id)
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()

    async def _dispatch(
        self, payload: bytes, writer: asyncio.StreamWriter
    ) -> bytes | None:
        try:
            op, request_id = protocol.decode_request_header(payload)
        except WireError:
            return None
        try:
            if op == protocol.OP_QUERY:
                return self._handle_query(request_id, payload)
            if op == protocol.OP_SUBSCRIBE:
                return await self._handle_subscribe(request_id, payload, writer)
            if op == protocol.OP_SUBSCRIBE_PATTERN:
                return await self._handle_subscribe_pattern(request_id, payload, writer)
            if op == protocol.OP_UNSUBSCRIBE:
                return await self._handle_unsubscribe(request_id, payload, writer)
            if op == protocol.OP_STATS:
                return protocol.encode_reply(
                    request_id, protocol.encode_stats_body(self.stats_dict())
                )
            if op == protocol.OP_METRICS:
                return protocol.encode_reply(
                    request_id, protocol.encode_metrics_body(self.render_metrics())
                )
            return protocol.encode_error_reply(request_id, f"unknown op {op}")
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return protocol.encode_error_reply(request_id, str(exc))

    def _handle_query(self, request_id: int, payload: bytes) -> bytes:
        kind, obj, place, t1, t2 = protocol.decode_query(payload)
        index = self.engine.index
        run = self.engine.timed_query
        if kind == protocol.Q_LOCATION:
            body = protocol.encode_scalar(run(index.location_of, obj, t1))
        elif kind == protocol.Q_CONTAINER:
            body = protocol.encode_tag_value(run(index.container_of, obj, t1))
        elif kind == protocol.Q_CONTENTS:
            body = protocol.encode_tag_list(run(index.contents_of, obj, t1))
        elif kind == protocol.Q_OBJECTS_AT:
            body = protocol.encode_tag_list(run(index.objects_at, place, t1))
        elif kind == protocol.Q_VISITORS:
            body = protocol.encode_tag_list(run(index.visitors, place, t1, t2))
        elif kind == protocol.Q_PATH:
            body = protocol.encode_path(run(index.path, obj))
        elif kind == protocol.Q_TOP_LEVEL:
            body = protocol.encode_tag_value(run(index.top_level_container, obj, t1))
        elif kind == protocol.Q_DWELL:
            body = protocol.encode_scalar(run(index.dwell_time, obj, place, t1))
        elif kind == protocol.Q_IS_MISSING:
            body = protocol.encode_scalar(int(run(index.is_missing, obj, t1)))
        else:
            return protocol.encode_error_reply(request_id, f"unknown query kind {kind}")
        return protocol.encode_reply(request_id, body)

    async def _handle_subscribe(
        self, request_id: int, payload: bytes, writer: asyncio.StreamWriter
    ) -> bytes:
        spec, max_queue = protocol.decode_subscribe(payload)
        return await self._subscribe(request_id, pattern_from_spec(spec), max_queue, writer)

    async def _handle_subscribe_pattern(
        self, request_id: int, payload: bytes, writer: asyncio.StreamWriter
    ) -> bytes:
        source, max_queue = protocol.decode_subscribe_pattern(payload)
        # compile outside the lock; PatternError (a ValueError) propagates
        # to _dispatch's boundary handler and becomes the compile-error
        # reply the client surfaces verbatim
        return await self._subscribe(request_id, compile_pattern(source), max_queue, writer)

    async def _subscribe(
        self, request_id: int, pattern, max_queue: int, writer: asyncio.StreamWriter
    ) -> bytes:
        """Open a subscription owned by ``writer`` — or hand it the first
        unowned one restored by :meth:`load_subscriptions` with the same
        share key and ``max_queue``: that consumer has reconnected, so it
        keeps the restored id, its held notifications go out at the next
        flush, and it is no longer durable."""
        unowned = self._unowned.get((pattern.share_key(), max_queue))
        async with self._lock:
            sub = None
            while unowned and sub is None:  # skip any the engine has dropped since
                sub = self.engine.subscriptions.get(unowned.pop(0))
            if sub is None:
                sub = self.engine.subscribe(pattern, max_queue=max_queue)
            sub.durable = False
            self._sub_owner[sub.sub_id] = writer
        return protocol.encode_reply(request_id, protocol.encode_subscribed(sub.sub_id))

    async def _handle_unsubscribe(
        self, request_id: int, payload: bytes, writer: asyncio.StreamWriter
    ) -> bytes:
        sub_id = protocol.decode_unsubscribe(payload)
        async with self._lock:
            # only the owning connection may cancel; any other id, known
            # or not, gets the same "no such subscription" answer
            owned = self._sub_owner.get(sub_id) is writer
            if owned:
                self._drop_subscription(sub_id)
        return protocol.encode_reply(request_id, protocol.encode_subscribed(sub_id if owned else 0))

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def stats_dict(self) -> dict:
        stats = self.engine.stats
        return {
            "epochs_published": stats.epochs_published,
            "messages_published": stats.messages_published,
            "active_subscriptions": stats.active_subscriptions,
            "subscriptions_opened": stats.subscriptions_opened,
            "notifications_delivered": stats.notifications_delivered,
            "notifications_dropped": stats.notifications_dropped,
            "subscriptions_evicted": stats.subscriptions_evicted,
            "pattern_evaluations": stats.pattern_evaluations,
            "shared_runtimes": len(self.engine.runtimes),
            "queries_served": stats.queries_served,
            "query_seconds": stats.query_seconds,
            "latency_buckets": {str(k): v for k, v in sorted(stats.latency_buckets.items())},
            "last_epoch": self.engine.last_epoch,
        }

    # ------------------------------------------------------------------
    # subscription persistence
    # ------------------------------------------------------------------

    def save_subscriptions(self, path) -> int:
        """Write the subscription registry next to the server's state.

        Atomic (tmp + rename), mirroring the checkpoint conventions; the
        payload is the engine's canonical-pattern-text snapshot.  Returns
        the number of subscriptions persisted.
        """
        import os

        data = self.engine.dump_subscriptions()
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
        return len(self.engine.subscriptions)

    def load_subscriptions(self, path) -> int:
        """Re-arm persisted subscriptions.  A restored subscription has no
        owner and is durable — exempt from eviction, its notifications
        held — until its consumer reconnects: a subscribe with the same
        pattern and ``max_queue`` takes it over, id included.  Returns
        the number restored; a missing file restores nothing."""
        import os

        if not os.path.exists(path):
            return 0
        with open(path, "rb") as fh:
            data = fh.read()
        restored = self.engine.restore_subscriptions(data)
        for sub in self.engine.subscriptions.values():
            if sub.durable:
                self._unowned.setdefault((sub.runtime.key, sub.max_queue), []).append(sub.sub_id)
        return restored

    def metrics_snapshot(self) -> dict:
        """Serving-layer snapshot merged with the substrate's (if wired)."""
        snapshots = [self.engine.metrics_snapshot()]
        if self.metrics_provider is not None:
            snapshots.append(self.metrics_provider())
        return merge_snapshots(snapshots)

    def render_metrics(self) -> str:
        """The ``METRICS`` reply body: Prometheus text exposition."""
        return render_prometheus(self.metrics_snapshot())


async def pump_coordinator(
    server: SpireServer,
    coordinator,
    epochs: Iterable[EpochReadings],
    actions: dict[int, Callable[[], list[EventMessage]]] | None = None,
    epoch_interval: float = 0.0,
    on_epoch: Callable[[int, int], Awaitable[None] | None] | None = None,
) -> int:
    """Drive a coordinator over ``epochs``, publishing each result.

    Each ``process_epoch`` call runs in the default executor so the event
    loop keeps serving queries while a (CPU-bound, possibly multi-process)
    epoch step is in flight.  ``actions`` maps an epoch *index* to a
    closure run just before that epoch — e.g. ``fail_zone``/``recover_zone``
    — whose returned splice messages are published with the epoch's own.
    ``epoch_interval`` throttles replay to approximate a live stream.
    Returns the number of epochs pumped.
    """
    if server.metrics_provider is None and hasattr(coordinator, "metrics_snapshot"):
        server.metrics_provider = coordinator.metrics_snapshot
    loop = asyncio.get_running_loop()
    pumped = 0
    for i, readings in enumerate(epochs):
        spliced: list[EventMessage] = []
        if actions and i in actions:
            spliced = list(actions[i]() or [])
        result = await loop.run_in_executor(None, coordinator.process_epoch, readings)
        await server.publish_epoch(result.epoch, spliced + list(result.messages))
        pumped += 1
        if on_epoch is not None:
            maybe = on_epoch(result.epoch, pumped)
            if maybe is not None:
                await maybe
        if epoch_interval > 0:
            await asyncio.sleep(epoch_interval)
    return pumped
