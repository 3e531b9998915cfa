"""Asyncio client for the serving front-end.

:class:`SpireClient` opens one TCP connection, runs a background reader
task that demultiplexes the server's frames — replies resolve the future
registered under their request id; each epoch's batch frame is unpacked
and its notifications routed to their :class:`ClientSubscription` handle
*and* mirrored onto the legacy ``notifications`` queue as
``(sub_id, Notification)`` pairs — and exposes typed helpers for every
query kind.  Requests may be pipelined; ids are assigned per-connection.
When the server hangs up, the client is closed: pending and later
requests, and waits on an empty queue, raise :class:`ServingError`.

    async with SpireClient.connect(host, port) as client:
        sub = await client.subscribe("PATTERN SEQ(arrival a) WHERE a.place == 3")
        where = await client.location_of(tag, epoch)
        note = await sub.next(timeout=5)
        await sub.cancel()

``subscribe()`` accepts a legacy :class:`~repro.serving.patterns.PatternSpec`,
a :class:`~repro.serving.patterns.Pattern` instance (its spec is sent),
or SASE pattern source text — one method for both generations of the
API.  The per-handle queue and the shared ``notifications`` queue are two
views of the same stream; consume a given subscription through one of
them, not both.
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.distributed.wire import FrameDecoder, WireError, encode_frame
from repro.model.objects import TagId
from repro.query.index import Interval
from repro.serving import protocol
from repro.serving.patterns import (
    NOTIFY_SUBSCRIPTION_EVICTED,
    PATTERN_SASE,
    Notification,
    PatternSpec,
)


class ServingError(RuntimeError):
    """The server answered a request with an error reply."""


class ClientSubscription:
    """Handle for one standing query on one client connection.

    Returned by :meth:`SpireClient.subscribe`.  Notifications for the
    subscription land in a bounded per-handle queue (drop-oldest, the
    client-side mirror of the server's backpressure) consumed with
    :meth:`next`; :meth:`cancel` unsubscribes.  If the server evicts the
    subscription (tiered backpressure), the eviction notice is the last
    notification delivered and subsequent :meth:`next` calls raise
    :class:`ServingError`, as they do once the connection is closed and
    the queue is drained.
    """

    def __init__(
        self, client: "SpireClient", sub_id: int, pattern, max_queue: int
    ) -> None:
        self._client = client
        self.id = sub_id
        #: whatever was passed to subscribe(): spec, Pattern, or source text
        self.pattern = pattern
        self.max_queue = max_queue
        self.evicted = False
        self.cancelled = False
        #: notifications dropped client-side (handle not consumed fast enough)
        self.dropped = 0
        self._queue: deque[Notification] = deque()
        self._wakeup = asyncio.Event()

    def _deliver(self, note: Notification) -> None:
        if note.kind == NOTIFY_SUBSCRIPTION_EVICTED:
            self.evicted = True
        if len(self._queue) >= self.max_queue:
            self._queue.popleft()
            self.dropped += 1
        self._queue.append(note)
        self._wakeup.set()

    def __len__(self) -> int:
        """Notifications buffered and ready for :meth:`next`."""
        return len(self._queue)

    async def next(self, timeout: float | None = None) -> Notification:
        """Await this subscription's next notification.

        Raises :class:`asyncio.TimeoutError` on timeout and
        :class:`ServingError` once the subscription is cancelled or
        evicted, or the connection is closed, and its queue is drained.
        """
        while not self._queue:
            if self.cancelled:
                raise ServingError(f"subscription {self.id} is cancelled")
            if self.evicted:
                raise ServingError(f"subscription {self.id} was evicted by the server")
            if self._client.closed:
                raise ServingError("connection closed")
            self._wakeup.clear()
            if timeout is None:
                await self._wakeup.wait()
            else:
                await asyncio.wait_for(self._wakeup.wait(), timeout)
        return self._queue.popleft()

    async def cancel(self) -> bool:
        """Unsubscribe; returns whether the server still knew the id."""
        if self.cancelled:
            return False
        self.cancelled = True
        self._wakeup.set()
        self._client._routes.pop(self.id, None)
        if self.evicted:
            return False  # the server already dropped it
        return await self._client.unsubscribe(self.id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "evicted" if self.evicted else "cancelled" if self.cancelled else "live"
        return f"ClientSubscription(id={self.id}, {state}, queued={len(self._queue)})"


class SpireClient:
    """One connection to a :class:`~repro.serving.server.SpireServer`."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder()
        self._pending: dict[int, asyncio.Future] = {}
        self._next_request = 1
        #: sub_id -> ClientSubscription receiving that subscription's events
        self._routes: dict[int, ClientSubscription] = {}
        #: set when the read loop ends (server hung up, or :meth:`close`)
        self.closed = False
        self.notifications: asyncio.Queue[tuple[int, Notification]] = asyncio.Queue()
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "SpireClient":
        """Open a connection to a running server."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def close(self) -> None:
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):  # noqa: BLE001
            pass
        self._writer.close()
        for future in self._pending.values():
            if not future.done():
                future.cancel()
        self._pending.clear()

    async def __aenter__(self) -> "SpireClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # frame plumbing
    # ------------------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                chunk = await self._reader.read(65536)
                if not chunk:
                    break
                for payload in self._decoder.feed(chunk):
                    self._on_frame(payload)
        except (ConnectionError, WireError, asyncio.CancelledError):
            pass
        finally:
            self.closed = True
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ServingError("connection closed"))
            for handle in self._routes.values():
                handle._wakeup.set()

    def _on_frame(self, payload: bytes) -> None:
        kind = protocol.frame_type(payload)
        if kind == protocol.FRAME_EVENT_BATCH:
            _, groups = protocol.decode_event_batch(payload)
            for sub_ids, notes in groups:
                for sub_id in sub_ids:
                    for note in notes:
                        self._dispatch_event(sub_id, note)
            return
        if kind == protocol.FRAME_REPLY:
            request_id, status, body = protocol.decode_reply(payload)
            future = self._pending.pop(request_id, None)
            if future is None or future.done():
                return
            if status == protocol.STATUS_OK:
                future.set_result(body)
            else:
                future.set_exception(ServingError(body.decode("utf-8", "replace")))

    def _dispatch_event(self, sub_id: int, note: Notification) -> None:
        handle = self._routes.get(sub_id)
        if handle is not None:
            handle._deliver(note)
        self.notifications.put_nowait((sub_id, note))

    async def _request(self, encode, *args) -> bytes:
        if self.closed:
            raise ServingError("connection closed")
        request_id = self._next_request
        self._next_request += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(encode_frame(encode(request_id, *args)))
        await self._writer.drain()
        return await future

    async def _query(self, kind: int, **kwargs) -> bytes:
        return await self._request(
            lambda rid: protocol.encode_query(rid, kind, **kwargs)
        )

    # ------------------------------------------------------------------
    # one-shot queries
    # ------------------------------------------------------------------

    async def location_of(self, obj: TagId, t: int) -> int | None:
        return protocol.decode_scalar(
            await self._query(protocol.Q_LOCATION, obj=obj, t1=t)
        )

    async def container_of(self, obj: TagId, t: int) -> TagId | None:
        return protocol.decode_tag_value(
            await self._query(protocol.Q_CONTAINER, obj=obj, t1=t)
        )

    async def contents_of(self, container: TagId, t: int) -> list[TagId]:
        return protocol.decode_tag_list(
            await self._query(protocol.Q_CONTENTS, obj=container, t1=t)
        )

    async def objects_at(self, place: int, t: int) -> list[TagId]:
        return protocol.decode_tag_list(
            await self._query(protocol.Q_OBJECTS_AT, place=place, t1=t)
        )

    async def visitors(self, place: int, t1: int, t2: int) -> list[TagId]:
        return protocol.decode_tag_list(
            await self._query(protocol.Q_VISITORS, place=place, t1=t1, t2=t2)
        )

    async def path(self, obj: TagId) -> list[Interval]:
        return protocol.decode_path(await self._query(protocol.Q_PATH, obj=obj))

    async def top_level_container(self, obj: TagId, t: int) -> TagId | None:
        return protocol.decode_tag_value(
            await self._query(protocol.Q_TOP_LEVEL, obj=obj, t1=t)
        )

    async def dwell_time(
        self, obj: TagId, place: int, horizon: int | None = None
    ) -> int | None:
        return protocol.decode_scalar(
            await self._query(protocol.Q_DWELL, obj=obj, place=place, t1=horizon)
        )

    async def is_missing(self, obj: TagId, t: int) -> bool:
        return bool(
            protocol.decode_scalar(
                await self._query(protocol.Q_IS_MISSING, obj=obj, t1=t)
            )
        )

    # ------------------------------------------------------------------
    # subscriptions / diagnostics
    # ------------------------------------------------------------------

    async def subscribe(self, pattern, max_queue: int = 1024) -> ClientSubscription:
        """Register a standing query; returns its subscription handle.

        ``pattern`` may be:

        * SASE pattern **source text** (``str``) — compiled server-side;
        * a legacy :class:`~repro.serving.patterns.PatternSpec` (a
          :data:`~repro.serving.patterns.PATTERN_SASE` spec routes its
          source text);
        * any :class:`~repro.serving.patterns.Pattern` instance (its
          ``spec()`` is sent — the server instantiates its own copy).

        The handle's :meth:`~ClientSubscription.next` awaits matches;
        ``(sub_id, note)`` pairs also land on the legacy
        ``notifications`` queue.  A compile failure raises
        :class:`ServingError` carrying the compiler's message.
        """
        source: str | None = None
        spec: PatternSpec | None = None
        if isinstance(pattern, str):
            source = pattern
        elif isinstance(pattern, PatternSpec):
            spec = pattern
        elif hasattr(pattern, "spec"):
            spec = pattern.spec()
        else:
            raise TypeError(
                f"subscribe() wants pattern source text, a PatternSpec, or a "
                f"Pattern; got {type(pattern).__name__}"
            )
        if spec is not None and spec.kind == PATTERN_SASE:
            if not spec.source:
                raise ValueError("PATTERN_SASE spec requires source text")
            source = spec.source
        if source is not None:
            body = await self._request(
                lambda rid: protocol.encode_subscribe_pattern(rid, source, max_queue)
            )
        else:
            body = await self._request(
                lambda rid: protocol.encode_subscribe(rid, spec, max_queue)
            )
        sub_id = protocol.decode_subscribed(body)
        handle = ClientSubscription(self, sub_id, pattern, max_queue)
        self._routes[sub_id] = handle
        return handle

    async def unsubscribe(self, sub_id: int) -> bool:
        body = await self._request(
            lambda rid: protocol.encode_unsubscribe(rid, sub_id)
        )
        self._routes.pop(sub_id, None)
        return protocol.decode_subscribed(body) == sub_id

    async def stats(self) -> dict:
        body = await self._request(protocol.encode_stats_request)
        return protocol.decode_stats_body(body)

    async def metrics(self) -> str:
        """Fetch the server's Prometheus text exposition (``METRICS`` op)."""
        body = await self._request(protocol.encode_metrics_request)
        return protocol.decode_metrics_body(body)

    async def next_notification(
        self, timeout: float | None = None
    ) -> tuple[int, Notification]:
        """Await the next subscription match as ``(sub_id, notification)``.

        The connection-wide view: every subscription's events land here
        (as well as on their handles).  Prefer the per-handle
        :meth:`ClientSubscription.next` for new code.  Raises
        :class:`asyncio.TimeoutError` on timeout and :class:`ServingError`
        once the connection is closed and the queue is drained.
        """
        if self.notifications.empty() and not self.closed:
            # the queue carries notifications only, so the end of the read
            # loop is awaited beside it rather than signalled through it
            getter = asyncio.ensure_future(self.notifications.get())
            try:
                await asyncio.wait(
                    (getter, self._reader_task),
                    timeout=timeout,
                    return_when=asyncio.FIRST_COMPLETED,
                )
            finally:
                getter.cancel()  # a no-op once it has its item
            if getter.done():
                return getter.result()
        if not self.notifications.empty():
            return self.notifications.get_nowait()
        if self.closed:
            raise ServingError("connection closed")
        raise asyncio.TimeoutError
