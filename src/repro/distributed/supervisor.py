"""Coordinator-side supervision of remote zone workers.

The pipe transport (:mod:`repro.distributed.parallel`) gets failure
detection for free: a dead child breaks the pipe immediately and
``recv_bytes`` raises.  A TCP worker on another host offers none of that
— requests can time out, connections can drop and come back, a reply can
be lost after the worker applied the request.  This module supplies the
machinery that turns that hostile transport into the same blocking
``send_bytes`` / ``recv_bytes`` contract the coordinator already speaks:

* :class:`RetryPolicy` — per-request deadlines, bounded retries under
  exponential backoff with seeded jitter, lease parameters;
* :class:`RemoteWorker` — one supervised connection.  Requests are
  sequence-numbered and queued; on a timeout the connection is torn down,
  re-established, and **every** unanswered request is resent in order
  (go-back-N).  The worker daemon dedupes by sequence number and answers
  retried requests from its reply cache, so a retry is exactly-once in
  effect.  When retries exhaust, the worker is declared dead and
  :class:`WorkerDied` is raised — the coordinator fails its zones over to
  a survivor;
* :class:`WorkerSupervisor` — the pool view: heartbeat/lease tracking
  (``PING``/``PONG`` probes when a worker has been quiet past its lease),
  fast end-of-file detection between epochs, and the
  ``spire_remote_*`` counters/histogram.
"""

from __future__ import annotations

import random
import select
import socket
import time
from dataclasses import dataclass, field

from repro.distributed import wire
from repro.distributed.worker import WireWorker


class RemoteError(RuntimeError):
    """Unrecoverable remote-transport failure (e.g. every worker died)."""


class WorkerDied(RemoteError):
    """One remote worker exhausted its retries (or its lease) and was
    declared dead.  Carries the handle so the coordinator can fail its
    zones over; the run continues on the survivors."""

    def __init__(self, worker: "RemoteWorker", reason: str) -> None:
        super().__init__(f"remote worker {worker.name} declared dead: {reason}")
        self.worker = worker
        self.reason = reason


@dataclass(frozen=True)
class RetryPolicy:
    """Deadlines, retries, backoff and lease parameters for one pool.

    Attributes:
        connect_timeout: Seconds allowed for TCP connect + HELLO.
        request_timeout: Per-attempt deadline waiting on a reply.
        max_retries: Resend attempts after the first try; when they
            exhaust the worker is declared dead.
        backoff_base: Sleep before the first retry (seconds); doubles
            each retry (``backoff_multiplier``) up to ``backoff_max``.
        jitter: Fraction of the backoff randomized away (+/-), from the
            supervisor's seeded RNG, so a pool of coordinators does not
            retry in lockstep.
        lease_interval: Seconds of silence after which a worker owes a
            heartbeat; the supervisor pings it at the next epoch boundary.
        max_missed_leases: Consecutive failed heartbeats before the
            worker is declared dead.
    """

    connect_timeout: float = 5.0
    request_timeout: float = 5.0
    max_retries: int = 4
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max: float = 1.0
    jitter: float = 0.2
    lease_interval: float = 2.0
    max_missed_leases: int = 3

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Jittered exponential backoff before retry ``attempt`` (1-based)."""
        raw = min(
            self.backoff_base * self.backoff_multiplier ** (attempt - 1),
            self.backoff_max,
        )
        if self.jitter <= 0:
            return raw
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


@dataclass
class SupervisorStats:
    """Transport-level counters for one remote run (all workers).

    Unlike the event stream these are *not* deterministic — retries and
    heartbeats depend on wall-clock timing — so they live next to, not
    inside, the coordinator's deterministic metric set.
    """

    requests: int = 0
    replies: int = 0
    retries: int = 0
    timeouts: int = 0
    reconnects: int = 0
    dup_replies: int = 0
    heartbeats: int = 0
    missed_leases: int = 0
    worker_deaths: int = 0

    def summary_lines(self) -> list[str]:
        return [
            f"requests / replies      {self.requests} / {self.replies}",
            f"timeouts / retries      {self.timeouts} / {self.retries}",
            f"reconnects              {self.reconnects}",
            f"duplicate replies       {self.dup_replies}",
            f"heartbeats (missed)     {self.heartbeats} ({self.missed_leases})",
            f"worker deaths           {self.worker_deaths}",
        ]


class RemoteWorker(WireWorker):
    """One supervised TCP connection to a worker daemon.

    Presents the blocking FIFO ``send_bytes`` / ``recv_bytes`` contract
    :class:`~repro.distributed.worker.WireWorker` builds on (the same one
    the pipe-backed handle offers), with the retry machinery hidden
    underneath.  ``send_bytes`` enqueues the request (assigning
    the next sequence number) and pushes it onto the wire best-effort;
    ``recv_bytes`` blocks for the reply to the *oldest* unanswered
    request, driving timeouts, reconnects and go-back-N resends until it
    has the reply or the retry budget is spent.
    """

    def __init__(
        self,
        index: int,
        address: tuple[str, int],
        policy: RetryPolicy,
        rng: random.Random,
        stats: SupervisorStats,
        observe_rtt=None,
    ) -> None:
        self.index = index
        self.address = address
        self.policy = policy
        self.dead = False
        self.death_reason: str | None = None
        self.name = f"{address[0]}:{address[1]}"
        self.remote_name = ""
        self.remote_pid = 0
        self.missed_leases = 0
        self.last_activity = time.monotonic()
        self._rng = rng
        self._stats = stats
        self._observe_rtt = observe_rtt
        self._sock: socket.socket | None = None
        self._decoder = wire.FrameDecoder()
        self._pending: list[tuple[int, bytes]] = []  # FIFO of unanswered requests
        self._ready: dict[int, bytes] = {}  # out-of-order replies by seq
        self._next_seq = 1
        self._next_ping = 1
        self._last_pong = 0
        # the handshake gets the same retry budget as a request: on a
        # lossy path the HELLO (or its ACK) can vanish like any frame
        for attempt in range(1, policy.max_retries + 2):
            try:
                self._connect()
                break
            except (OSError, wire.WireError):
                self._teardown()
                if attempt > policy.max_retries:
                    raise
                stats.retries += 1
                time.sleep(policy.backoff(attempt, rng))

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return not self.dead

    def _connect(self) -> None:
        sock = socket.create_connection(self.address, timeout=self.policy.connect_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self.policy.request_timeout)
        self._sock = sock
        self._decoder = wire.FrameDecoder()
        try:
            sock.sendall(wire.encode_frame(wire.encode_hello("coordinator")))
            body = self._await_raw_frame(sock, self.policy.connect_timeout)
            msg_type, _seq, payload = wire.decode_envelope(body)
            if msg_type != wire.MSG_HELLO_ACK:
                raise wire.WireError(f"expected HELLO_ACK, got type {msg_type}")
            self.remote_name, self.remote_pid, _zones = wire.decode_hello_ack(payload)
        except (OSError, wire.WireError):
            self._teardown()
            raise
        self.last_activity = time.monotonic()

    def _await_raw_frame(self, sock: socket.socket, timeout: float) -> bytes:
        """Block for exactly one frame during the handshake."""
        sock.settimeout(timeout)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    raise wire.WireError("connection closed during handshake")
                frames = self._decoder.feed(chunk)
                if frames:
                    # handshake is strictly one frame; anything beyond it
                    # would be a protocol violation from the daemon
                    if len(frames) > 1:
                        raise wire.WireError("unexpected frames during handshake")
                    return frames[0]
        finally:
            sock.settimeout(self.policy.request_timeout)

    def _teardown(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._decoder = wire.FrameDecoder()

    def _reconnect_and_resend(self) -> None:
        """Re-establish the connection and resend every pending request
        in order (go-back-N).  The daemon dedupes by sequence number."""
        self._teardown()
        self._connect()
        self._stats.reconnects += 1
        sock = self._sock
        assert sock is not None
        for seq, payload in self._pending:
            sock.sendall(wire.encode_frame(wire.encode_request(seq, payload)))

    def _declare_dead(self, reason: str) -> WorkerDied:
        self.dead = True
        self.death_reason = reason
        self._teardown()
        self._pending.clear()
        self._ready.clear()
        self._stats.worker_deaths += 1
        return WorkerDied(self, reason)

    # ------------------------------------------------------------------
    # the byte-transport contract
    # ------------------------------------------------------------------

    def send_bytes(self, payload: bytes) -> None:
        """Queue one request and push it onto the wire best-effort.

        Wire errors are swallowed here: the recv path owns retries, so a
        send onto a broken connection simply leaves the request pending
        for the reconnect-and-resend cycle to deliver.
        """
        if self.dead:
            raise WorkerDied(self, self.death_reason or "already dead")
        seq = self._next_seq
        self._next_seq += 1
        self._pending.append((seq, payload))
        self._stats.requests += 1
        if self._sock is not None:
            try:
                self._sock.sendall(wire.encode_frame(wire.encode_request(seq, payload)))
            except OSError:
                self._teardown()

    def recv_bytes(self) -> bytes:
        """Block for the reply to the oldest unanswered request."""
        if self.dead:
            raise WorkerDied(self, self.death_reason or "already dead")
        if not self._pending:
            raise RemoteError(f"recv_bytes on {self.name} with no request pending")
        head_seq = self._pending[0][0]
        started = time.monotonic()
        attempt = 0
        while True:
            if head_seq in self._ready:
                self._pending.pop(0)
                self._stats.replies += 1
                self.missed_leases = 0
                if self._observe_rtt is not None:
                    self._observe_rtt(time.monotonic() - started)
                return self._ready.pop(head_seq)
            try:
                if self._sock is None:
                    self._reconnect_and_resend()
                chunk = self._sock.recv(65536)
                if not chunk:
                    raise OSError("connection closed by worker")
                self.last_activity = time.monotonic()
                for frame in self._decoder.feed(chunk):
                    self._on_frame(frame)
            except (socket.timeout, TimeoutError, OSError, wire.WireError) as exc:
                self._stats.timeouts += 1
                attempt += 1
                if attempt > self.policy.max_retries:
                    raise self._declare_dead(
                        f"no reply to request #{head_seq} after "
                        f"{attempt} attempt(s): {exc!r}"
                    ) from exc
                self._stats.retries += 1
                time.sleep(self.policy.backoff(attempt, self._rng))
                self._teardown()
                try:
                    self._reconnect_and_resend()
                except (OSError, wire.WireError):
                    self._teardown()  # next loop iteration retries again

    def _on_frame(self, data: bytes) -> None:
        msg_type, seq, body = wire.decode_envelope(data)
        if msg_type == wire.MSG_REPLY:
            if any(seq == pending_seq for pending_seq, _ in self._pending):
                self._ready[seq] = body
            else:
                self._stats.dup_replies += 1
        elif msg_type == wire.MSG_PONG:
            self._last_pong = max(self._last_pong, seq)
        # anything else mid-stream is daemon noise; ignore

    # ------------------------------------------------------------------
    # supervision probes
    # ------------------------------------------------------------------

    def ping(self) -> bool:
        """One heartbeat probe; True iff the matching PONG came back.

        Only issued between requests (the pending queue is empty), so a
        PONG is the only frame that can legitimately arrive.
        """
        if self.dead or self._pending:
            return not self.dead
        expect = self._next_ping
        self._next_ping += 1
        try:
            if self._sock is None:
                self._reconnect_and_resend()
            self._sock.sendall(wire.encode_frame(wire.encode_ping(expect)))
            deadline = time.monotonic() + self.policy.request_timeout
            while self._last_pong < expect:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._sock.settimeout(remaining)
                try:
                    chunk = self._sock.recv(65536)
                finally:
                    self._sock.settimeout(self.policy.request_timeout)
                if not chunk:
                    self._teardown()
                    return False
                for frame in self._decoder.feed(chunk):
                    self._on_frame(frame)
            self.last_activity = time.monotonic()
            return True
        except (OSError, wire.WireError):
            self._teardown()
            return False

    def eof_probe(self) -> bool:
        """Non-blocking death check: True iff the daemon hung up and a
        reconnect attempt failed.  Cheap enough to run every epoch."""
        if self.dead:
            return True
        if self._sock is None:
            return not self._try_reconnect()
        readable, _, _ = select.select([self._sock], [], [], 0)
        if not readable:
            return False
        try:
            chunk = self._sock.recv(65536)
        except OSError:
            chunk = b""
        if chunk:
            self.last_activity = time.monotonic()
            for frame in self._decoder.feed(chunk):
                self._on_frame(frame)
            return False
        self._teardown()
        return not self._try_reconnect()

    def _try_reconnect(self) -> bool:
        try:
            self._reconnect_and_resend()
            return True
        except (OSError, wire.WireError):
            self._teardown()
            return False

    # ------------------------------------------------------------------
    # letting go
    # ------------------------------------------------------------------

    def kill(self, warn=None) -> None:
        """Drop the connection (the daemon itself is not ours to reap)."""
        self._teardown()
        self._pending.clear()
        self._ready.clear()

    def abandon(self, reason: str, warn=None) -> None:
        """The coordinator gives this worker up (it reported an error)."""
        if not self.dead:
            self._declare_dead(reason)

    def respawn(self) -> None:
        """A remote daemon is not ours to resurrect: its zones move."""


class WorkerSupervisor:
    """Pool-level supervision: construction, heartbeats, telemetry."""

    def __init__(
        self,
        addresses: list[tuple[str, int]],
        policy: RetryPolicy,
        metrics=None,
    ) -> None:
        self.policy = policy
        self.stats = SupervisorStats()
        self._rng = random.Random(0)  # retry jitter only: never reaches the stream
        self._observe_rtt = None
        self._metrics = metrics if metrics is not None and metrics.enabled else None
        if self._metrics is not None:
            self._m_requests = self._metrics.counter(
                "spire_remote_requests_total", "Requests sent to remote workers"
            )
            self._m_retries = self._metrics.counter(
                "spire_remote_retries_total", "Remote request retries (go-back-N resends)"
            )
            self._m_timeouts = self._metrics.counter(
                "spire_remote_timeouts_total", "Remote request attempt timeouts"
            )
            self._m_heartbeats = self._metrics.counter(
                "spire_remote_heartbeats_total", "Heartbeat probes sent"
            )
            self._m_missed = self._metrics.counter(
                "spire_remote_missed_leases_total", "Heartbeat probes that went unanswered"
            )
            self._m_deaths = self._metrics.counter(
                "spire_remote_worker_deaths_total", "Remote workers declared dead"
            )
            self._m_workers = self._metrics.gauge(
                "spire_remote_workers", "Remote workers currently alive"
            )
            rtt = self._metrics.histogram(
                "spire_remote_rtt_seconds", "Remote request round-trip time"
            )
            self._observe_rtt = rtt.observe
        self.workers = [
            RemoteWorker(i, addr, policy, self._rng, self.stats, self._observe_rtt)
            for i, addr in enumerate(addresses)
        ]
        self._sync_gauges()

    def _sync_gauges(self) -> None:
        """Mirror the cumulative stats into the registry (counters are
        advanced by delta — the stats struct is the source of truth)."""
        if self._metrics is None:
            return
        self._m_workers.set(sum(1 for w in self.workers if w.alive))
        for counter, total in (
            (self._m_requests, self.stats.requests),
            (self._m_retries, self.stats.retries),
            (self._m_timeouts, self.stats.timeouts),
            (self._m_heartbeats, self.stats.heartbeats),
            (self._m_missed, self.stats.missed_leases),
            (self._m_deaths, self.stats.worker_deaths),
        ):
            if total > counter.value:
                counter.inc(total - counter.value)

    def check_leases(self) -> None:
        """Between-epoch supervision pass: declares the workers it finds
        dead so; the coordinator then rehomes whoever is not ``alive``.

        Two probes per worker: a zero-cost EOF check (catches a daemon
        that crashed and closed its socket), and — once the worker has
        been silent past its lease — a PING with the request deadline.
        ``max_missed_leases`` consecutive failed pings declare it dead.
        """
        now = time.monotonic()
        for worker in self.workers:
            if worker.dead:
                continue
            if worker.eof_probe():
                if not worker.dead:
                    worker._declare_dead("connection closed and reconnect refused")
                continue
            if now - worker.last_activity < self.policy.lease_interval:
                continue
            self.stats.heartbeats += 1
            if worker.ping():
                worker.missed_leases = 0
                continue
            worker.missed_leases += 1
            self.stats.missed_leases += 1
            if worker.missed_leases >= self.policy.max_missed_leases:
                worker._declare_dead(
                    f"{worker.missed_leases} consecutive missed lease(s)"
                )
        self._sync_gauges()
