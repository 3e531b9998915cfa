"""Coordinator-side supervision of remote zone workers.

The pipe transport (:mod:`repro.distributed.parallel`) gets failure
detection for free: a dead child breaks the pipe immediately and
``recv_bytes`` raises.  A TCP worker on another host offers less — a
partitioned link or a wedged daemon simply stops answering.  This module
gives that link the pipe's failure semantics and nothing more: whatever
goes wrong on a connection loses the worker, and the coordinator rebuilds
its zones exactly from checkpoint + request log (DESIGN.md §9), as it
does for a pipe worker.

* :class:`Deadlines` — how long a connect, a reply and a silence may take;
* :class:`RemoteWorker` — one connection.  ``recv_bytes`` raises
  ``TimeoutError("no reply within N s")`` past the request deadline and
  ``EOFError`` when the daemon hangs up, as a pipe handle raises
  ``EOFError``; ``respawn()`` dials the same daemon once more, and a
  daemon that answers HELLO within ``connect_timeout`` takes the lost
  worker's slot (its zones come back rebuilt), else they move to the
  survivors;
* :class:`WorkerSupervisor` — the pool view: an end-of-file probe at
  every epoch boundary, a ``PING`` once a worker has been quiet past its
  lease (a ``PONG`` not back within ``request_timeout`` is a deadline
  miss like any other), and the ``spire_remote_*`` counters/histogram.
"""

from __future__ import annotations

import select
import socket
import time
from collections import deque
from dataclasses import dataclass

from repro.distributed import wire
from repro.distributed.worker import LOST_WORKER_ERRORS, WireWorker, loss_reason


class RemoteError(RuntimeError):
    """Unrecoverable remote-transport failure (e.g. every worker died)."""


@dataclass(frozen=True)
class Deadlines:
    """Deadlines for one pool of remote workers.

    Attributes:
        connect_timeout: Seconds allowed for TCP connect + HELLO.
        request_timeout: Seconds a reply (or a heartbeat's PONG) may
            take; past it the worker is lost.
        lease_interval: Seconds of silence after which a worker owes a
            heartbeat; the supervisor pings it at the next epoch boundary.
    """

    connect_timeout: float = 5.0
    request_timeout: float = 5.0
    lease_interval: float = 2.0


@dataclass
class SupervisorStats:
    """Transport-level counters for one remote run (all workers).

    Unlike the event stream these are *not* deterministic — deadlines and
    heartbeats depend on wall-clock timing — so they live next to, not
    inside, the coordinator's deterministic metric set.
    """

    requests: int = 0
    replies: int = 0
    timeouts: int = 0
    heartbeats: int = 0
    missed_leases: int = 0
    worker_deaths: int = 0

    def summary_lines(self) -> list[str]:
        return [
            f"requests / replies      {self.requests} / {self.replies}",
            f"deadline misses         {self.timeouts}",
            f"heartbeats (missed)     {self.heartbeats} ({self.missed_leases})",
            f"worker deaths           {self.worker_deaths}",
        ]


class RemoteWorker(WireWorker):
    """One TCP connection to a worker daemon.

    Presents the blocking FIFO ``send_bytes`` / ``recv_bytes`` contract
    :class:`~repro.distributed.worker.WireWorker` builds on: each frame
    carries one pipe-transport message as it is.  The daemon's zone state
    belongs to the connection, so a connection that breaks is a worker
    that is lost.  Construction dials and completes the HELLO handshake,
    raising ``OSError`` / ``EOFError`` / :class:`~repro.distributed.wire.
    WireError` when the daemon does not answer.
    """

    def __init__(
        self,
        index: int,
        address: tuple[str, int],
        deadlines: Deadlines,
        stats: SupervisorStats,
        observe_rtt=None,
    ) -> None:
        self.index = index
        self.address = address
        self.deadlines = deadlines
        self.name = f"{address[0]}:{address[1]}"
        self.death_reason: str | None = None
        self._stats = stats
        self._observe_rtt = observe_rtt
        self._decoder = wire.FrameDecoder()
        self._frames: deque[bytes] = deque()
        self._sock = socket.create_connection(address, timeout=deadlines.connect_timeout)
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock.sendall(wire.encode_frame(wire.encode_hello("coordinator")))
            ack = self._recv_frame(deadlines.connect_timeout)
            self.remote_name, self.remote_pid = wire.decode_hello_ack(ack)
        except BaseException:
            self._sock.close()
            raise

    @property
    def alive(self) -> bool:
        return self.death_reason is None

    def _recv_frame(self, timeout: float) -> bytes:
        """The next frame from the daemon, within ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        while not self._frames:
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0:
                    raise TimeoutError
                self._sock.settimeout(remaining)
                chunk = self._sock.recv(65536)
            except TimeoutError:
                self._stats.timeouts += 1
                raise TimeoutError(f"no reply within {timeout:g} s") from None
            if not chunk:
                raise EOFError("connection closed by worker")
            self._frames.extend(self._decoder.feed(chunk))
        self.last_activity = time.monotonic()
        return self._frames.popleft()

    # ------------------------------------------------------------------
    # the byte-transport contract
    # ------------------------------------------------------------------

    def send_bytes(self, payload: bytes) -> None:
        self._sock.settimeout(self.deadlines.request_timeout)
        self._sock.sendall(wire.encode_frame(payload))
        self._stats.requests += 1

    def recv_bytes(self) -> bytes:
        """The reply to the oldest unanswered request."""
        started = time.monotonic()
        data = self._recv_frame(self.deadlines.request_timeout)
        self._stats.replies += 1
        if self._observe_rtt is not None:
            self._observe_rtt(time.monotonic() - started)
        return data

    # ------------------------------------------------------------------
    # supervision probes (between requests: nothing is pending)
    # ------------------------------------------------------------------

    def check_eof(self) -> None:
        """Raise ``EOFError`` if the daemon hung up; never blocks."""
        readable, _, _ = select.select([self._sock], [], [], 0)
        if readable:
            if self._sock.recv(65536):
                raise wire.WireError("unsolicited bytes from an idle worker")
            raise EOFError("connection closed by worker")

    def ping(self) -> None:
        """One heartbeat: the PONG must be back within the request deadline."""
        self._sock.settimeout(self.deadlines.request_timeout)
        self._sock.sendall(wire.encode_frame(wire.encode_ping()))
        if self._recv_frame(self.deadlines.request_timeout) != wire.encode_pong():
            raise wire.WireError("expected PONG")

    # ------------------------------------------------------------------
    # letting go
    # ------------------------------------------------------------------

    def kill(self, warn=None) -> None:
        """Drop the connection — and with it the daemon's zone state (the
        daemon itself is not ours to reap)."""
        if self.death_reason is None:
            self.death_reason = "connection closed by the coordinator"
        self._sock.close()

    def abandon(self, reason: str, warn=None) -> None:
        """The coordinator gives this worker up."""
        if self.death_reason is None:
            self.death_reason = reason
            self._stats.worker_deaths += 1
        self._sock.close()

    def respawn(self) -> "RemoteWorker | None":
        """A fresh connection to the same daemon, or ``None`` when it does
        not answer HELLO within ``connect_timeout`` (the lost worker's
        zones then move in with the survivors)."""
        try:
            return RemoteWorker(
                self.index, self.address, self.deadlines, self._stats, self._observe_rtt
            )
        except LOST_WORKER_ERRORS:
            return None


class WorkerSupervisor:
    """Pool-level supervision: construction, heartbeats, telemetry."""

    def __init__(
        self,
        addresses: list[tuple[str, int]],
        deadlines: Deadlines,
        metrics=None,
    ) -> None:
        self.deadlines = deadlines
        self.stats = SupervisorStats()
        self._observe_rtt = None
        self._metrics = metrics if metrics is not None and metrics.enabled else None
        if self._metrics is not None:
            self._m_requests = self._metrics.counter(
                "spire_remote_requests_total", "Requests sent to remote workers"
            )
            self._m_timeouts = self._metrics.counter(
                "spire_remote_timeouts_total",
                "Replies, PONGs and HELLO_ACKs that missed their deadline",
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
            RemoteWorker(i, addr, deadlines, self.stats, self._observe_rtt)
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
            (self._m_timeouts, self.stats.timeouts),
            (self._m_heartbeats, self.stats.heartbeats),
            (self._m_missed, self.stats.missed_leases),
            (self._m_deaths, self.stats.worker_deaths),
        ):
            if total > counter.value:
                counter.inc(total - counter.value)

    def check_leases(self) -> None:
        """Between-epoch supervision pass: gives up the workers it finds
        lost; the coordinator then rehomes whoever is not ``alive``.

        Two probes per worker: a zero-cost EOF check (catches a daemon
        that crashed and closed its socket), and — once the worker has
        been silent past its lease — a PING under the request deadline.
        """
        now = time.monotonic()
        for worker in self.workers:
            if not worker.alive:
                continue
            try:
                worker.check_eof()
                if now - worker.last_activity >= self.deadlines.lease_interval:
                    self.stats.heartbeats += 1
                    worker.ping()
            except LOST_WORKER_ERRORS as exc:
                if isinstance(exc, TimeoutError):
                    self.stats.missed_leases += 1
                worker.abandon(loss_reason(exc))
        self._sync_gauges()
