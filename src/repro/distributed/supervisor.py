"""Deadlines, transport counters, and the TCP pool's supervision.

Every out-of-process worker is a :class:`~repro.distributed.worker.
SocketWorker` under one :class:`Deadlines`: a reply past
``request_timeout`` or an end of file loses the worker, and the
coordinator rebuilds its zones exactly from checkpoint + request log
(DESIGN.md §9).  A TCP worker on another host can also go silent between
requests, so the TCP pool adds :class:`WorkerSupervisor`: an end-of-file
probe at every epoch boundary, a ``PING`` once a worker has been quiet
past its lease (a ``PONG`` not back within ``request_timeout`` is a
deadline miss like any other), and the ``spire_remote_*`` series.
:func:`dial_worker` makes one connection's handle; its ``respawn()``
dials the same daemon once more.
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from functools import partial

from repro.distributed.worker import LOST_WORKER_ERRORS, SocketWorker, loss_reason


class RemoteError(RuntimeError):
    """Unrecoverable remote-transport failure (e.g. every worker died)."""


@dataclass(frozen=True)
class Deadlines:
    """Deadlines for one pool of out-of-process workers.

    Attributes:
        connect_timeout: Seconds allowed for a connect (or a fork) + HELLO.
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


def _connect_tcp(address: tuple[str, int], timeout: float):
    sock = socket.create_connection(address, timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock, None  # the daemon is not ours to reap


def dial_worker(
    index: int,
    address: tuple[str, int],
    deadlines: Deadlines,
    stats: SupervisorStats,
    observe_rtt=None,
) -> SocketWorker:
    """A handle on one TCP connection to the worker daemon at ``address``;
    raises ``OSError`` / ``EOFError`` / :class:`~repro.distributed.wire.
    WireError` when the daemon does not answer HELLO."""
    connect = partial(_connect_tcp, address, deadlines.connect_timeout)
    return SocketWorker(
        index, f"{address[0]}:{address[1]}", connect, deadlines, stats, observe_rtt
    )


#: the ``spire_remote_*`` counters, each mirroring a SupervisorStats field
_COUNTERS = (
    ("requests", "spire_remote_requests_total", "Requests sent to remote workers"),
    (
        "timeouts",
        "spire_remote_timeouts_total",
        "Replies, PONGs and HELLO_ACKs that missed their deadline",
    ),
    ("heartbeats", "spire_remote_heartbeats_total", "Heartbeat probes sent"),
    ("missed_leases", "spire_remote_missed_leases_total", "Heartbeat probes that went unanswered"),
    ("worker_deaths", "spire_remote_worker_deaths_total", "Remote workers declared dead"),
)


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
        observe_rtt = None
        self._metrics = metrics if metrics is not None and metrics.enabled else None
        if self._metrics is not None:
            self._counters = [
                (field, self._metrics.counter(name, text)) for field, name, text in _COUNTERS
            ]
            self._m_workers = self._metrics.gauge(
                "spire_remote_workers", "Remote workers currently alive"
            )
            observe_rtt = self._metrics.histogram(
                "spire_remote_rtt_seconds", "Remote request round-trip time"
            ).observe
        self.workers = [
            dial_worker(i, addr, deadlines, self.stats, observe_rtt)
            for i, addr in enumerate(addresses)
        ]
        self._sync_gauges()

    def _sync_gauges(self) -> None:
        """Mirror the cumulative stats into the registry (counters are
        advanced by delta — the stats struct is the source of truth)."""
        if self._metrics is None:
            return
        self._m_workers.set(sum(1 for w in self.workers if w.alive))
        for field, counter in self._counters:
            total = getattr(self.stats, field)
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
