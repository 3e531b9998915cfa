"""Multi-core sharded execution: persistent zone worker processes.

:class:`ParallelCoordinator` is the :class:`~repro.distributed.coordinator.
Coordinator` over a pool of **persistent worker processes**, forked once
and named ``spire-worker-N``.  Zone state stays resident between epochs,
so an epoch costs two compact binary frames per worker, never a pickled
graph.  Each worker serves one end of a ``socket.socketpair()`` with
:func:`~repro.distributed.worker.serve_connection`, the loop a TCP
daemon runs per connection, and the coordinator holds the other end in a
:class:`~repro.distributed.worker.SocketWorker`, the TCP pool's handle
too — so a reply not back within ``Deadlines().request_timeout`` loses
the worker, as an end of file or a reported error does.

The merged stream is **byte-identical** to the in-process coordinator's
because it is the same epoch loop (DESIGN.md §9).  A lost worker is
stopped (terminate, then kill) and respawned in its slot, and its zones
are rebuilt there from checkpoint + request log: that costs time only,
and the ``worker_lost`` / ``zone_rehomed`` warnings are the one trace.
"""

from __future__ import annotations

import multiprocessing
import socket
from functools import partial
from typing import Iterable

from repro.distributed.coordinator import Coordinator, Zone
from repro.distributed.supervisor import SupervisorStats
from repro.distributed.worker import SocketWorker, WorkerStats, ZoneHost, serve_connection
from repro.obs.metrics import MetricRegistry

__all__ = ["ParallelCoordinator", "WorkerStats"]


def _fork_worker(ctx, name: str):
    """Start worker process ``name`` on one end of a socket pair; returns
    the other end and the process."""
    sock, child_end = socket.socketpair()
    try:
        process = ctx.Process(
            target=serve_connection, args=(child_end, ZoneHost(), name), daemon=True, name=name
        )
        process.start()
    except BaseException:
        sock.close()
        raise
    finally:
        child_end.close()
    return sock, process


class ParallelCoordinator(Coordinator):
    """The coordinator over a pool of worker processes.

    Args:
        zones: The site partition, exactly as for :class:`Coordinator`.
        workers: Number of worker processes (clamped to the zone count;
            default: one per zone).  Zones are assigned round-robin in
            sorted-zone-id order.
        start_method: ``multiprocessing`` start method; default ``"fork"``
            where available (workers inherit the loaded library), else the
            platform default.

    Deadlines are :class:`~repro.distributed.supervisor.Deadlines`'
    defaults: a worker that does not answer HELLO within
    ``connect_timeout``, or a request within ``request_timeout``, is lost.

    All other arguments match :class:`Coordinator`, and so does everything
    observable: the merged event stream, handoffs, warnings, ownership and
    query results are byte-for-byte those of an in-process run.
    """

    #: the one epoch loop, as this class's own attribute: ``benchmarks/e2e``
    #: wraps it in a span and looks the original up in this ``__dict__``
    process_epoch = Coordinator.process_epoch

    def __init__(
        self,
        zones: Iterable[Zone],
        strict: bool = False,
        checkpoint_interval: int | None = None,
        workers: int | None = None,
        start_method: str | None = None,
        metrics: MetricRegistry | None = None,
    ) -> None:
        zones = list(zones)
        if workers is None:
            workers = len(zones) or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else None
        ctx = multiprocessing.get_context(start_method)
        transport = SupervisorStats()
        self._workers = []
        try:
            for i in range(min(workers, len(zones))):
                name = f"spire-worker-{i}"
                connect = partial(_fork_worker, ctx, name)
                self._workers.append(SocketWorker(i, name, connect, self.deadlines, transport))
            super().__init__(
                zones,
                strict=strict,
                checkpoint_interval=checkpoint_interval,
                metrics=metrics,
            )
        except BaseException:
            self.close()
            raise
