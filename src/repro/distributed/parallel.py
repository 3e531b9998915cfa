"""Multi-core sharded execution: persistent zone worker processes.

:class:`ParallelCoordinator` is the :class:`~repro.distributed.coordinator.
Coordinator` over a pool of **persistent worker processes**.  Workers are
spawned once; zone state stays resident between epochs, so the per-epoch
cost is two compact binary frames per **worker** on a pipe (all its
zones' pre-partitioned readings out, their event messages back) — never a
pickled graph.

The merged event stream is **byte-identical** to the in-process
coordinator's because it *is* the same epoch loop; the pipe only has to
preserve per-worker FIFO order and the reader/tag insertion order inside
epoch frames, so each worker's deduplication sees what a local one would.

A worker that errors, or whose process dies, is respawned in its slot
and the zones it hosted are rebuilt there from checkpoint + request log
(DESIGN.md §9).  That costs time only: the stream, handoffs, ownership
and query answers stay those of a run in which nothing died, the
``worker_lost`` / ``zone_rehomed`` warnings in the epoch's result are
the one trace, and there is no exception to catch.
"""

from __future__ import annotations

import multiprocessing
from typing import Iterable

from repro.distributed.coordinator import Coordinator, Zone
from repro.distributed.worker import WireWorker, WorkerStats, ZoneHost
from repro.obs.metrics import MetricRegistry

__all__ = ["ParallelCoordinator", "WorkerStats"]


def _worker_main(conn) -> None:
    """Worker process: serve zone substrates over a duplex pipe, FIFO."""
    host = ZoneHost()
    while True:
        try:
            data = conn.recv_bytes()
        except EOFError:
            return
        reply, done = host.serve_bytes(data)
        conn.send_bytes(reply)
        if done:
            return


class _Worker(WireWorker):
    """Coordinator-side handle to one worker process."""

    _given_up: str | None = None  #: why the coordinator abandoned it

    def __init__(self, ctx, index: int) -> None:
        self.index = index
        self.name = f"spire-worker-{index}"
        self._ctx = ctx
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True, name=self.name
        )
        self.process.start()
        child_conn.close()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def readable(self):
        return None if self.conn.closed else self.conn

    @property
    def death_reason(self) -> str:
        return self._given_up or f"process exited with code {self.process.exitcode}"

    def send_bytes(self, payload: bytes) -> None:
        self.conn.send_bytes(payload)

    def recv_bytes(self) -> bytes:
        return self.conn.recv_bytes()

    def kill(self, warn=None) -> None:
        """Stop the process, escalating terminate -> kill -> quarantine.

        ``terminate`` (SIGTERM) can be absorbed by a worker wedged in
        uninterruptible I/O; ``join(timeout)`` then returns with the
        process still alive and the old code leaked it as a zombie.  Now
        SIGKILL follows, and if even that does not reap the process
        within the timeout, ``warn`` (a ``detail -> None`` callable) is
        invoked so the leak lands in the quarantine instead of vanishing.
        """
        process = self.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=5)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
            if process.is_alive() and warn is not None:
                warn(
                    f"worker {self.index} (pid {process.pid}) survived "
                    "terminate and kill; leaking it as a zombie"
                )
        self.conn.close()

    def abandon(self, reason: str, warn=None) -> None:
        """Reap the process *now*: a worker that reported an error is
        mid-exit, and recovery must respawn it rather than race the dying
        process's half-closed pipe."""
        self._given_up = reason
        self.kill(warn)

    def respawn(self) -> "_Worker":
        return _Worker(self._ctx, self.index)


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
        self._workers = [_Worker(ctx, i) for i in range(min(workers, len(zones)))]
        try:
            super().__init__(
                zones,
                strict=strict,
                checkpoint_interval=checkpoint_interval,
                metrics=metrics,
            )
        except BaseException:
            self.close()
            raise
