"""Remote zone workers over TCP: the daemon and the coordinator.

The :mod:`repro.distributed.parallel` pool with TCP connections in place
of socket pairs, so zones can run on other hosts (the distributed
deployment the paper's follow-up work describes):

* :class:`WorkerDaemon` — the worker side: serves each accepted
  connection with :func:`~repro.distributed.worker.serve_connection`,
  the loop a pool process runs, from an empty ``ZoneHost`` (the zone
  state belongs to the connection).  ``spire-worker`` (the ``worker``
  CLI subcommand) runs one standalone, and :func:`spawn_worker_process`
  launches one as a subprocess and parses the port it bound;
* :class:`RemoteCoordinator` — the :class:`~repro.distributed.
  coordinator.Coordinator` over a pool of TCP connections, supervised by
  :class:`~repro.distributed.supervisor.WorkerSupervisor`.  A lost
  worker is handled as in every pool (DESIGN.md §9, §12): its zones are
  rebuilt from checkpoint + request log on a fresh connection to the
  same daemon when it answers, else on the survivors, and the merged
  stream stays byte-identical to the in-process coordinator's.  Only
  losing *every* worker raises
  :class:`~repro.distributed.supervisor.RemoteError`.
"""

from __future__ import annotations

import os
import select
import socket
import subprocess
import sys
import threading
import time
from typing import Iterable, Sequence

from repro.distributed.coordinator import DEFAULT_CHECKPOINT_INTERVAL, Coordinator, Zone
from repro.distributed.supervisor import Deadlines, WorkerSupervisor
from repro.distributed.worker import ZoneHost, serve_connection
from repro.obs.metrics import MetricRegistry


def parse_address(spec) -> tuple[str, int]:
    """``"host:port"`` / ``":port"`` / ``(host, port)`` -> ``(host, port)``."""
    if isinstance(spec, (tuple, list)):
        host, port = spec
        return str(host), int(port)
    host, sep, port = str(spec).rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"worker address {spec!r} has no port")
    return host or "127.0.0.1", int(port)


# ---------------------------------------------------------------------------
# the worker daemon
# ---------------------------------------------------------------------------


class WorkerDaemon:
    """One TCP zone worker.

    Serves one coordinator connection at a time, each from an empty
    :class:`ZoneHost`: what a connection installed goes with it.
    Thread-safe against :meth:`stop` and :meth:`crash` closing its
    sockets from outside.

    Args:
        host/port: Bind address; port 0 picks a free port.
        name: Identity reported in the HELLO handshake.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, name: str | None = None) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(8)
        self.host, self.port = self._listener.getsockname()[:2]
        self.name = name or f"spire-worker-{os.getpid()}-{self.port}"
        self._host = ZoneHost()  #: the current connection's zones
        self._stopping = threading.Event()
        self._conn: socket.socket | None = None
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    # ------------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Serve in a background thread; returns the bound address."""
        self._thread = threading.Thread(
            target=self.serve_forever, name=self.name, daemon=True
        )
        self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Accept-and-serve loop; returns after :meth:`stop`, a remote
        ``MSG_STOP``, or :meth:`crash`."""
        while not self._stopping.is_set():
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                break  # listener closed by stop()/crash()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conn = conn
            try:
                if serve_connection(conn, self._host, self.name):  # MSG_STOP
                    self._stopping.set()
            finally:
                self._conn = None
                self._host = ZoneHost()  # the zones go with the connection
                try:
                    conn.close()
                except OSError:
                    pass
        try:
            self._listener.close()
        except OSError:
            pass

    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Graceful local shutdown (idempotent)."""
        self._stopping.set()
        for sock in (self._conn, self._listener):
            if sock is not None:
                # shutdown() before close(): the serving thread is blocked
                # in recv()/accept() and holds a reference, so a bare
                # close() would neither wake it nor send the FIN the
                # coordinator's EOF probe is watching for
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(timeout=5)

    def crash(self) -> None:
        """Simulate ``kill -9``: drop the sockets, and the zones with them.

        The coordinator's next probe or request finds the connection
        closed, its redial finds the port refusing, and it rebuilds the
        zones on the survivors.
        """
        self.stop()

    def __enter__(self) -> "WorkerDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def spawn_worker_process(
    host: str = "127.0.0.1", port: int = 0, timeout: float = 30.0
) -> tuple[subprocess.Popen, tuple[str, int]]:
    """Launch a ``spire-worker`` daemon subprocess; returns (proc, address).

    Reads the daemon's ``spire-worker listening on host:port`` banner to
    learn the bound port (``port=0`` lets the OS pick).  The caller owns
    the process; closing a coordinator built with
    ``stop_workers_on_close=True``, or ``proc.terminate()``, ends it.
    """
    # the directory CONTAINING the repro package, so `-m repro.cli` resolves
    package_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--host", host, "--port", str(port)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
    )
    # wait for the banner line under the deadline: a blocking readline()
    # would hang on a child that neither prints nor exits
    deadline = time.monotonic() + timeout
    output = b""
    while b"\n" not in output.partition(b"listening on")[2]:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            raise RuntimeError("spire-worker did not report its address in time")
        chunk = os.read(proc.stdout.fileno(), 4096)
        if not chunk:
            proc.wait()
            proc.stdout.close()
            raise RuntimeError(f"spire-worker exited at startup: {output!r}")
        output += chunk
    banner = output.partition(b"listening on")[2].partition(b"\n")[0]
    return proc, parse_address(banner.decode().strip())


# ---------------------------------------------------------------------------
# the remote coordinator
# ---------------------------------------------------------------------------


class RemoteCoordinator(Coordinator):
    """The coordinator over a pool of TCP workers.

    Args:
        zones: The site partition, as for every coordinator.
        addresses: Worker daemon addresses (``"host:port"`` strings or
            ``(host, port)`` pairs).  Mutually exclusive with ``workers``.
        workers: Spawn this many in-process :class:`WorkerDaemon` threads
            on localhost TCP instead — same code path, no deployment
            (handy default; also what ``SpireSession`` uses).
        deadlines: :class:`~repro.distributed.supervisor.Deadlines` for
            connecting, replies and leases.
        checkpoint_interval: **Required** (must not be ``None``): the
            checkpoints are what worker failover rebuilds zones from.
        stop_workers_on_close: Send ``MSG_STOP`` to the daemons on
            :meth:`close`.  Default: only for self-spawned daemons —
            externally managed workers outlive their coordinators.

    Remaining arguments match :class:`Coordinator`.  A worker lost
    mid-run is redialled once: a daemon that answers gets its zones back,
    rebuilt; else they are rebuilt on the survivors and the run continues.
    """

    def __init__(
        self,
        zones: Iterable[Zone],
        addresses: Sequence | None = None,
        workers: int | None = None,
        deadlines: Deadlines | None = None,
        strict: bool = False,
        checkpoint_interval: int | None = DEFAULT_CHECKPOINT_INTERVAL,
        metrics: MetricRegistry | None = None,
        stop_workers_on_close: bool | None = None,
    ) -> None:
        if checkpoint_interval is None:
            raise ValueError(
                "RemoteCoordinator requires checkpoint_interval: worker "
                "failover rebuilds zones from their checkpoints"
            )
        if (addresses is None) == (workers is None):
            raise ValueError("pass exactly one of addresses= or workers=")
        zones = list(zones)
        if addresses is None:
            if workers < 1:
                raise ValueError(f"workers must be >= 1, got {workers}")
            self._daemons = [WorkerDaemon() for _ in range(workers)]
            resolved = [daemon.start() for daemon in self._daemons]
        else:
            resolved = [parse_address(spec) for spec in addresses]
            if not resolved:
                raise ValueError("addresses must be non-empty")
        self._stop_on_close = (
            (addresses is None) if stop_workers_on_close is None else stop_workers_on_close
        )
        if deadlines is not None:
            self.deadlines = deadlines
        try:
            self.supervisor = WorkerSupervisor(
                resolved[: len(zones)], self.deadlines, metrics=metrics
            )
            self._workers = self.supervisor.workers
            super().__init__(
                zones,
                strict=strict,
                checkpoint_interval=checkpoint_interval,
                metrics=metrics,
            )
        except BaseException:
            self.close()
            raise
