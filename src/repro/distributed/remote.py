"""Remote zone workers over TCP: daemon, transport, and coordinator.

This is the pipe-based :mod:`repro.distributed.parallel` protocol lifted
onto sockets, so zones can run on other hosts (the distributed deployment
the paper's follow-up work describes).  Three pieces:

* :class:`WorkerDaemon` — the worker side.  Listens on a TCP port and
  answers the coordinator's ``MSG_INSTALL`` / ``MSG_EPOCH`` /
  ``MSG_RELEASE`` / ``MSG_ADOPT`` / ``MSG_QUERY`` requests through the
  same :class:`~repro.distributed.worker.ZoneHost` core the pipe workers
  use — one length-prefixed frame per message, the pipe transport's
  bytes as they are, no pickle on the hot path.  The zone state belongs
  to the connection: each accepted connection starts from an empty
  ``ZoneHost``, as each pipe worker process does.  ``spire-worker`` (the
  ``worker`` CLI subcommand) runs one standalone.

* :func:`spawn_worker_process` — launch a ``spire-worker`` daemon as a
  subprocess and parse the port it bound (for tests, benchmarks and CI).

* :class:`RemoteCoordinator` — the :class:`~repro.distributed.
  coordinator.Coordinator` over a pool of TCP connections
  (:class:`~repro.distributed.supervisor.RemoteWorker`).  The epoch loop
  and the loss of a worker are every pool's (DESIGN.md §9): a missed
  deadline, an end of file, a missed lease or a bad reply loses the
  worker; its zones are rebuilt from checkpoint + request log on a fresh
  connection to the same daemon when it answers, else on the survivors.
  Only losing *every* worker raises
  :class:`~repro.distributed.supervisor.RemoteError`.

Determinism contract: the merged event stream is byte-identical to the
in-process coordinator's — with live workers, under transport delay, and
when a worker is lost, between epochs (the EOF probe, a missed lease) or
with requests in flight: the requests in flight were logged before they
were sent, so the rebuilt zones have applied them and the round takes
their replies.
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

from repro.distributed import wire
from repro.distributed.coordinator import Coordinator, Zone
from repro.distributed.supervisor import Deadlines, WorkerSupervisor
from repro.distributed.worker import ZoneHost
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
                self._serve_connection(conn)
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

    def _serve_connection(self, conn: socket.socket) -> None:
        decoder = wire.FrameDecoder()
        while not self._stopping.is_set():
            try:
                chunk = conn.recv(65536)
            except OSError:
                return  # connection torn down (peer reset, or crash()/stop())
            if not chunk:
                return  # the coordinator hung up, and the zones go with it
            try:
                for frame in decoder.feed(chunk):
                    if not self._handle_frame(conn, frame):
                        return
            except (OSError, wire.WireError):
                return

    def _handle_frame(self, conn: socket.socket, data: bytes) -> bool:
        """Serve one message; False ends the connection (STOP/failure)."""
        msg_type = data[0] if data else 0
        if msg_type == wire.MSG_HELLO:
            conn.sendall(wire.encode_frame(wire.encode_hello_ack(self.name, os.getpid())))
            return True
        if msg_type == wire.MSG_PING:
            conn.sendall(wire.encode_frame(wire.encode_pong()))
            return True
        # a failure is reported like the pipe worker's (the traceback as
        # MSG_ERROR, resident state dropped) and ends the connection: the
        # coordinator dials again and rebuilds the zones here, or moves them
        reply, done = self._host.serve_bytes(data)
        if done and reply[0] != wire.MSG_ERROR:  # MSG_STOP
            self._stopping.set()
            try:
                self._listener.close()
            except OSError:
                pass
        conn.sendall(wire.encode_frame(reply))
        return not done

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
        checkpoint_interval: int | None = 50,
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
        try:
            self.supervisor = WorkerSupervisor(
                resolved[: len(zones)], deadlines or Deadlines(), metrics=metrics
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
