"""Remote zone workers over TCP: daemon, transport, and coordinator.

This is the pipe-based :mod:`repro.distributed.parallel` protocol lifted
onto sockets, so zones can run on other hosts (the distributed deployment
the paper's follow-up work describes).  Three pieces:

* :class:`WorkerDaemon` — the worker side.  Listens on a TCP port,
  answers the coordinator's ``MSG_INSTALL`` / ``MSG_EPOCH`` /
  ``MSG_RELEASE`` / ``MSG_ADOPT`` / ``MSG_QUERY`` requests against its
  resident zone substrates via the same
  :class:`~repro.distributed.worker.ZoneHost` core the pipe workers
  use — length-prefixed frames, compact struct payloads, no pickle on
  the hot path.  Requests arrive in sequence-numbered
  envelopes; the daemon remembers its recent replies, so a request it
  has already served (a coordinator retry after a lost reply) is
  answered from the cache instead of being applied twice —
  **exactly-once effect** on top of an at-least-once transport.
  ``spire-worker`` (the ``worker`` CLI subcommand) runs one standalone.

* :func:`spawn_worker_process` — launch a ``spire-worker`` daemon as a
  subprocess and parse the port it bound (for tests, benchmarks and CI).

* :class:`RemoteCoordinator` — the :class:`~repro.distributed.
  coordinator.Coordinator` over a pool of supervised TCP connections
  (:class:`~repro.distributed.supervisor.RemoteWorker`).  The epoch
  loop is the one every pool runs; what this pool brings is survival:
  lease/heartbeat checks at every epoch boundary, bounded retries
  under backoff for every request.  A worker declared dead is lost the
  way every pool loses one (DESIGN.md §9): its zones are rebuilt from
  checkpoint + request log — here onto the survivors, a daemon not
  being ours to restart — and shipped to their new home via the
  flat-array checkpoint codec.  The run degrades to fewer workers
  instead of aborting; only losing *every* worker raises
  :class:`~repro.distributed.supervisor.RemoteError`.

Determinism contract: the merged event stream is byte-identical to the
in-process coordinator's — with live workers, under any amount of
transport-level delay/drop/duplication absorbed by retries, and when a
worker dies, whether that is found *between* epochs (the EOF probe, a
missed lease) or *mid-epoch* (retries exhausted while requests were in
flight): the requests in flight were logged before they were sent, so
the rebuilt zones have applied them and the round takes their replies.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from typing import Iterable, Sequence

from repro.distributed import wire
from repro.distributed.coordinator import Coordinator, Zone
from repro.distributed.supervisor import RetryPolicy, WorkerSupervisor
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
    """One TCP zone worker: resident substrates behind a reply cache.

    Serves one coordinator connection at a time (reconnects are welcome —
    zone state survives them; that is the point).  Thread-safe against
    :meth:`stop` and :meth:`crash` closing its sockets from outside.

    Args:
        host/port: Bind address; port 0 picks a free port.
        name: Identity reported in the HELLO handshake.
        reply_cache: Replies remembered for retry deduplication.  Must
            comfortably exceed the coordinator's maximum in-flight
            request count (one epoch batch plus migration traffic); the
            default is far above it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str | None = None,
        reply_cache: int = 256,
    ) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(8)
        self.host, self.port = self._listener.getsockname()[:2]
        self.name = name or f"spire-worker-{os.getpid()}-{self.port}"
        self._cache_size = reply_cache
        self._host = ZoneHost()
        self._cache: OrderedDict[int, bytes] = OrderedDict()
        self._last_seq = 0
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
                return  # coordinator hung up; await the reconnect
            try:
                for frame in decoder.feed(chunk):
                    if not self._handle_frame(conn, frame):
                        return
            except (OSError, wire.WireError):
                return

    def _handle_frame(self, conn: socket.socket, data: bytes) -> bool:
        """Serve one envelope; False ends the serving loop (STOP/fatal)."""
        msg_type, seq, body = wire.decode_envelope(data)
        if msg_type == wire.MSG_HELLO:
            conn.sendall(
                wire.encode_frame(
                    wire.encode_hello_ack(self.name, os.getpid(), len(self._host.spires))
                )
            )
            return True
        if msg_type == wire.MSG_PING:
            conn.sendall(wire.encode_frame(wire.encode_pong(seq)))
            return True
        if msg_type != wire.MSG_REQUEST:
            raise wire.WireError(f"daemon got unexpected envelope type {msg_type}")
        if seq <= self._last_seq:
            # a retry of something already served: answer from the cache
            # (exactly-once effect); a stale retry beyond the cache means
            # the coordinator gave this request up long ago — drop it
            cached = self._cache.get(seq)
            if cached is not None:
                conn.sendall(wire.encode_frame(wire.encode_reply(seq, cached)))
            return True
        self._last_seq = seq
        # a failure is reported like the pipe worker's (the traceback as
        # MSG_ERROR, resident state dropped): the coordinator fails our
        # zones over to a survivor, and the daemon awaits a new connection
        reply, done = self._host.serve_bytes(body)
        self._remember(seq, reply)
        if done and reply[0] != wire.MSG_ERROR:  # MSG_STOP
            self._stopping.set()
            try:
                self._listener.close()
            except OSError:
                pass
        conn.sendall(wire.encode_frame(wire.encode_reply(seq, reply)))
        return not done

    def _remember(self, seq: int, reply: bytes) -> None:
        self._cache[seq] = reply
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

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
        """Simulate ``kill -9``: drop the sockets and lose all zone state.

        The coordinator's next probe or request finds the connection
        closed and the port refusing, declares the worker dead, and
        rebuilds its zones on the survivors.
        """
        self._host.spires.clear()
        self._cache.clear()
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
        text=True,
    )
    deadline = time.monotonic() + timeout
    banner = ""
    while time.monotonic() < deadline:
        banner = proc.stdout.readline()
        if "listening on" in banner:
            break
        if proc.poll() is not None:
            raise RuntimeError(f"spire-worker exited at startup: {banner!r}")
    else:
        proc.kill()
        raise RuntimeError("spire-worker did not report its address in time")
    address = parse_address(banner.rsplit(None, 1)[-1])
    return proc, address


# ---------------------------------------------------------------------------
# the remote coordinator
# ---------------------------------------------------------------------------


class RemoteCoordinator(Coordinator):
    """The coordinator over a pool of supervised TCP workers.

    Args:
        zones: The site partition, as for every coordinator.
        addresses: Worker daemon addresses (``"host:port"`` strings or
            ``(host, port)`` pairs).  Mutually exclusive with ``workers``.
        workers: Spawn this many in-process :class:`WorkerDaemon` threads
            on localhost TCP instead — same code path, no deployment
            (handy default; also what ``SpireSession`` uses).
        policy: :class:`RetryPolicy` deadlines/retries/lease parameters.
        checkpoint_interval: **Required** (must not be ``None``): the
            checkpoints are what worker failover rebuilds zones from.
        stop_workers_on_close: Send ``MSG_STOP`` to the daemons on
            :meth:`close`.  Default: only for self-spawned daemons —
            externally managed workers outlive their coordinators.

    Remaining arguments match :class:`Coordinator`.  A worker lost
    mid-run is not ours to resurrect: its zones are rebuilt on the
    survivors and the run continues.
    """

    def __init__(
        self,
        zones: Iterable[Zone],
        addresses: Sequence | None = None,
        workers: int | None = None,
        policy: RetryPolicy | None = None,
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
                resolved[: len(zones)], policy or RetryPolicy(), metrics=metrics
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
