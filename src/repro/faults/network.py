"""Seeded network fault injection for the remote worker transport.

The stream-level injector (:mod:`repro.faults.injector`) perturbs what
readers *report*; this module perturbs how coordinator and worker *talk*.
:class:`NetFaultProxy` sits between a :class:`~repro.distributed.remote.RemoteCoordinator`
and a worker daemon as a TCP shim that understands the wire framing
(:mod:`repro.distributed.wire`): it reassembles length-prefixed frames per
direction and then delays or blackholes whole frames according to a
seeded schedule, in the same ``{"kind": ..., ...}`` schedule format as
the stream faults (``docs/FAULTS.md``).  A live TCP connection never
hands the application a lost or duplicated frame, so those are not
faults this shim offers: a link either delivers, late, or goes silent.

Determinism: every decision comes from a ``random.Random`` seeded per
``(seed, direction)`` and is indexed by the **per-direction frame
counter**, not wall-clock time, so a given ``(schedule, seed)`` perturbs
the same frames on every run.  A delay inside the request deadline costs
time only; a partition that outlasts it loses the worker, whose zones
the coordinator rebuilds exactly — which is what the equivalence tests
assert.

:class:`WorkerCrash` rides in the same schedule lists but is applied by
the *driver* (the chaos CLI, a test), not the proxy: it names a worker to
kill outright at an epoch boundary.  :func:`split_net_schedule` separates
a mixed schedule into its stream, network and crash parts.
"""

from __future__ import annotations

import select
import socket
import threading
import time
from dataclasses import dataclass
from random import Random
from typing import Sequence

from repro.distributed import wire

__all__ = [
    "NetDelay",
    "NetPartition",
    "WorkerCrash",
    "NetFaultSpec",
    "NetFaultProxy",
    "split_net_schedule",
]


@dataclass(frozen=True)
class NetDelay:
    """Each frame in window ``[start, end)`` (per-direction frame index)
    is held ``seconds`` before forwarding, with probability ``rate``."""

    rate: float
    seconds: float = 0.05
    start: int = 0
    end: int | None = None


@dataclass(frozen=True)
class NetPartition:
    """Every frame with index in ``[start, start + duration)`` is
    blackholed in both directions.  A partition that swallows a request,
    its reply or a PONG loses the worker at the deadline, and it also
    swallows the redial's HELLO_ACK when that falls in the window."""

    start: int
    duration: int


@dataclass(frozen=True)
class WorkerCrash:
    """Kill worker ``worker`` at epoch ``at_epoch`` (driver-applied)."""

    worker: int
    at_epoch: int


NetFaultSpec = NetDelay | NetPartition

_NET_SPEC_TYPES = (NetDelay, NetPartition)


def split_net_schedule(schedule: Sequence) -> tuple[list, list, list]:
    """Split a mixed schedule into (stream specs, net specs, crashes).

    Lets one JSON schedule file drive reading-stream chaos, transport
    chaos and scripted worker crashes together; each consumer takes its
    slice (:class:`~repro.faults.injector.FaultInjector` also ignores
    spec types it does not know, so passing the full list there is safe).
    """
    stream_specs, net_specs, crashes = [], [], []
    for spec in schedule:
        if isinstance(spec, _NET_SPEC_TYPES):
            net_specs.append(spec)
        elif isinstance(spec, WorkerCrash):
            crashes.append(spec)
        else:
            stream_specs.append(spec)
    return stream_specs, net_specs, crashes


def _in_window(index: int, start: int, end: int | None) -> bool:
    return index >= start and (end is None or index < end)


class _Direction:
    """Per-direction fault state: frame counter plus a seeded RNG.

    The two directions of one proxied connection perturb independently
    (distinct seeds), matching how real asymmetric paths fail.
    """

    def __init__(self, label: str, schedule: Sequence[NetFaultSpec], seed: int) -> None:
        self.label = label
        self.schedule = schedule
        self.rng = Random((seed << 1) ^ (0 if label == "up" else 1))
        self.frames = 0

    def plan(self) -> float | None:
        """Fault decision for the next frame: seconds to hold it before
        forwarding, or ``None`` to blackhole it — deterministic in the
        frame index."""
        index = self.frames
        self.frames += 1
        delay = 0.0
        for spec in self.schedule:
            if isinstance(spec, NetPartition):
                if _in_window(index, spec.start, spec.start + spec.duration):
                    return None
            elif _in_window(index, spec.start, spec.end) and self.rng.random() < spec.rate:
                delay += spec.seconds
        return delay


class NetFaultProxy:
    """A frame-aware TCP shim injecting transport faults on one worker.

    Listens on its own port and forwards to ``upstream``; point the
    coordinator at :attr:`address` instead of the daemon.  Each accepted
    connection gets two forwarder threads (one per direction) that
    reassemble frames and apply the schedule frame-by-frame.  A redial
    after a lost worker opens a fresh connection through the same proxy;
    the per-direction frame counters and RNGs are **proxy-global**, so the
    fault pattern keeps advancing across connections instead of replaying.
    """

    def __init__(
        self,
        upstream: tuple[str, int],
        schedule: Sequence[NetFaultSpec],
        seed: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.upstream = upstream
        self._up = _Direction("up", list(schedule), seed)
        self._down = _Direction("down", list(schedule), seed)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(8)
        self.host, self.port = self._listener.getsockname()[:2]
        self._stopping = threading.Event()
        self._lock = threading.Lock()  # serializes fault decisions per direction
        self._threads: list[threading.Thread] = []
        self._socks: list[socket.socket] = []
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"net-proxy-{self.port}", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                client, _peer = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            try:
                server = socket.create_connection(self.upstream, timeout=5)
            except OSError:
                client.close()
                continue
            for sock in (client, server):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._socks += [client, server]
            pair = [
                threading.Thread(
                    target=self._pump, args=(client, server, self._up), daemon=True
                ),
                threading.Thread(
                    target=self._pump, args=(server, client, self._down), daemon=True
                ),
            ]
            for thread in pair:
                thread.start()
            self._threads += pair

    def _pump(self, source: socket.socket, sink: socket.socket, direction: _Direction) -> None:
        """Forward one direction frame-by-frame until either side closes."""
        decoder = wire.FrameDecoder()
        try:
            while not self._stopping.is_set():
                # ValueError: the socket was closed under us (fd == -1)
                readable, _, _ = select.select([source], [], [], 0.25)
                if not readable:
                    continue
                chunk = source.recv(65536)
                if not chunk:
                    break
                for frame in decoder.feed(chunk):
                    with self._lock:
                        delay = direction.plan()
                    if delay is None:
                        continue
                    if delay > 0:
                        time.sleep(delay)
                    sink.sendall(wire.encode_frame(frame))
        except (OSError, ValueError, wire.WireError):
            pass
        finally:
            # half-close propagation: a dead direction kills the pair, so
            # both endpoints see the hangup.
            # shutdown() first: the other direction's select() holds a
            # reference, so close() alone would send no FIN until it wakes
            for sock in (source, sink):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass

    def stop(self) -> None:
        self._stopping.set()
        with self._lock:
            socks = [self._listener, *self._socks]
        for sock in socks:
            # shutdown() first: the accept/forwarder threads hold
            # references, so close() alone would not wake them
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self._thread.join(timeout=5)
        for thread in self._threads:
            thread.join(timeout=5)

    def __enter__(self) -> "NetFaultProxy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# JSON schedule registration
# ---------------------------------------------------------------------------

# ``schedule_from_dict`` accepts the transport kinds alongside the stream
# kinds, so one schedule file drives both layers; the registration lives
# here (not in injector.py) to keep the injector import-light
from repro.faults import injector as _injector  # noqa: E402

_injector._KIND_TO_SPEC.update(
    {
        "net_delay": NetDelay,
        "net_partition": NetPartition,
        "worker_crash": WorkerCrash,
    }
)
