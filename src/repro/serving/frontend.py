"""Multi-process serving front-end: SO_REUSEPORT acceptors + uvloop.

One asyncio process tops out well below "tens of thousands of
subscribers" on connection handling alone, so the front-end scales the
*accept/push* side horizontally: :class:`MultiProcessFrontend` spawns N
acceptor processes that all bind the same ``host:port`` with
``SO_REUSEPORT`` (the kernel load-balances incoming connections across
them).  Each acceptor runs a full :class:`~repro.serving.server.SpireServer`
over its own **deterministic engine replica**: the parent broadcasts
every published epoch to every acceptor over a pipe, in lockstep
(ack-per-epoch), so all replicas hold identical live indexes and any
acceptor answers any query or subscription identically — the same
replica-determinism argument the parallel coordinator's byte-identical
merge relies on.

The frontend is duck-compatible with the single-process server where the
pump cares: ``await publish_epoch(epoch, messages)`` and a
``metrics_provider`` attribute, so
:func:`repro.serving.server.pump_coordinator` drives it unchanged.

:func:`try_install_uvloop` upgrades the event loop policy when uvloop is
importable — it is an optional dependency and its absence is never an
error (the container this repo targets does not ship it).
"""

from __future__ import annotations

import asyncio
import multiprocessing
from typing import Callable

from repro.events.messages import EventMessage


def try_install_uvloop() -> bool:
    """Install the uvloop event-loop policy if uvloop is importable.

    Returns whether uvloop is now the policy.  Safe to call anywhere
    before a loop is created; a missing uvloop leaves the default policy
    untouched.
    """
    try:
        import uvloop  # type: ignore[import-not-found]
    except ImportError:
        return False
    asyncio.set_event_loop_policy(uvloop.EventLoopPolicy())
    return True


async def _acceptor_serve(conn, host: str, port: int, expand_level2: bool, evict_after: int) -> None:
    from repro.serving.server import SpireServer

    server = SpireServer(
        host=host,
        port=port,
        expand_level2=expand_level2,
        evict_after=evict_after,
        reuse_port=True,
    )
    await server.start()
    conn.send(("ready", server.port))
    loop = asyncio.get_running_loop()
    try:
        while True:
            # pipe reads are blocking; park them on an executor thread so
            # this acceptor keeps serving its connections between epochs
            msg = await loop.run_in_executor(None, conn.recv)
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "epoch":
                _, epoch, messages = msg
                await server.publish_epoch(epoch, messages)
                conn.send(("ack", epoch))
    except (EOFError, OSError):
        pass
    finally:
        stats = server.stats_dict()
        await server.close()
        try:
            conn.send(("stopped", stats))
        except (BrokenPipeError, OSError):
            pass


def _acceptor_main(conn, host: str, port: int, expand_level2: bool, evict_after: int, use_uvloop: bool) -> None:
    if use_uvloop:
        try_install_uvloop()
    asyncio.run(_acceptor_serve(conn, host, port, expand_level2, evict_after))


class MultiProcessFrontend:
    """N SO_REUSEPORT acceptor processes over replicated engines.

    Args:
        host/port: Bind address; port 0 picks an ephemeral port (the
            first acceptor binds, the rest join it via SO_REUSEPORT).
        acceptors: Number of acceptor processes.
        expand_level2 / evict_after: Forwarded to each acceptor's engine.
            A negative ``evict_after`` raises ``ValueError`` here.
        use_uvloop: Ask each acceptor to install uvloop when importable.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        acceptors: int = 2,
        expand_level2: bool = True,
        evict_after: int = 0,
        use_uvloop: bool = False,
    ) -> None:
        if acceptors < 1:
            raise ValueError(f"acceptors must be >= 1, got {acceptors}")
        # checked here: each acceptor builds its engine in a child process,
        # where the engine's own ValueError would be lost
        if evict_after < 0:
            raise ValueError(
                f"evict_after must be >= 0 (0 disables eviction), got {evict_after}"
            )
        self.host = host
        self.port = port
        self.acceptors = acceptors
        self.expand_level2 = expand_level2
        self.evict_after = evict_after
        self.use_uvloop = use_uvloop
        #: pump_coordinator compatibility (the substrate snapshot is not
        #: forwarded to acceptor processes; their METRICS replies cover
        #: their own serving counters only)
        self.metrics_provider: Callable[[], dict] | None = None
        self.epochs_published = 0
        #: per-acceptor stats_dict() collected at close()
        self.final_stats: list[dict] = []
        self._procs: list[multiprocessing.Process] = []
        self._conns: list = []

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        for i in range(self.acceptors):
            parent_conn, child_conn = multiprocessing.Pipe()
            proc = multiprocessing.Process(
                target=_acceptor_main,
                args=(
                    child_conn,
                    self.host,
                    self.port,
                    self.expand_level2,
                    self.evict_after,
                    self.use_uvloop,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            kind, bound_port = await loop.run_in_executor(None, parent_conn.recv)
            if kind != "ready":  # pragma: no cover - defensive
                raise RuntimeError(f"acceptor {i} failed to start: {kind}")
            # the first acceptor resolves an ephemeral port; the rest must
            # join exactly that port for SO_REUSEPORT balancing
            self.port = bound_port
            self._procs.append(proc)
            self._conns.append(parent_conn)

    async def publish_epoch(self, epoch: int, messages: list[EventMessage]) -> int:
        """Broadcast one epoch to every acceptor replica, in lockstep.

        Waits for every acceptor's ack so replicas can never drift apart
        (the ack doubles as backpressure on the pump).
        """
        loop = asyncio.get_running_loop()
        payload = ("epoch", epoch, list(messages))
        for conn in self._conns:
            conn.send(payload)
        acks = await asyncio.gather(
            *(loop.run_in_executor(None, conn.recv) for conn in self._conns)
        )
        for kind, acked in acks:
            if kind != "ack" or acked != epoch:  # pragma: no cover - defensive
                raise RuntimeError(f"acceptor desync: expected ack {epoch}, got {kind} {acked}")
        self.epochs_published += 1
        return 0

    async def close(self) -> None:
        loop = asyncio.get_running_loop()
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            try:
                kind, stats = await loop.run_in_executor(None, conn.recv)
                if kind == "stopped":
                    self.final_stats.append(stats)
            except (EOFError, OSError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5)
        self._procs.clear()
        self._conns.clear()

    async def __aenter__(self) -> "MultiProcessFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def stats_dict(self) -> dict:
        """Aggregate acceptor counters (available after :meth:`close`)."""
        totals: dict = {"acceptors": len(self.final_stats) or self.acceptors}
        for stats in self.final_stats:
            for key, value in stats.items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0) + value
        return totals
