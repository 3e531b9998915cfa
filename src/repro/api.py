"""The unified public API: one session object over every execution mode.

:class:`SpireSession` is the front door to the substrate.  It wraps the
execution engines — an in-process :class:`~repro.core.pipeline.Spire`, or
a zone-sharded :class:`~repro.distributed.coordinator.Coordinator` whose
zones run in this process, in a pool of worker processes
(:class:`~repro.distributed.parallel.ParallelCoordinator`) or on TCP
worker daemons (:class:`~repro.distributed.remote.RemoteCoordinator`)
— behind one constructor driven by a :class:`SpireConfig`, and threads the
cross-cutting concerns (resilient ingestion, checkpointing, telemetry,
trace logging, TCP serving) through whichever engine the config selects:

    >>> from repro import SpireConfig, SpireSession           # doctest: +SKIP
    >>> config = SpireConfig.from_simulation(sim, metrics=True)
    >>> with SpireSession(config) as session:
    ...     results = session.process(sim.stream)
    ...     print(session.render_metrics())

The session is how the package's own front ends run the substrate: the
benchmark and every ``repro-spire`` subcommand that runs SPIRE build one
from a config.  The one exception is ``chaos --remote-workers``, whose
network-fault proxies a config cannot express.  The engines it composes
stay public for library use; ``tests/test_api.py`` pins the session's
output equal to theirs per mode.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Awaitable, Callable, Iterable, Mapping, Sequence

from repro.core.checkpoint import dumps_spire
from repro.core.params import InferenceParams
from repro.core.pipeline import Deployment, Spire
from repro.distributed.coordinator import Coordinator, Zone, partition_by_location
from repro.distributed.parallel import ParallelCoordinator
from repro.faults.resilient import ResilientStream
from repro.model.locations import LocationRegistry
from repro.obs.metrics import (
    MetricRegistry,
    merge_snapshots,
    render_prometheus,
)
from repro.obs.trace import TraceLog
from repro.readers.reader import Reader
from repro.readers.stream import EpochReadings
from repro.serving.engine import StandingQueryEngine
from repro.serving.patterns import Notification, Pattern, PatternSpec, pattern_from_spec
from repro.serving.server import SpireServer, pump_coordinator

if TYPE_CHECKING:
    from repro.events.messages import EventMessage
    from repro.model.objects import TagId

__all__ = ["SessionSubscription", "SpireConfig", "SpireSession"]


class SessionSubscription:
    """In-process mirror of the client's subscription handle.

    Returned by :meth:`SpireSession.subscribe` — same surface as
    :class:`~repro.serving.client.ClientSubscription` (``.id``,
    ``.pattern``, ``.next()``, ``.cancel()``) minus the network:
    notifications appear as the session processes epochs, so ``next()``
    never blocks (it returns ``None`` when nothing is queued; the
    ``timeout`` parameter exists only for surface symmetry).
    """

    def __init__(self, session: "SpireSession", sub_id: int, pattern) -> None:
        self._session = session
        self.id = sub_id
        #: whatever was passed to subscribe(): spec, Pattern, or source text
        self.pattern = pattern
        self.cancelled = False

    def next(self, timeout: float | None = None) -> "Notification | None":
        """Pop the next queued notification, or ``None`` if empty."""
        del timeout  # in-process: nothing to wait on
        notes = self._session.serving_engine.drain(self.id, limit=1)
        return notes[0] if notes else None

    def drain(self, limit: int | None = None) -> "list[Notification]":
        """Pop up to ``limit`` queued notifications."""
        return self._session.serving_engine.drain(self.id, limit)

    def pending(self) -> int:
        """Notifications currently queued."""
        sub = self._session.serving_engine.subscriptions.get(self.id)
        return len(sub.queue) if sub is not None else 0

    def cancel(self) -> bool:
        """Unsubscribe; returns whether the subscription still existed."""
        if self.cancelled:
            return False
        self.cancelled = True
        return self._session.serving_engine.unsubscribe(self.id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "live"
        return f"SessionSubscription(id={self.id}, {state})"


@dataclass
class SpireConfig:
    """Everything a :class:`SpireSession` needs, in one place.

    Attributes:
        readers: The deployment's readers (non-empty).
        registry: Location registry the readers reference (optional; a
            minimal one is derived from the readers when omitted).
        params: Inference parameters (paper defaults when ``None``).
        compression_level: Output compression level (1 or 2).
        zone_map: ``zone id -> location names`` partition.  ``None`` runs
            a single substrate (or a single ``site`` zone under workers).
        workers: ``None`` stays in-process; an integer spawns that many
            persistent worker processes (:class:`ParallelCoordinator`).
            With ``checkpoint_interval`` set, a worker that dies is
            respawned and its zones rebuilt from checkpoint + request log
            inside the epoch that finds out: the stream is that of a run
            in which nothing died, and ``worker_lost`` / ``zone_rehomed``
            warnings in the result are the one trace (no exception);
            without it a lost worker raises ``WireError``.
        remote_workers: Run the zones on this many localhost TCP worker
            daemons instead
            (:class:`~repro.distributed.remote.RemoteCoordinator`);
            mutually exclusive with ``workers``.  A broken or silent
            connection is a lost worker, rebuilt the same way on a fresh
            connection or on the survivors, so remote mode always
            checkpoints: a ``None`` ``checkpoint_interval`` defaults to
            50 here.  Deadlines are
            :class:`~repro.distributed.supervisor.Deadlines`' defaults.
        strict: Raise on readings from unmapped readers instead of
            quarantining them.
        resilient: Wrap input streams in a :class:`ResilientStream`
            (re-sequencing, dedup, gap synthesis) before processing.
        max_delay: Watermark lag for the resilient wrapper, in epochs.
        checkpoint_interval: Checkpoint zones every N epochs, enabling
            ``fail_zone`` / ``recover_zone``.  ``None`` disables failover.
        host / port: Bind address for :meth:`SpireSession.serve`
            (port 0 = ephemeral).
        expand_level2: Serve patterns over level-2-expanded streams.
        evict_after: Serving backpressure tier 2 — evict a subscription
            after this many consecutive overflowing epochs (0 disables;
            drop-oldest alone then applies).
        metrics: Enable the telemetry substrate (:mod:`repro.obs`).
        trace_path: Write per-epoch span records (JSONL) here.  Not
            supported with ``workers`` (spans live in worker processes).
    """

    readers: Sequence[Reader] = ()
    registry: LocationRegistry | None = None
    params: InferenceParams | None = None
    compression_level: int = 2
    zone_map: Mapping[str, Sequence[str]] | None = None
    workers: int | None = None
    remote_workers: int | None = None
    strict: bool = False
    resilient: bool = False
    max_delay: int = 0
    checkpoint_interval: int | None = None
    host: str = "127.0.0.1"
    port: int = 0
    expand_level2: bool = True
    evict_after: int = 0
    metrics: bool = False
    trace_path: str | os.PathLike | None = None

    @classmethod
    def from_simulation(cls, sim, **overrides) -> "SpireConfig":
        """Config over a :class:`~repro.simulator.warehouse.SimulationResult`."""
        config = cls(readers=list(sim.layout.readers), registry=sim.layout.registry)
        return replace(config, **overrides) if overrides else config

    def with_overrides(self, **overrides) -> "SpireConfig":
        return replace(self, **overrides) if overrides else self


class _ZoneTrace:
    """Forwards span records to a shared :class:`TraceLog`, zone-tagged."""

    __slots__ = ("_trace", "_zone_id")

    def __init__(self, trace: TraceLog, zone_id: str) -> None:
        self._trace = trace
        self._zone_id = zone_id

    def epoch(self, epoch: int, spans: Mapping[str, float], **fields) -> None:
        self._trace.epoch(epoch, spans, zone=self._zone_id, **fields)


class SpireSession:
    """One running instance of the substrate, whatever its shape.

    The execution mode follows from the config:

    * ``remote_workers`` set — supervised TCP worker daemons
      (:class:`~repro.distributed.remote.RemoteCoordinator`) over the
      zone map (a single ``site`` zone when no map is given);
    * ``workers`` set — multi-process :class:`ParallelCoordinator`;
    * ``zone_map`` set (no workers) — serial :class:`Coordinator`;
    * none of those — a plain in-process :class:`Spire`.

    Use as a context manager (or call :meth:`close`) so worker processes
    and trace files are released deterministically.
    """

    def __init__(self, config: SpireConfig) -> None:
        readers = list(config.readers)
        if not readers:
            raise ValueError("SpireConfig.readers must be non-empty")
        if config.workers is not None and config.remote_workers is not None:
            raise ValueError("workers and remote_workers are mutually exclusive")
        if config.trace_path is not None and (
            config.workers is not None or config.remote_workers is not None
        ):
            raise ValueError(
                "trace_path is not supported with workers: span timings "
                "live in worker processes (use metrics instead)"
            )
        self.config = config
        self.registry = config.registry
        self.metrics: MetricRegistry | None = (
            MetricRegistry() if config.metrics else None
        )
        self.trace: TraceLog | None = (
            TraceLog(config.trace_path) if config.trace_path is not None else None
        )
        self._serving: StandingQueryEngine | None = None
        self._closed = False

        sharded = (
            config.workers is not None
            or config.remote_workers is not None
            or config.zone_map is not None
        )
        if sharded:
            if config.zone_map is not None:
                zones = partition_by_location(
                    readers,
                    config.zone_map,
                    config.registry,
                    params=config.params,
                    compression_level=config.compression_level,
                )
            else:
                zones = [
                    Zone.build(
                        "site",
                        readers,
                        config.registry,
                        params=config.params,
                        compression_level=config.compression_level,
                    )
                ]
            common = dict(
                strict=config.strict,
                checkpoint_interval=config.checkpoint_interval,
                metrics=self.metrics,
            )
            if config.remote_workers is not None:
                from repro.distributed import RemoteCoordinator

                if config.checkpoint_interval is None:
                    common["checkpoint_interval"] = 50
                self.coordinator: Coordinator | None = RemoteCoordinator(
                    zones, workers=config.remote_workers, **common
                )
            elif config.workers is not None:
                self.coordinator = ParallelCoordinator(zones, workers=config.workers, **common)
            else:
                self.coordinator = Coordinator(zones, **common)
                if self.trace is not None:
                    for zone_id, zone in self.coordinator.zones.items():
                        zone.spire.attach_trace(_ZoneTrace(self.trace, zone_id))
            self.spire: Spire | None = None
        else:
            deployment = Deployment.from_readers(readers, config.registry)
            self.spire = Spire(
                deployment,
                config.params,
                compression_level=config.compression_level,
                metrics=self.metrics,
                trace=self.trace,
            )
            self.coordinator = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def mode(self) -> str:
        """``"local"``, ``"serial"``, ``"parallel"`` or ``"remote"``."""
        if self.spire is not None:
            return "local"
        if self.config.remote_workers is not None:
            return "remote"
        return "parallel" if self.config.workers is not None else "serial"

    @property
    def engine(self):
        """The underlying engine (a ``Spire`` or a coordinator)."""
        return self.spire if self.spire is not None else self.coordinator

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.coordinator is not None:
            self.coordinator.close()
        if self.trace is not None:
            self.trace.close()

    def __enter__(self) -> "SpireSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # processing
    # ------------------------------------------------------------------

    def ingest(self, stream: Iterable[EpochReadings]) -> Iterable[EpochReadings]:
        """Apply the config's ingestion policy to a raw stream."""
        if not self.config.resilient:
            return stream
        return ResilientStream(
            stream,
            max_delay=self.config.max_delay,
            known_readers=[r.reader_id for r in self.config.readers],
            metrics=self.metrics,
        )

    def process_epoch(self, readings: EpochReadings):
        """Process one epoch; returns the engine's per-epoch result.

        When the session has a serving engine (a subscription was opened
        or :meth:`serve` was called), the epoch's messages are also
        published to it, so in-process subscriptions and the live query
        index stay current without a TCP pump.
        """
        result = self.engine.process_epoch(readings)
        if self._serving is not None:
            self._serving.publish(result.epoch, list(result.messages))
        return result

    def process(self, stream: Iterable[EpochReadings]) -> list:
        """Run a whole stream; returns the list of per-epoch results.

        Every result has ``.epoch`` and ``.messages`` regardless of mode
        (:class:`~repro.core.pipeline.EpochOutput` locally,
        :class:`~repro.distributed.coordinator.EpochResult` sharded).
        """
        return [self.process_epoch(readings) for readings in self.ingest(stream)]

    # ------------------------------------------------------------------
    # queries (site-wide in sharded modes)
    # ------------------------------------------------------------------

    def location_of(self, tag: "TagId") -> int:
        return self.engine.location_of(tag)

    def container_of(self, tag: "TagId") -> "TagId | None":
        return self.engine.container_of(tag)

    def owner_of(self, tag: "TagId") -> str | None:
        """Owning zone id (``None`` when untracked; ``"site"``-like in local mode)."""
        if self.coordinator is not None:
            return self.coordinator.owner_of(tag)
        assert self.spire is not None
        return "local" if tag in self.spire.estimates else None

    # ------------------------------------------------------------------
    # fault operations / checkpointing
    # ------------------------------------------------------------------

    def fail_zone(self, zone_id: str, at: int | None = None) -> "list[EventMessage]":
        if self.coordinator is None:
            raise ValueError("fail_zone requires a sharded session (zone_map or workers)")
        return self.coordinator.fail_zone(zone_id, at=at)

    def recover_zone(self, zone_id: str, at: int | None = None) -> "list[EventMessage]":
        if self.coordinator is None:
            raise ValueError("recover_zone requires a sharded session (zone_map or workers)")
        return self.coordinator.recover_zone(zone_id, at=at)

    def checkpoint(self) -> dict[str, bytes]:
        """Portable state snapshots by zone (``{"local": ...}`` in local mode).

        Substrates living in this process are serialized on the spot; a
        session whose zones live in workers returns the coordinator's
        most recent captured checkpoints (requires ``checkpoint_interval``).
        """
        if self.spire is not None:
            return {"local": dumps_spire(self.spire)}
        assert self.coordinator is not None
        live = {
            zone_id: dumps_spire(zone.spire)
            for zone_id, zone in self.coordinator.zones.items()
            if zone.spire is not None
        }
        stored = live or self.coordinator.latest_checkpoints()
        if not stored:
            raise ValueError(
                "a parallel session checkpoints in its workers; construct "
                "with checkpoint_interval=N to capture them"
            )
        return stored

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------

    @property
    def serving_engine(self) -> StandingQueryEngine:
        """The session's standing-query engine (created on first use).

        Shared between in-process subscriptions (:meth:`subscribe`) and
        the TCP front-end (:meth:`serve`), so both see the same live
        index and fan-out tree.
        """
        if self._serving is None:
            self._serving = StandingQueryEngine(
                expand_level2=self.config.expand_level2,
                evict_after=self.config.evict_after,
            )
        return self._serving

    def subscribe(self, pattern, max_queue: int = 1024) -> SessionSubscription:
        """Register an in-process standing query; returns its handle.

        The same surface as :meth:`SpireClient.subscribe
        <repro.serving.client.SpireClient.subscribe>`: ``pattern`` may be
        SASE pattern source text, a legacy
        :class:`~repro.serving.patterns.PatternSpec`, or a
        :class:`~repro.serving.patterns.Pattern` instance.  Notifications
        accumulate as the session processes epochs; consume them with the
        handle's ``next()``/``drain()``.
        """
        if isinstance(pattern, str):
            from repro.sase import compile_pattern

            instance: Pattern = compile_pattern(pattern)
        elif isinstance(pattern, PatternSpec):
            instance = pattern_from_spec(pattern)
        elif isinstance(pattern, Pattern):
            instance = pattern
        else:
            raise TypeError(
                f"subscribe() wants pattern source text, a PatternSpec, or a "
                f"Pattern; got {type(pattern).__name__}"
            )
        sub = self.serving_engine.subscribe(instance, max_queue=max_queue)
        return SessionSubscription(self, sub.sub_id, pattern)

    def serve(self) -> SpireServer:
        """A TCP front-end over this session (not yet started).

        Use ``async with session.serve() as server:`` then
        :meth:`pump` to drive a stream through it while clients query.
        The server shares the session's :attr:`serving_engine`, so
        in-process and TCP subscriptions fan out from the same tree.
        """
        return SpireServer(
            host=self.config.host,
            port=self.config.port,
            engine=self.serving_engine,
            metrics_provider=self.metrics_snapshot if self.metrics is not None else None,
        )

    async def pump(
        self,
        server: SpireServer,
        stream: Iterable[EpochReadings],
        actions: "dict[int, Callable[[], list[EventMessage]]] | None" = None,
        epoch_interval: float = 0.0,
        on_epoch: "Callable[[int, int], Awaitable[None] | None] | None" = None,
    ) -> int:
        """Drive a stream through this session into a running server.

        ``server`` is what :meth:`serve` returned, or another front-end
        with the same ``publish_epoch`` / ``metrics_provider`` surface
        (``repro-spire serve --acceptors`` pumps a
        :class:`~repro.serving.frontend.MultiProcessFrontend`).
        """
        return await pump_coordinator(
            server,
            self.engine,
            self.ingest(stream),
            actions=actions,
            epoch_interval=epoch_interval,
            on_epoch=on_epoch,
        )

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Merged obs snapshot across the session (empty when disabled)."""
        if self.metrics is None:
            return {"series": [], "help": {}}
        if self.coordinator is not None:
            return self.coordinator.metrics_snapshot()
        return merge_snapshots([self.metrics.snapshot()])

    def render_metrics(self) -> str:
        """The session's telemetry as Prometheus text exposition."""
        return render_prometheus(self.metrics_snapshot())
