"""Zone coordinator: routing, handoff, failover, and output merging.

A :class:`Zone` owns a disjoint subset of the site's readers and runs its
own substrate; the :class:`Coordinator` is the only component that sees
the whole site:

* **routing** — each epoch's (globally deduplicated) readings are split by
  reader ownership and sent to the owning zones; readings from readers no
  zone owns are quarantined with a structured warning (or raise, in
  ``strict`` mode);
* **ownership & handoff** — every tag is owned by the zone that observed
  it most recently; when a tag shows up in a different zone, the old owner
  *releases* it (closing its output intervals and exporting its
  observation memory and confirmations) and the new owner *adopts* it, so
  containment knowledge survives the migration;
* **merging** — the release messages and the zones' per-epoch outputs are
  concatenated (releases first, then zones in sorted-id order) into one
  stream that stays well-formed per object, because an object's messages
  always come from its current owner and the old owner's intervals are
  closed before the new owner opens any.  Replies are *collected* in
  the order workers finish (:meth:`Coordinator._gather`), so decoding
  one worker's reply overlaps another's compute, but they are stored by
  submission position and merged in this fixed order;
* **failover** — with ``checkpoint_interval`` set, every zone checkpoints
  itself periodically (a flag on the epoch request; the bytes come back
  with the reply) and the coordinator keeps the zone's *request log* since
  that checkpoint: the release, adopt and epoch requests themselves, in
  the order they were submitted.  Checkpoint + log replay reproduces the
  zone's state — and the reply to its last request — exactly, and it is
  the one way a zone is ever rebuilt.  Losing a *worker* — at an epoch
  boundary, with a request in flight, or to a reply that does not
  decode — costs time only: its zones are rebuilt at a live home, the
  round takes the rebuilt zones' last replies in place of the lost ones,
  and the stream, handoffs, ownership and query answers are those of a
  run in which nothing died — the loss shows in the epoch's warnings
  alone.  :meth:`Coordinator.fail_zone` /
  :meth:`Coordinator.recover_zone` script an *outage* around the same
  rebuild: intervals closed at fail time, re-opened at recovery, so the
  merged stream stays well-formed and no tag is left permanently
  orphaned.

Where a zone *runs* is not the coordinator's business: zone state lives
behind worker handles (:mod:`repro.distributed.worker`) — one in-process
worker by default, a pool of processes or TCP daemons when a subclass
constructor supplies one — and every pool runs this one epoch loop,
migration protocol and failover path (DESIGN.md §9).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from time import perf_counter
from typing import Iterable, Mapping, Sequence

from repro.compression.level1 import RangeCompressor
from repro.compression.level2 import ContainmentCompressor
from repro.core.checkpoint import dumps_spire
from repro.core.params import InferenceParams
from repro.core.pipeline import Deployment, Spire
from repro.distributed import wire
from repro.distributed.supervisor import Deadlines, RemoteError
from repro.distributed.worker import (
    LOST_WORKER_ERRORS,
    InProcessWorker,
    WorkerStats,
    ZoneHost,
    loss_reason,
)
from repro.events.messages import EventMessage
from repro.faults.warnings import IngestWarning, Quarantine, WarningKind
from repro.model.locations import UNKNOWN_COLOR, LocationRegistry
from repro.model.objects import TagId
from repro.obs.metrics import MetricRegistry, merge_snapshots
from repro.readers.dedup import Deduplicator
from repro.readers.reader import Reader
from repro.readers.stream import EpochReadings

#: portable knowledge exported at handoff (see ``Spire.release``)
HandoffRecord = dict

#: the checkpoint interval wherever failover is on and the caller picks none
DEFAULT_CHECKPOINT_INTERVAL = 50


@dataclass
class Zone:
    """One partition of the site: a named substrate over some readers."""

    zone_id: str
    spire: Spire
    reader_ids: frozenset[int]

    @classmethod
    def build(
        cls,
        zone_id: str,
        readers: Iterable[Reader],
        registry: LocationRegistry | None = None,
        params: InferenceParams | None = None,
        compression_level: int = 2,
    ) -> "Zone":
        readers = list(readers)
        deployment = Deployment.from_readers(readers, registry)
        return cls(
            zone_id=zone_id,
            spire=Spire(deployment, params, compression_level=compression_level),
            reader_ids=frozenset(r.reader_id for r in readers),
        )


@dataclass
class EpochResult:
    """What one coordinated epoch produced."""

    epoch: int
    messages: list[EventMessage]
    handoffs: list[tuple[TagId, str, str]] = field(default_factory=list)  # (tag, from, to)
    #: structured warnings recorded this epoch (quarantined readings etc.)
    warnings: list[IngestWarning] = field(default_factory=list)


@dataclass
class _ZoneCheckpoint:
    """Last persisted state of one zone (in-memory; bytes are portable)
    and what the zone was asked to do since."""

    epoch: int | None  # None = pristine pre-stream state
    data: bytes
    #: the zone registry's snapshot at checkpoint time — checkpoints never
    #: serialize registries, so this is what re-seeds a rebuilt zone's
    #: counters (otherwise failover would silently zero them)
    metrics: dict | None = None
    #: the request log: every ``MSG_RELEASE`` / ``MSG_ADOPT`` / ``MSG_EPOCH``
    #: request submitted for the zone since (zone index 0), a failed
    #: zone's withheld readings included
    log: list[tuple] = field(default_factory=list)
    epochs_logged: int = 0  #: the ``MSG_EPOCH`` requests among them


class Coordinator:
    """Routes readings to zones and keeps the global view consistent.

    Args:
        zones: The site partition (non-empty, disjoint reader sets).
        strict: When True, a reading from a reader owned by no zone raises
            ``KeyError`` (the historical behavior); when False (default)
            the reading is quarantined with a structured warning.
        checkpoint_interval: Checkpoint every zone after this many epochs,
            enabling :meth:`fail_zone` / :meth:`recover_zone`.  ``None``
            (default) disables failover bookkeeping entirely.
        metrics: Optional :class:`repro.obs.MetricRegistry` for the
            coordinator's own counters (epochs, handoffs, checkpoints,
            quarantine).  When set, every zone additionally gets its own
            registry labelled ``zone=<id>``; :meth:`metrics_snapshot`
            merges them all.  ``None`` (default) disables telemetry.

    Zones run in this process, and ``zones[z].spire`` stays the live
    substrate, unless a subclass constructor supplied a worker pool.
    """

    #: the worker pool; a subclass constructor fills these in *before*
    #: calling ``__init__``, which otherwise uses one in-process worker
    _workers: Sequence = ()
    _daemons: Sequence = ()  #: worker daemons spawned for the pool, stopped on close
    supervisor = None  #: the pool's lease/heartbeat view, when it has one
    deadlines = Deadlines()  #: what each fan-in round and worker read waits under
    _stop_on_close = True
    _closed = False

    def __init__(
        self,
        zones: Iterable[Zone],
        strict: bool = False,
        checkpoint_interval: int | None = None,
        metrics: MetricRegistry | None = None,
    ) -> None:
        # bound first, so that close() works on whatever a failed
        # construction leaves behind
        self.stats = WorkerStats()
        if not self._workers:
            self._workers = [InProcessWorker()]
        for worker in self._workers:
            worker.stats = self.stats

        self.zones: dict[str, Zone] = {}
        self._zone_of_reader: dict[int, str] = {}
        for zone in zones:
            if zone.zone_id in self.zones:
                raise ValueError(f"duplicate zone id {zone.zone_id!r}")
            self.zones[zone.zone_id] = zone
            for reader_id in zone.reader_ids:
                if reader_id in self._zone_of_reader:
                    raise ValueError(
                        f"reader {reader_id} assigned to both "
                        f"{self._zone_of_reader[reader_id]!r} and {zone.zone_id!r}"
                    )
                self._zone_of_reader[reader_id] = zone.zone_id
        if not self.zones:
            raise ValueError("a coordinator needs at least one zone")
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError(f"checkpoint_interval must be >= 1, got {checkpoint_interval}")
        self.strict = strict
        self.quarantine = Quarantine()
        self._owner: dict[TagId, str] = {}
        self._dedup = Deduplicator()
        self._last_epoch: int | None = None

        self.metrics = metrics if metrics is not None and metrics.enabled else None
        #: per zone, its metrics as last shipped: the live registry when the
        #: worker is this process, else the cumulative snapshot from its
        #: latest reply (replaced every epoch — never summed)
        self._zone_metrics: dict[str, MetricRegistry | dict] = {}
        if self.metrics is not None:
            self.quarantine.attach_metrics(self.metrics)
            self._m_epochs = self.metrics.counter(
                "spire_coordinator_epochs_total", "Epochs coordinated across zones"
            )
            self._m_handoffs = self.metrics.counter(
                "spire_handoffs_total", "Tag migrations between zones"
            )
            self._m_checkpoints = self.metrics.counter(
                "spire_checkpoints_total", "Zone checkpoints captured"
            )
            self._m_checkpoint_seconds = self.metrics.histogram(
                "spire_checkpoint_seconds", "Zone checkpoint serialization wall time"
            )
            self._m_failed = self.metrics.gauge(
                "spire_failed_zones", "Zones currently marked failed"
            )

        # failover bookkeeping (only when enabled)
        self._checkpoint_interval = checkpoint_interval
        self._failed: set[str] = set()
        self._checkpoints: dict[str, _ZoneCheckpoint] = {}

        # zones are placed round-robin over the pool in sorted-id order;
        # each worker receives its zones' pristine substrates and holds
        # the authoritative state from there on
        self.num_workers = len(self._workers)
        ordered = sorted(self.zones)
        self._zone_index: dict[str, int] = {z: i for i, z in enumerate(ordered)}
        self._worker_of_zone = {
            z: self._workers[i % self.num_workers] for i, z in enumerate(ordered)
        }
        for zone_id in ordered:
            spire = self.zones[zone_id].spire
            if self.metrics is not None:
                spire.attach_metrics(MetricRegistry(const_labels={"zone": zone_id}))
            blob = dumps_spire(spire) if self.failover_enabled else None
            self._install(zone_id, spire, blob)
            if blob is not None:
                self._checkpoints[zone_id] = _ZoneCheckpoint(
                    None, blob, self._zone_metrics_snapshot(zone_id)
                )

    # ------------------------------------------------------------------
    # worker plumbing
    # ------------------------------------------------------------------

    @property
    def failover_enabled(self) -> bool:
        return self._checkpoint_interval is not None

    @property
    def failed_zones(self) -> frozenset[str]:
        """Zones currently marked failed."""
        return frozenset(self._failed)

    def _install(self, zone_id: str, spire: Spire, blob: bytes | None = None) -> None:
        """Make ``spire`` (checkpoint bytes ``blob``, when already at
        hand) the zone's resident state at its worker.  A worker lost
        on the way is given up, and rehomed like any other lost worker."""
        worker = self._worker_of_zone[zone_id]
        self._submit(worker, (wire.MSG_INSTALL, self._zone_index[zone_id], zone_id, spire, blob))
        self._collect(worker, {})
        # only a worker that is this process leaves the substrate reachable
        self.zones[zone_id].spire = spire if worker.host is not None else None  # type: ignore[assignment]
        if spire.metrics is not None:
            self._zone_metrics[zone_id] = spire.metrics

    def _submit(self, worker, request: tuple) -> None:
        """Queue ``request``; a dead worker (or one that dies under the
        write) is found out by :meth:`_collect`."""
        try:
            if worker.alive:
                worker.submit(request)
        except OSError:
            pass

    def _collect(self, worker, lost: dict):
        """The reply to ``worker``'s oldest request — or ``None`` after
        noting ``worker: reason`` in ``lost`` when it cannot answer:
        its connection is gone, it missed its deadline, it reported an
        error (by contract its zone state is then lost too), or its reply
        does not decode."""
        try:
            return worker.collect()
        except LOST_WORKER_ERRORS as exc:
            self._lose(worker, exc, lost)
        return None

    def _lose(self, worker, exc: BaseException, lost: dict) -> None:
        reason = loss_reason(exc)
        worker.abandon(reason, self._kill_warn)
        lost.setdefault(worker, reason)

    def _gather(self, workers: Sequence, at: int) -> tuple[list, dict]:
        """One round's fan-in: the reply to each of ``workers``' oldest
        request, in order (``None`` for a lost one), and — for the zones
        of the workers lost on the way, rebuilt at a live home — the
        reply to each zone's last logged request, by zone id.

        Replies are taken as workers finish (a worker listed several
        times answers its entries FIFO) and stored by position, so what
        the caller merges does not depend on who was faster; a handle
        with no readable end (in process, or given up) is collected
        where it stands.  A worker with no reply readable within
        ``deadlines.request_timeout`` of the round's start is lost.
        Losses are acted on after every worker is drained, in submission
        order: sooner would desync the other workers' FIFO queues, and a
        rehoming install must not race a survivor's pending reply.
        """
        start = perf_counter()
        timeout = self.deadlines.request_timeout
        lost: dict = {}
        replies: list = [None] * len(workers)
        queued: dict = {}  # worker -> its positions still unanswered, oldest first
        for position, worker in enumerate(workers):
            queued.setdefault(worker, deque()).append(position)
        while queued:
            ready = [worker for worker in queued if worker.readable is None]
            if not ready:
                ends = {worker.readable: worker for worker in queued}
                remaining = max(0.0, start + timeout - perf_counter())
                ready = [ends[end] for end in wait(list(ends), remaining)]
                if not ready:  # past the round's deadline
                    for worker in queued:
                        worker.transport.timeouts += 1
                        self._lose(worker, TimeoutError(f"no reply within {timeout:g} s"), lost)
                    break
            for worker in ready:
                positions = queued[worker]
                replies[positions.popleft()] = self._collect(worker, lost)
                if not positions:
                    del queued[worker]
        self.stats.fanin_wait_s += perf_counter() - start
        rebuilt: dict = {}
        for worker in dict.fromkeys(workers):
            if worker in lost:
                rebuilt.update(self._rehome_worker(worker, at))
        return replies, rebuilt

    def _kill_warn(self, detail: str) -> None:
        """Quarantine-warning sink for a worker that would not die."""
        self.quarantine.warn(WarningKind.WORKER_ZOMBIE, self._last_epoch or 0, detail=detail)

    def close(self) -> None:
        """Release the worker pool; the coordinator is unusable afterwards.
        Workers the pool spawned are told to shut down."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                if self._stop_on_close and worker.alive:
                    worker.submit((wire.MSG_STOP,))
                    worker.collect()
            except LOST_WORKER_ERRORS:
                pass
            finally:
                worker.kill(self._kill_warn)
        if self.supervisor is not None:
            self.supervisor._sync_gauges()
        for daemon in self._daemons:
            daemon.stop()

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # the epoch loop
    # ------------------------------------------------------------------

    def _split_by_zone(self, readings: EpochReadings) -> dict[str, EpochReadings]:
        """Dedup, split by owning zone, quarantine the unroutable."""
        now = readings.epoch
        clean = self._dedup.process(readings)

        per_zone: dict[str, EpochReadings] = {
            zone_id: EpochReadings(epoch=now) for zone_id in self.zones
        }
        for reader_id, tags in clean.by_reader.items():
            zone_id = self._zone_of_reader.get(reader_id)
            if zone_id is None:
                if self.strict:
                    raise KeyError(f"reading from reader {reader_id} owned by no zone")
                for tag in tags:
                    self.quarantine.hold(tag, reader_id, now, WarningKind.UNMAPPED_READER)
                self.quarantine.warn(
                    WarningKind.UNMAPPED_READER,
                    now,
                    reader_id=reader_id,
                    detail=f"{len(tags)} reading(s) from a reader owned by no zone",
                )
                continue
            per_zone[zone_id].add(reader_id, tags)
        return per_zone

    def process_epoch(self, readings: EpochReadings) -> EpochResult:
        """Coordinate one epoch: fan out to workers, fan in as they
        finish, merge in sorted-zone-id order."""
        now = readings.epoch
        warnings_before = len(self.quarantine.warnings)
        result = EpochResult(epoch=now, messages=[])

        # between-epoch death check: whoever died since the last reply
        if self.supervisor is not None:
            self.supervisor.check_leases()
        boundary = self._last_epoch if self._last_epoch is not None else now
        for worker in list(self._workers):
            if not worker.alive:
                self._rehome_worker(worker, boundary)

        self._last_epoch = now
        per_zone = self._split_by_zone(readings)

        # migration detection is coordinator-local: it reads only the
        # ownership map and the split readings, in a fixed order
        migrations: list[tuple[TagId, str, str, bool]] = []
        for zone_id, zone_readings in per_zone.items():
            if zone_id in self._failed:
                continue
            for tag in zone_readings.tags_seen():
                owner = self._owner.get(tag)
                if owner is None:
                    self._owner[tag] = zone_id
                elif owner != zone_id:
                    # an owner that crashed had its intervals closed at
                    # fail time: the orphan is re-adopted by the observing
                    # zone with no exported knowledge
                    migrations.append((tag, owner, zone_id, owner not in self._failed))
                    self._owner[tag] = zone_id
                    result.handoffs.append((tag, owner, zone_id))
        if migrations:
            self._apply_migrations(migrations, now, result.messages)

        # fan out: one request per worker carrying all of its live zones'
        # shares, each logged as the zone's own request.  A zone
        # checkpoints itself after the epoch that fills its log to the
        # interval; a failed zone's readings are withheld, and logged for
        # its recovery.
        start = perf_counter()
        order = sorted(per_zone)
        checkpointing: set[str] = set()
        batches: dict[int, tuple] = {}
        for zone_id in order:
            live = zone_id not in self._failed
            flags = 0
            if self.failover_enabled:
                held = self._checkpoints[zone_id]
                held.epochs_logged += 1
                due = held.epochs_logged >= self._checkpoint_interval  # type: ignore[operator]
                if live and due:
                    flags = wire.FLAG_CHECKPOINT
                    checkpointing.add(zone_id)
                held.log.append((wire.MSG_EPOCH, [(0, flags, per_zone[zone_id])]))
            if live:
                worker = self._worker_of_zone[zone_id]
                batches.setdefault(worker.index, (worker, []))[1].append(
                    (self._zone_index[zone_id], flags, per_zone[zone_id])
                )
        for worker, entries in batches.values():
            self._submit(worker, (wire.MSG_EPOCH, entries))
        self.stats.fanout_s += perf_counter() - start

        # fan in: one reply per worker, one entry per zone in it
        replies: dict[int, tuple] = {}
        answered, rebuilt = self._gather([worker for worker, _ in batches.values()], now)
        for reply in answered:
            for zone_reply in reply or ():  # a lost worker's reply is None
                replies[zone_reply[0]] = zone_reply
        for zone_id, (zone_reply,) in rebuilt.items():
            replies[self._zone_index[zone_id]] = zone_reply

        # merge per zone in sorted-id order
        for zone_id in order:
            if zone_id in self._failed:
                continue
            _, messages, departed, busy_s, checkpoint_s, checkpoint, metrics = replies[
                self._zone_index[zone_id]
            ]
            result.messages.extend(messages)
            for tag in departed:
                self._owner.pop(tag, None)
            self.stats.busy_s[zone_id] = self.stats.busy_s.get(zone_id, 0.0) + busy_s
            self.stats.zone_epochs[zone_id] = self.stats.zone_epochs.get(zone_id, 0) + 1
            if metrics is not None:
                self._zone_metrics[zone_id] = metrics
            if zone_id in checkpointing:
                if checkpoint is None:
                    raise wire.WireError(f"zone {zone_id!r} returned no checkpoint")
                self._checkpoints[zone_id] = _ZoneCheckpoint(
                    now, checkpoint, self._zone_metrics_snapshot(zone_id)
                )
                self.stats.checkpoint_s += checkpoint_s
                self.stats.checkpoints += 1
                if self.metrics is not None:
                    self._m_checkpoints.inc()
                    self._m_checkpoint_seconds.observe(checkpoint_s)

        self.stats.epochs += 1
        if self.metrics is not None:
            self._m_epochs.inc()
            self._m_handoffs.inc(len(result.handoffs))
        if self.supervisor is not None:
            self.supervisor._sync_gauges()
        result.warnings = self.quarantine.warnings[warnings_before:]
        return result

    def run(self, stream: Iterable[EpochReadings]) -> list[EpochResult]:
        """Coordinate a whole stream."""
        return [self.process_epoch(readings) for readings in stream]

    def _apply_migrations(
        self,
        migrations: list[tuple[TagId, str, str, bool]],
        now: int,
        out_messages: list[EventMessage],
    ) -> None:
        """Release and adopt migrating tags in one batch per zone.

        Releases are batched per owner zone and adoptions per target zone,
        each batch in global migration order.  This commutes with doing
        them one tag at a time: a release only reads/removes the released
        object's own state, and an adoption only appends to the target
        zone's structures, so per-zone order is the only order that
        matters.  The closing messages are re-assembled into global
        migration order before being emitted.
        """
        release_plan: dict[str, list[int]] = {}  # owner zone -> migration indices
        for i, (_tag, owner, _target, needs_release) in enumerate(migrations):
            if needs_release:
                release_plan.setdefault(owner, []).append(i)
        for owner, indices in release_plan.items():
            self._submit_logged(owner, wire.MSG_RELEASE, now, [migrations[i][0] for i in indices])
        released, rebuilt = self._gather([self._worker_of_zone[z] for z in release_plan], now)

        closings: dict[int, list[EventMessage]] = {}
        records: dict[int, HandoffRecord] = {}
        for (owner, indices), releases in zip(release_plan.items(), released):
            for i, (record, closing) in zip(indices, rebuilt.get(owner, releases)):
                records[i] = record
                closings[i] = closing

        adopt_plan: dict[str, list[HandoffRecord]] = {}  # target zone -> records in order
        for i, (tag, _owner, target, needs_release) in enumerate(migrations):
            out_messages.extend(closings.get(i, ()))
            adopt_plan.setdefault(target, []).append(
                records[i] if needs_release else {"tag": tag}
            )
        for target, target_records in adopt_plan.items():
            self._submit_logged(target, wire.MSG_ADOPT, now, target_records)
        self._gather([self._worker_of_zone[z] for z in adopt_plan], now)

    def _submit_logged(self, zone_id: str, msg_type: int, now: int, payload: list) -> None:
        """Log, then queue, a release or adopt request for ``zone_id``."""
        if self.failover_enabled:
            self._checkpoints[zone_id].log.append((msg_type, 0, now, payload))
        self._submit(
            self._worker_of_zone[zone_id], (msg_type, self._zone_index[zone_id], now, payload)
        )

    # ------------------------------------------------------------------
    # rebuilding a zone; losing a worker
    # ------------------------------------------------------------------

    def _replay_zone(self, zone_id: str) -> tuple[Spire, object]:
        """The zone's substrate rebuilt from its checkpoint + request log
        — the state a live zone holds — with the reply to the last logged
        request (``None`` when the log is empty).  Earlier replies were
        merged when they arrived."""
        held = self._checkpoints[zone_id]
        spire = wire.restore_zone(held.data, zone_id, self.metrics is not None, held.metrics)
        host = ZoneHost()
        host.handle_request((wire.MSG_INSTALL, 0, zone_id, spire, None))
        reply = None
        for request in held.log:
            reply = host.handle_request(request)
        return spire, reply

    def _rehome_worker(self, worker, at: int, respawn: bool = True) -> dict[str, object]:
        """Give a dead worker's zones a live home, in the state they held.

        The home is the worker's ``respawn()`` — a fresh process, or a
        fresh connection to a daemon that answers, in the same slot — or,
        when there is none, the least-loaded survivor per zone.  Every
        hosted zone that is not failed (those wait for
        :meth:`recover_zone`) is rebuilt from its checkpoint + request
        log and installed there; a home lost on the way is
        rehomed in turn, without ``respawn`` (so a daemon that answers
        HELLO but fails every install cannot keep us redialling it).
        Returns, by zone id, the reply to each rebuilt zone's last logged
        request: whatever round was in flight takes it in place of the
        reply that was lost.  Without checkpoints there is nothing to
        rebuild from; naming the worker is all we can offer.
        """
        hosted = sorted(z for z, w in self._worker_of_zone.items() if w is worker)
        if not hosted:
            return {}  # already handled (idempotence under repeated signals)
        if not self.failover_enabled:
            raise wire.WireError(f"worker {worker.name} lost: {worker.death_reason}")
        self.quarantine.warn(
            WarningKind.WORKER_LOST,
            at,
            detail=(
                f"worker {worker.name} declared dead "
                f"({worker.death_reason}); rehoming zone(s) {', '.join(hosted)}"
            ),
        )
        worker.kill(self._kill_warn)  # let go of its process and socket
        replacement = worker.respawn() if respawn else None
        if replacement is not None:
            replacement.stats = self.stats
            self._workers[self._workers.index(worker)] = replacement
        replies = {}
        for zone_id in hosted:
            alive = replacement is not None and replacement.alive
            home = replacement if alive else self._pick_home()
            self._worker_of_zone[zone_id] = home
            if zone_id in self._failed:
                continue
            spire, replies[zone_id] = self._replay_zone(zone_id)
            self._install(zone_id, spire)
            self.quarantine.warn(
                WarningKind.ZONE_REHOMED,
                at,
                detail=(
                    f"zone {zone_id!r} rebuilt on worker {home.name} from "
                    f"checkpoint at epoch {self._checkpoints[zone_id].epoch}"
                ),
            )
        for home in dict.fromkeys(self._worker_of_zone[zone_id] for zone_id in hosted):
            if not home.alive:
                self._rehome_worker(home, at, respawn=False)
        if self.supervisor is not None:
            self.supervisor._sync_gauges()
        return replies

    def _pick_home(self):
        """The least-loaded live worker (ties to the lowest index)."""
        survivors = [worker for worker in self._workers if worker.alive]
        if not survivors:
            raise RemoteError("every worker is dead; cannot rehome zones")
        load = {worker.index: 0 for worker in survivors}
        for owner in self._worker_of_zone.values():
            if owner.alive:
                load[owner.index] += 1
        return min(survivors, key=lambda worker: (load[worker.index], worker.index))

    # ------------------------------------------------------------------
    # scripted outages
    # ------------------------------------------------------------------

    def fail_zone(
        self, zone_id: str, at: int | None = None, kill_worker: bool = False
    ) -> list[EventMessage]:
        """Mark ``zone_id`` crashed; returns interval-closing messages.

        The zone's resident substrate is considered lost.  To keep the
        merged stream well-formed, every open interval of an object the
        zone owns is closed at epoch ``at`` (default: the last processed
        epoch) — as the zone's own compressor, rebuilt from checkpoint +
        log, reports them; append the returned messages to the merged
        stream.  Until :meth:`recover_zone`, the zone's readings are
        logged and objects it owned are re-adopted by any zone that
        observes them.

        ``kill_worker=True`` additionally crashes the zone's worker: a
        worker lost like any other, so the other zones it hosts are
        rebuilt exactly at a live home; ``zone_id`` stays down until
        :meth:`recover_zone`.
        """
        self._require_failover()
        if zone_id not in self.zones:
            raise KeyError(f"unknown zone {zone_id!r}")
        if zone_id in self._failed:
            raise ValueError(f"zone {zone_id!r} is already failed")
        now = self._resolve_epoch(at)
        compressor = self._replay_zone(zone_id)[0].compressor
        closures: list[EventMessage] = []
        for tag in sorted(t for t, z in self._owner.items() if z == zone_id):
            closures.extend(compressor.depart(tag, now))
        self._failed.add(zone_id)
        if self.metrics is not None:
            self._m_failed.set(len(self._failed))
        self.quarantine.warn(
            WarningKind.ZONE_FAILED,
            now,
            detail=f"zone {zone_id!r} failed; {len(closures)} open interval(s) closed",
        )
        if kill_worker:
            worker = self._worker_of_zone[zone_id]
            worker.kill(warn=self._kill_warn)
            if not worker.alive:  # in process there is nothing to kill
                self._rehome_worker(worker, now)
        return closures

    def recover_zone(self, zone_id: str, at: int | None = None) -> list[EventMessage]:
        """Restore a failed zone from its last checkpoint and replay.

        The zone's substrate is rebuilt from the last checkpoint and its
        request log since (the migrations before the failure and the
        readings withheld during the outage alike), installed at a live
        worker, and fresh interval-opening messages are emitted at epoch
        ``at`` (default: the last processed epoch) for every object the
        zone still owns.  Objects that migrated to other zones during the
        outage are released quietly — re-adoption already happened at
        observation time — so no tag stays orphaned.  Returns the
        messages to append to the merged stream.
        """
        self._require_failover()
        if zone_id not in self._failed:
            raise ValueError(f"zone {zone_id!r} is not failed")
        now = self._resolve_epoch(at)
        if not self._worker_of_zone[zone_id].alive:
            self._rehome_worker(self._worker_of_zone[zone_id], now)
        checkpoint_epoch = self._checkpoints[zone_id].epoch
        spire, _reply = self._replay_zone(zone_id)

        # the compressor's notion of "last reported state" died with the
        # zone (the coordinator closed everything at fail time): start a
        # fresh compressor and re-open intervals for still-owned objects
        spire.compressor = (
            ContainmentCompressor() if spire.compression_level == 2 else RangeCompressor()
        )
        messages: list[EventMessage] = []
        for tag in sorted(spire.estimates):
            if self._owner.get(tag) != zone_id:
                # migrated away (or departed) during the outage
                spire.release(tag, now)
                continue
            estimate = spire.estimates[tag]
            messages.extend(
                spire.compressor.observe(tag, estimate.location, estimate.container, now)
            )
        # owner entries pointing at objects the replayed zone no longer
        # tracks (they departed during the replay) would be permanent
        # orphans — drop them
        for tag in [t for t, z in self._owner.items() if z == zone_id]:
            if tag not in spire.estimates:
                self._owner.pop(tag)

        blob = dumps_spire(spire)
        self._install(zone_id, spire, blob)
        self._checkpoints[zone_id] = _ZoneCheckpoint(
            now, blob, spire.metrics.snapshot() if spire.metrics is not None else None
        )
        self._failed.discard(zone_id)
        if self.metrics is not None:
            self._m_checkpoints.inc()
            self._m_failed.set(len(self._failed))
        self.quarantine.warn(
            WarningKind.ZONE_RECOVERED,
            now,
            detail=(
                f"zone {zone_id!r} restored from checkpoint at epoch "
                f"{checkpoint_epoch}; {len(messages)} interval(s) re-opened"
            ),
        )
        return messages

    def _require_failover(self) -> None:
        if not self.failover_enabled:
            raise RuntimeError(
                "failover requires checkpointing; construct the Coordinator "
                "with checkpoint_interval=N"
            )

    def _resolve_epoch(self, at: int | None) -> int:
        if at is not None:
            return at
        if self._last_epoch is None:
            raise ValueError("no epoch processed yet; pass an explicit 'at' epoch")
        return self._last_epoch

    def latest_checkpoints(self) -> dict[str, bytes]:
        """The most recent portable checkpoint bytes by zone.

        Empty unless constructed with ``checkpoint_interval`` (pristine
        pre-stream checkpoints count).  With out-of-process workers this
        is the only zone state visible coordinator-side.
        """
        return {zone_id: ckpt.data for zone_id, ckpt in self._checkpoints.items()}

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Merged snapshot: the coordinator's registry + every zone's.

        The counter subset is deterministic: every worker pool renders
        identical totals over the same stream.
        """
        if self.metrics is None:
            return {"series": [], "help": {}}
        return merge_snapshots(
            [self.metrics.snapshot()]
            + [self._zone_metrics_snapshot(zone_id) for zone_id in sorted(self.zones)]
        )

    def _zone_metrics_snapshot(self, zone_id: str) -> dict | None:
        held = self._zone_metrics.get(zone_id)
        return held.snapshot() if isinstance(held, MetricRegistry) else held

    # ------------------------------------------------------------------
    # global queries
    # ------------------------------------------------------------------

    def owner_of(self, tag: TagId) -> str | None:
        """Zone currently owning ``tag`` (``None`` if never observed)."""
        return self._owner.get(tag)

    def _query(self, tag: TagId, kind: int) -> int | None:
        """Ask ``tag``'s owning zone; ``None`` when no live zone owns it."""
        owner = self._owner.get(tag)
        if owner is None or owner in self._failed:
            return None
        for _attempt in (0, 1):
            worker = self._worker_of_zone[owner]
            lost: dict = {}
            self._submit(worker, (wire.MSG_QUERY, self._zone_index[owner], kind, tag))
            value = self._collect(worker, lost)
            if not lost:
                return value
            self._rehome_worker(worker, self._last_epoch or 0)
        raise RemoteError(f"query against zone {owner!r} kept losing workers")

    def location_of(self, tag: TagId) -> int:
        """Site-wide location query: delegated to the owning zone."""
        color = self._query(tag, wire.QUERY_LOCATION)
        return UNKNOWN_COLOR if color is None else color

    def container_of(self, tag: TagId) -> TagId | None:
        """Site-wide containment query: delegated to the owning zone."""
        key = self._query(tag, wire.QUERY_CONTAINER)
        return TagId.from_key(key) if key else None

    @property
    def tracked_objects(self) -> int:
        return len(self._owner)


def partition_by_location(
    readers: Iterable[Reader],
    assignment: Mapping[str, Iterable[str]],
    registry: LocationRegistry | None = None,
    params: InferenceParams | None = None,
    compression_level: int = 2,
    quarantine: Quarantine | None = None,
) -> list[Zone]:
    """Build zones from a ``zone id -> location names`` assignment.

    Every reader must land in exactly one zone; raises ``ValueError`` for
    unassigned or doubly-assigned locations.  The returned list has one
    zone per assignment entry, **in assignment order** — a zone whose
    locations matched no reader raises ``ValueError`` by default (a worker
    pool sized to the assignment would silently under-use a worker), or is
    kept as an empty zone with a :data:`WarningKind.EMPTY_ZONE` warning
    when a ``quarantine`` is supplied to collect it.
    """
    readers = list(readers)
    location_to_zone: dict[str, str] = {}
    for zone_id, names in assignment.items():
        for name in names:
            if name in location_to_zone:
                raise ValueError(f"location {name!r} assigned to two zones")
            location_to_zone[name] = zone_id

    by_zone: dict[str, list[Reader]] = {zone_id: [] for zone_id in assignment}
    for reader in readers:
        zone_id = location_to_zone.get(reader.location.name)
        if zone_id is None:
            raise ValueError(f"reader at {reader.location.name!r} assigned to no zone")
        by_zone[zone_id].append(reader)

    for zone_id, zone_readers in by_zone.items():
        if not zone_readers:
            if quarantine is None:
                raise ValueError(
                    f"zone {zone_id!r} has no readers; pass a quarantine to "
                    "keep it as an (empty) zone instead"
                )
            quarantine.warn(
                WarningKind.EMPTY_ZONE,
                0,
                detail=f"zone {zone_id!r} matched no reader; kept empty",
            )

    return [
        Zone.build(zone_id, zone_readers, registry, params, compression_level)
        for zone_id, zone_readers in by_zone.items()
    ]
