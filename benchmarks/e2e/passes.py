"""Set-up, the closed-loop pass, and the output checks shared by all passes.

The program under test is reached only through ``repro.api``
(``SpireSession`` / ``SpireConfig``), the simulator that generates its
input, and the stream oracles (``check_well_formed``, the event codec).
"""

from __future__ import annotations

import gc
import hashlib
import random
from dataclasses import dataclass, field
from time import perf_counter

from repro.api import SpireConfig, SpireSession
from repro.core.pipeline import Deployment
from repro.distributed.parallel import WorkerStats
from repro.events.codec import decode_stream, encode_stream
from repro.events.wellformed import WellFormednessError, check_well_formed
from repro.metrics.sizing import compression_ratio
from repro.model.objects import PackagingLevel, TagId
from repro.model.truth import GroundTruthRecorder
from repro.readers.stream import EpochReadings
from repro.simulator.config import SimulationConfig
from repro.simulator.warehouse import WarehouseSimulator

from measure import peak_rss_mb
from workloads import PINNED_SEED, Workload, serving_patterns

#: share of the scenario's readings that a run's seed turns into read misses
EXTRA_MISS = 0.01


class _CompleteEpochTruth(GroundTruthRecorder):
    """Keeps ground truth only where it is scored: at the complete epochs
    of the pinned trace, and nowhere on the seeded trace (``period`` 0).

    A full recorder holds every object at every epoch — 760 MB on the
    growth trace, more than the program itself.
    """

    def __init__(self, period: int) -> None:
        super().__init__()
        self._period = period

    def capture(self, world, epoch):
        if self._period and epoch % self._period == 0:
            return super().capture(world, epoch)
        return None


@dataclass
class Trace:
    """The generated input and what is needed to check the output."""

    epochs: list
    readers: list
    registry: object
    period: int
    truth: dict
    entry_color: int
    readings: int
    raw_bytes: int
    patterns: list
    #: per epoch position, the highest item serial read so far: queries
    #: ask about objects the system has met
    items_seen: list[int]

    @property
    def numbers(self) -> list[int]:
        return [e.epoch for e in self.epochs]


def with_read_misses(stream: list, seed: int) -> None:
    """Removes from the scenario's readings the ``EXTRA_MISS`` share that
    ``seed`` picks.  A reader that read something still reads something.
    Epoch by epoch in place, so set-up never holds two traces."""
    rng = random.Random(seed)
    for i, readings in enumerate(stream):
        kept = {}
        for reader, tags in readings.by_reader.items():
            kept[reader] = [t for t in tags if rng.random() >= EXTRA_MISS] or tags[:1]
        stream[i] = EpochReadings(readings.epoch, kept)


def build_trace(
    workload: Workload, seed: int | None, epochs: int | None = None, with_truth: bool = False
) -> Trace:
    """Simulate the workload's scenario and materialise its trace.

    The scenario (arrivals, shelving, anomalies, the readers' own misses)
    is always simulated at ``PINNED_SEED``; ``seed`` then decides which
    further readings are missed, so two seeds give different inputs and
    different streams for very nearly the same amount of work.  ``None``
    leaves the scenario as simulated (the pinned trace).

    ``epochs`` shortens the simulation itself (the pinned trace);
    ``workload.epochs`` cuts the materialised stream (``serve_tcp`` is a
    prefix of the ``churn_local`` trace).
    """
    sim_config = {**workload.sim, "duration": epochs} if epochs else workload.sim
    simulator = WarehouseSimulator(SimulationConfig(seed=PINNED_SEED, **sim_config))
    layout = simulator.layout
    period = Deployment.from_readers(layout.readers).complete_inference_period
    simulator.truth = _CompleteEpochTruth(period if with_truth else 0)
    sim = simulator.run()
    stream = list(sim.stream)[: None if epochs else workload.epochs]
    if seed is not None:
        with_read_misses(stream, seed)
    items_seen, highest = [], 1
    for readings in stream:
        for tags in readings.by_reader.values():
            for tag in tags:
                if tag.level == PackagingLevel.ITEM and tag.serial > highest:
                    highest = tag.serial
        items_seen.append(highest)
    patterns = []
    if workload.serve:
        places = {loc.name: loc.color for loc in layout.registry.known_locations()}
        patterns = serving_patterns(places, highest)
    return Trace(
        epochs=stream,
        readers=list(layout.readers),
        registry=layout.registry,
        period=period,
        truth={s.epoch: s for s in sim.truth.snapshots},
        entry_color=layout.entry_door.color,
        readings=sum(e.reading_count for e in stream),
        raw_bytes=sum(e.raw_bytes for e in stream),
        patterns=patterns,
        items_seen=items_seen,
    )


def setup(workload: Workload, seed: int, repeats: int = 5) -> tuple[Trace, float]:
    """Build the trace ``repeats`` times; returns it and the median set-up time.

    Several repetitions and their median because the acceptance driver
    compares ``setup_s`` between two sets of runs: one 0.3 s measurement
    per run is too few.  Each repetition simulates, materialises and
    collects; the last one's objects are then frozen, so the collector
    never traverses the load generator's data during a pass (a live site
    does not retain its input).  GC stays enabled.
    """
    seconds = []
    trace = None
    for _ in range(repeats):
        trace = None
        start = perf_counter()
        trace = build_trace(workload, seed)
        gc.collect()
        seconds.append(perf_counter() - start)
    gc.freeze()
    return trace, sorted(seconds)[len(seconds) // 2]


class OutputCheck:
    """Digest, size and correctness of one pass's emitted stream.

    Every pass feeds its messages (between timed calls) and gets a
    SHA-256 and a message count.  A pass created with ``full=True`` also
    keeps the *encoded* stream — bytes, which the collector does not
    track — and decodes it once the pass is over to run
    ``check_well_formed`` and ``compression_ratio`` over the whole
    stream.  Where the trace carries ground truth (the pinned trace),
    accuracy is scored at its complete epochs.
    """

    def __init__(self, trace: Trace, full: bool, score_every: int = 1) -> None:
        self.trace = trace
        self.full = full
        self.sha = hashlib.sha256()
        self.messages = 0
        self.encode_s = 0.0
        self.bytes_out = 0
        self._kept: list[bytes] = []
        self._every = score_every
        self.location = [0, 0]  # errors, scored
        self.containment = [0, 0]

    def feed(self, messages) -> None:
        start = perf_counter()
        data = encode_stream(messages)
        self.encode_s += perf_counter() - start
        self.bytes_out += len(data)
        self.messages += len(messages)
        self.sha.update(data)
        if self.full:
            self._kept.append(data)

    def score(self, session: SpireSession, epoch: int) -> None:
        """Front-door accuracy (the SII queries) at one complete epoch.

        Same population and rules as ``AccuracyAccumulator(ALL)`` with
        the entry door excluded, minus ghost objects, but through
        ``session.location_of`` / ``container_of`` so it holds in every
        execution mode.
        """
        snapshot = self.trace.truth.get(epoch)
        if snapshot is None:
            return
        every, entry = self._every, self.trace.entry_color
        containers = snapshot.containers
        for tag, location in snapshot.locations.items():
            if tag.serial % every or location.color == entry:
                continue
            self.location[1] += 1
            if session.location_of(tag) != location.color:
                self.location[0] += 1
            truth = containers.get(tag)
            estimate = session.container_of(tag)
            if truth is not None or estimate is not None:
                self.containment[1] += 1
                if estimate != truth:
                    self.containment[0] += 1

    def finish(self) -> dict:
        """Whole-stream checks; returns the exact metrics and any failure.

        Decodes the whole stream, so a pass samples its memory before
        calling this.
        """
        out = {"failures": [], "digest": self.sha.hexdigest(), "messages": self.messages}
        if not self.full:
            return out
        stream = list(decode_stream(b"".join(self._kept)))
        self._kept.clear()
        try:
            check_well_formed(stream)
        except WellFormednessError as exc:
            out["failures"].append(f"stream not well-formed: {exc}")
        out["compression_ratio"] = compression_ratio(stream, self.trace.raw_bytes)
        if self.trace.truth:
            out["location_error_rate"] = self.location[0] / self.location[1]
            out["containment_error_rate"] = self.containment[0] / self.containment[1]
        return out


@dataclass
class PassResult:
    #: per epoch position: readings handed over -> call/publish returned
    busy: list[float]
    #: per epoch position: readings handed over -> last output with its consumer
    latency: list[float]
    #: round trips of front-door point queries
    queries: list[float]
    check: dict
    #: ``VmHWM`` of this process and its workers when the pass ended,
    #: before its whole-stream checks
    peak_rss_mb: float
    attempted: int
    #: one line per failed check, and how many operations they stand for
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    #: layer-level extras (worker stats, delivery lag, ...)
    extra: dict = field(default_factory=dict)


def session_config(trace: Trace, workload: Workload, **overrides) -> SpireConfig:
    return SpireConfig(
        readers=trace.readers, registry=trace.registry, **{**workload.session, **overrides}
    )


def checkpoint_extras(session: SpireSession) -> dict:
    """One ``session.checkpoint()`` at the end of a traced pass."""
    start = perf_counter()
    blobs = session.checkpoint()
    return {
        "checkpoint.encode_ms": (perf_counter() - start) * 1e3,
        "checkpoint.bytes": sum(len(b) for b in blobs.values()),
    }


def worker_extras(
    stats, workers: int, handoffs: int, epoch_total: float, messages: int
) -> dict:
    """``zones.*`` from the coordinator's public :class:`WorkerStats`."""
    if not isinstance(stats, WorkerStats):
        return {}
    # zones are placed round-robin over workers in sorted zone-id order
    per_worker = [0.0] * workers
    for i, zone_id in enumerate(sorted(stats.busy_s)):
        per_worker[i % workers] += stats.busy_s[zone_id]
    mean_busy = sum(per_worker) / workers
    return {
        "zones.fanout_s": stats.fanout_s,
        "zones.fanin_wait_s": stats.fanin_wait_s,
        "zones.coordinator_self_s": epoch_total - stats.fanout_s - stats.fanin_wait_s,
        "zones.bytes_to_workers": stats.bytes_to_workers,
        "zones.bytes_from_workers": stats.bytes_from_workers,
        "zones.bytes_from_workers_per_message": stats.bytes_from_workers / max(messages, 1),
        "zones.worker_busy_s_max": max(per_worker),
        "zones.worker_busy_skew": max(per_worker) / mean_busy if mean_busy else 0.0,
        "zones.checkpoint_s": stats.checkpoint_s,
        "zones.checkpoints": stats.checkpoints,
        "zones.handoffs": handoffs,
    }


#: front-door point queries asked after each epoch of a closed-loop pass
QUERIES_PER_EPOCH = 4


def probe_object(trace: Trace, position: int, i: int) -> TagId:
    """The ``i``-th object a query asks about: a stride over the item
    serials read up to epoch ``position``."""
    return TagId(PackagingLevel.ITEM, 1 + (i * 7919) % trace.items_seen[position])


def run_loop_pass(
    trace: Trace,
    workload: Workload,
    full: bool,
    rec=None,
    metrics: bool = False,
) -> PassResult:
    """One closed-loop pass: one caller, next epoch handed over when the
    previous call returns.  Between epochs the caller asks
    ``QUERIES_PER_EPOCH`` point queries, alternating ``location_of`` and
    ``container_of``.  Retains floats (and, when ``full``, bytes)."""
    check = OutputCheck(trace, full, workload.score_every)
    period = trace.period
    busy: list[float] = []
    queries: list[float] = []
    handoffs = 0
    asked = 0
    gc.collect()
    with SpireSession(session_config(trace, workload, metrics=metrics)) as session:
        ask = (session.location_of, session.container_of)
        for position, readings in enumerate(trace.epochs):
            epoch = readings.epoch
            start = perf_counter()
            if rec is not None:
                rec.begin_epoch(epoch, start)
            out = session.process_epoch(readings)
            end = perf_counter()
            if rec is not None:
                rec.end_epoch(end)
            busy.append(end - start)
            for _ in range(QUERIES_PER_EPOCH):
                obj = probe_object(trace, position, asked)
                start = perf_counter()
                ask[asked % 2](obj)
                queries.append(perf_counter() - start)
                asked += 1
            check.feed(out.messages)
            handoffs += len(getattr(out, "handoffs", ()))
            if epoch % period == 0:
                check.score(session, epoch)
        rss = peak_rss_mb()
        extra = worker_extras(
            getattr(session.engine, "stats", None),
            workload.session.get("workers") or 1,
            handoffs,
            sum(busy),
            check.messages,
        )
        if rec is not None:
            extra.update(checkpoint_extras(session))
    result = check.finish()
    extra["codec.encode_s"] = check.encode_s
    extra["codec.bytes_out"] = check.bytes_out
    return PassResult(
        busy=busy,
        latency=busy,
        queries=queries,
        check=result,
        peak_rss_mb=rss,
        attempted=len(busy) + asked,
        failures=result["failures"],
        failed=len(result["failures"]),
        extra=extra,
    )
