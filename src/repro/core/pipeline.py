"""The end-to-end SPIRE substrate (Fig. 2).

:class:`Spire` wires the full per-epoch path together:

    raw readings → deduplication → graph update (capture) →
    partial/complete iterative inference → conflict resolution →
    carried-forward estimate store → level-1/level-2 compression →
    compressed event stream (+ node removal for properly exited objects).

The *estimate store* is the substrate's current best answer to the §II
interpretation queries ("the most likely location / container of object o
now"): estimates produced by an inference pass overwrite it; objects the
pass did not visit (or whose result partial inference withheld) keep their
previous state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable

import numpy as np

from repro.compression.level1 import RangeCompressor
from repro.compression.level2 import ContainmentCompressor
from repro.core.capture import GraphUpdater, ReaderInfo
from repro.core.conflicts import resolve_conflicts
from repro.core.graph import UNKNOWN_COLOR, Graph
from repro.core.interpretation import Estimate, InterpretationResult, LocationSource
from repro.core.iterative import IterativeInference
from repro.core.params import InferenceParams
from repro.events.messages import EVENT_MESSAGE_BYTES, EventMessage
from repro.faults.health import ReaderHealthMonitor
from repro.model.locations import LocationRegistry
from repro.model.objects import TagId
from repro.readers.dedup import Deduplicator
from repro.readers.reader import Reader
from repro.readers.stream import EpochReadings, ReadingStream


@dataclass(frozen=True)
class Deployment:
    """The site knowledge SPIRE is configured with.

    Attributes:
        readers: Per-reader metadata (location color, specialness, period).
        registry: Location registry for rendering/validation (optional for
            headless use, but required by examples and reports).
    """

    readers: dict[int, ReaderInfo]
    registry: LocationRegistry | None = None

    @classmethod
    def from_readers(
        cls, readers: Iterable[Reader], registry: LocationRegistry | None = None
    ) -> "Deployment":
        infos = {r.reader_id: ReaderInfo.from_reader(r) for r in readers}
        return cls(readers=infos, registry=registry)

    @property
    def complete_inference_period(self) -> int:
        """LCM of reader periods — the complete-inference cadence (§IV-D)."""
        lcm = 1
        for info in self.readers.values():
            lcm = int(np.lcm(lcm, info.period))
        return lcm

    def color_periods(self) -> dict[int, int]:
        """Fastest interrogation period per location color."""
        periods: dict[int, int] = {}
        for info in self.readers.values():
            current = periods.get(info.color)
            if current is None or info.period < current:
                periods[info.color] = info.period
        return periods


@dataclass(slots=True)
class CurrentEstimate:
    """Carried-forward state of one object in the estimate store."""

    location: int
    container: TagId | None
    observed: bool
    updated_at: int


@dataclass
class EpochOutput:
    """Everything one epoch of processing produced.

    Attributes:
        epoch: The epoch processed.
        complete: Whether complete (vs partial) inference ran.
        result: The raw (conflict-resolved) inference result.
        messages: Compressed event messages emitted this epoch.
        departed: Objects whose nodes were removed after an exit reading.
    """

    epoch: int
    complete: bool
    result: InterpretationResult
    messages: list[EventMessage]
    departed: list[TagId] = field(default_factory=list)
    #: wall-clock cost of the graph-update (capture) step this epoch
    update_seconds: float = 0.0
    #: wall-clock cost of inference + conflict resolution this epoch
    inference_seconds: float = 0.0
    #: size of the graph's dirty set this epoch (nodes whose color state,
    #: edges or read evidence changed — DESIGN.md §8)
    dirty_nodes: int = 0


class _SpireMetrics:
    """Pre-bound instruments for one substrate (see :mod:`repro.obs`).

    Instruments are looked up once at attach time, so the per-epoch cost
    is plain attribute access + arithmetic; the updater's cumulative
    candidate-edge count is read as a delta against the baseline captured
    here, so (re)attaching to a substrate that has already run counts only
    what happens from then on.
    """

    __slots__ = (
        "readings", "deduped", "raw_bytes", "epochs_partial", "epochs_complete",
        "dirty", "dirty_total", "candidate_edges",
        "events", "event_bytes", "graph_nodes", "graph_edges", "tracked",
        "departed", "update_seconds", "inference_seconds", "last_candidate",
    )

    def __init__(self, registry, spire: "Spire") -> None:
        c, g, h = registry.counter, registry.gauge, registry.histogram
        self.readings = c("spire_readings_total", "Raw readings entering deduplication")
        self.deduped = c("spire_readings_deduped_total", "Readings removed as duplicates")
        self.raw_bytes = c("spire_raw_bytes_total", "Raw reading bytes entering the substrate")
        self.epochs_partial = c("spire_epochs_total", "Epochs processed by inference mode", mode="partial")
        self.epochs_complete = c("spire_epochs_total", "Epochs processed by inference mode", mode="complete")
        self.dirty = g("spire_dirty_nodes", "Dirty-set size of the last epoch")
        self.dirty_total = c("spire_dirty_nodes_total", "Dirty-set sizes summed over epochs")
        self.candidate_edges = c("spire_candidate_edges_total", "Candidate containment edges drawn")
        self.events = c("spire_events_total", "Compressed event messages emitted")
        self.event_bytes = c("spire_event_bytes_total", "Encoded event-stream bytes emitted")
        self.graph_nodes = g("spire_graph_nodes", "Nodes in the containment graph")
        self.graph_edges = g("spire_graph_edges", "Edges in the containment graph")
        self.tracked = g("spire_tracked_objects", "Objects in the estimate store")
        self.departed = c("spire_departed_objects_total", "Objects retired at exit readers")
        self.update_seconds = h("spire_update_seconds", "Graph-update (capture) wall time per epoch")
        self.inference_seconds = h("spire_inference_seconds", "Inference + conflict resolution wall time per epoch")
        self.last_candidate = spire.updater.candidate_edges


class Spire:
    """The interpretation and compression substrate over RFID streams."""

    def __init__(
        self,
        deployment: Deployment,
        params: InferenceParams | None = None,
        compression_level: int = 2,
        complete_period: int | None = None,
        health: ReaderHealthMonitor | bool | None = None,
        metrics=None,
        trace=None,
    ) -> None:
        """Build a substrate for ``deployment``.

        ``complete_period`` overrides the complete-inference cadence, which
        defaults to the LCM of the reader periods (§IV-D); ``1`` forces
        complete inference every epoch (used by ablation benchmarks).

        ``health`` attaches a reader-health monitor: pass an instance, or
        ``True`` to build one over the deployment's readers with default
        tolerance.  While the monitor flags a location's readers as dead,
        inference stops decaying posteriors of objects last seen there
        (graceful degradation instead of spurious missing-object events).

        ``metrics`` attaches a :class:`repro.obs.MetricRegistry`; ``None``
        (default) disables telemetry at zero per-epoch cost beyond one
        ``is None`` check.  ``trace`` attaches a
        :class:`repro.obs.TraceLog` that records one JSONL span record
        per epoch.  Neither is serialized by checkpoints — re-attach
        after :func:`repro.core.checkpoint.loads_spire`.
        """
        if compression_level not in (1, 2):
            raise ValueError(f"compression_level must be 1 or 2, got {compression_level}")
        if complete_period is not None and complete_period < 1:
            raise ValueError(f"complete_period must be >= 1, got {complete_period}")
        self.deployment = deployment
        self.params = params or InferenceParams()
        self.graph = Graph()
        self.dedup = Deduplicator()
        self.updater = GraphUpdater(self.graph, self.params)
        self.updater.register_readers(deployment.readers)
        self.inference = IterativeInference(
            self.graph, self.params, deployment.color_periods()
        )
        self.compressor = (
            ContainmentCompressor() if compression_level == 2 else RangeCompressor()
        )
        self.compression_level = compression_level
        self.estimates: dict[TagId, CurrentEstimate] = {}
        self._complete_period = (
            complete_period
            if complete_period is not None
            else deployment.complete_inference_period
        )
        self._epochs_processed = 0
        self._last_epoch: int | None = None
        self._last_suppressed: frozenset[int] = frozenset()
        if health is True:
            health = ReaderHealthMonitor(deployment.readers)
        self.health: ReaderHealthMonitor | None = health or None
        self.metrics = None
        self._m: _SpireMetrics | None = None
        self._trace = trace
        if metrics is not None:
            self.attach_metrics(metrics)

    # ------------------------------------------------------------------
    # telemetry (repro.obs)
    # ------------------------------------------------------------------

    def attach_metrics(self, registry) -> None:
        """(Re)bind telemetry instruments to ``registry``.

        Registries are never part of checkpoints; call this after
        :func:`~repro.core.checkpoint.loads_spire` to resume accounting
        (optionally after seeding the registry from a snapshot taken at
        checkpoint time, so totals survive failover).
        """
        if registry is None or not registry.enabled:
            self.metrics = None
            self._m = None
            return
        self.metrics = registry
        self._m = _SpireMetrics(registry, self)

    def attach_trace(self, trace) -> None:
        """(Re)bind the per-epoch JSONL trace log (``None`` detaches)."""
        self._trace = trace

    # ------------------------------------------------------------------

    def process_epoch(self, readings: EpochReadings) -> EpochOutput:
        """Run the full substrate over one epoch of raw readings."""
        now = readings.epoch
        if self._last_epoch is not None and now <= self._last_epoch:
            raise ValueError(
                f"epoch {now} is not after the last processed epoch "
                f"{self._last_epoch}; epochs must strictly increase "
                f"(re-sequence the stream, e.g. with repro.faults.ResilientStream)"
            )
        clean = self.dedup.process(readings)
        # reject a batch naming an unknown reader while nothing has moved:
        # dedup keeps no state, so the corrected epoch can still be fed
        self.updater.check_readers(clean, self.deployment.readers)
        self._last_epoch = now

        if self.health is not None:
            self.health.observe_epoch(clean, now)
            suppressed = self.health.suppressed_colors()
            self.updater.suppressed_colors = suppressed
            self.inference.suppressed_colors = suppressed

        t0 = perf_counter()
        self.updater.apply_epoch(clean, self.deployment.readers, now)
        if self.health is not None:
            suppressed = self.updater.suppressed_colors
            if suppressed != self._last_suppressed:
                # outage onset or recovery: the decay behaviour of every
                # object last seen at an affected location changes, so
                # those nodes join this epoch's dirty set
                self.graph.mark_recent_colors_dirty(
                    suppressed ^ self._last_suppressed
                )
                self._last_suppressed = suppressed
        t1 = perf_counter()

        complete = now % self._complete_period == 0
        result = self.inference.run(now, complete)
        resolve_conflicts(result)
        t2 = perf_counter()

        dirty_nodes = self.graph.dirty_count
        messages = self._apply_result(result, now)
        departed = self._retire_exited(now, messages)
        self._epochs_processed += 1
        m = self._m
        if m is not None:
            m.readings.inc(readings.reading_count)
            m.deduped.inc(readings.reading_count - clean.reading_count)
            m.raw_bytes.inc(readings.raw_bytes)
            (m.epochs_complete if complete else m.epochs_partial).inc()
            m.dirty.set(dirty_nodes)
            m.dirty_total.inc(dirty_nodes)
            drawn = self.updater.candidate_edges
            m.candidate_edges.inc(drawn - m.last_candidate)
            m.last_candidate = drawn
            m.events.inc(len(messages))
            # the codec is fixed-width: count the bytes, do not encode them
            m.event_bytes.inc(EVENT_MESSAGE_BYTES * len(messages))
            m.graph_nodes.set(self.graph.node_count)
            m.graph_edges.set(self.graph.edge_count)
            m.tracked.set(len(self.estimates))
            m.departed.inc(len(departed))
            m.update_seconds.observe(t1 - t0)
            m.inference_seconds.observe(t2 - t1)
        if self._trace is not None:
            self._trace.epoch(
                now,
                {"update": t1 - t0, "inference": t2 - t1},
                complete=complete,
                dirty_nodes=dirty_nodes,
                messages=len(messages),
            )
        return EpochOutput(
            epoch=now,
            complete=complete,
            result=result,
            messages=messages,
            departed=departed,
            update_seconds=t1 - t0,
            inference_seconds=t2 - t1,
            dirty_nodes=dirty_nodes,
        )

    def run(self, stream: ReadingStream | Iterable[EpochReadings]) -> list[EpochOutput]:
        """Process a whole stream; returns the per-epoch outputs."""
        return [self.process_epoch(readings) for readings in stream]

    # ------------------------------------------------------------------

    def location_of(self, tag: TagId) -> int:
        """Most likely location color of ``tag`` (the §II query); UNKNOWN_COLOR
        when the object is estimated absent or has never been seen."""
        current = self.estimates.get(tag)
        return current.location if current is not None else UNKNOWN_COLOR

    def container_of(self, tag: TagId) -> TagId | None:
        """Most likely container of ``tag`` (the §II query)."""
        current = self.estimates.get(tag)
        return current.container if current is not None else None

    @property
    def tracked_objects(self) -> int:
        return len(self.estimates)

    # ------------------------------------------------------------------

    def _apply_result(self, result: InterpretationResult, now: int) -> list[EventMessage]:
        """Merge inference results into the store and compress the deltas."""
        messages: list[EventMessage] = []
        exiting = self.updater.exiting
        estimates = self.estimates
        reported = self.compressor.state_of
        observe = self.compressor.observe
        for estimate in sorted(result, key=lambda e: e.tag):
            tag = estimate.tag
            estimate.exiting = tag in exiting
            current = estimates.get(tag)
            container = estimate.container
            source = estimate.source
            if source is LocationSource.WITHHELD:
                # §IV-D: unknown results of partial inference are withheld;
                # only the containment estimate is taken
                if current is None:
                    # a brand-new object with a withheld location has
                    # nothing to report yet
                    estimates[tag] = CurrentEstimate(UNKNOWN_COLOR, container, False, now)
                    continue
                location = current.location
            else:
                location = estimate.location
            observed = source is LocationSource.OBSERVED
            if (
                current is not None
                and current.location == location
                and current.container == container
                and reported(tag) is not None
            ):
                # No delta: the compressor was last told exactly this pair
                # (it has state for the tag only from an ``observe``, and
                # every ``observe`` is paired with the store write of the
                # same pair), and a repeated pair emits nothing and changes
                # no compressor state — contained: suppressed; uncontained:
                # same open interval; unknown: already missing.
                current.observed = observed
                current.updated_at = now
                continue
            estimates[tag] = CurrentEstimate(location, container, observed, now)
            messages.extend(observe(tag, location, container, now))
        return messages

    # ------------------------------------------------------------------
    # zone handoff primitives (used by repro.distributed)
    # ------------------------------------------------------------------

    def release(self, tag: TagId, now: int) -> tuple[dict, list[EventMessage]]:
        """Stop tracking ``tag`` and export its portable knowledge.

        Returns ``(record, messages)``: the record carries the observation
        memory and the last confirmation so an adopting substrate does not
        start from zero; the messages close the object's open intervals in
        this substrate's output stream.  Used when an object migrates to a
        different zone (see :mod:`repro.distributed`).
        """
        node = self.graph.get(tag)
        record = {
            "tag": tag,
            "recent_color": node.recent_color if node is not None else None,
            "seen_at": node.seen_at if node is not None else now,
            "confirmed_parent": node.confirmed_parent if node is not None else None,
            "confirmed_at": node.confirmed_at if node is not None else -1,
            "confirmed_conflicts": node.confirmed_conflicts if node is not None else 0,
        }
        messages = self.compressor.depart(tag, now)
        if node is not None:
            self.graph.remove_node(tag)
        self.estimates.pop(tag, None)
        return record, messages

    def adopt(self, record: dict, now: int) -> None:
        """Import an object released by another substrate.

        Creates (or updates) the node with the exported observation memory
        and confirmation, so edge inference in this zone starts with the
        containment knowledge the previous zone accumulated.
        """
        tag: TagId = record["tag"]
        node = self.graph.get_or_create(tag, now)
        if record.get("recent_color") is not None and node.recent_color is None:
            node.recent_color = record["recent_color"]
            node.seen_at = record["seen_at"]
            self.graph.mark_dirty(node)
        confirmed = record.get("confirmed_parent")
        if confirmed is not None and node.confirmed_parent is None:
            node.confirmed_parent = confirmed
            node.confirmed_at = record.get("confirmed_at", now)
            node.confirmed_conflicts = record.get("confirmed_conflicts", 0)
            self.graph.mark_dirty(node)

    def _retire_exited(self, now: int, messages: list[EventMessage]) -> list[TagId]:
        """Remove nodes of objects read at a proper exit channel (§IV-C)."""
        departed: list[TagId] = []
        for tag in sorted(self.updater.exiting):
            if tag not in self.graph:
                continue
            messages.extend(self.compressor.depart(tag, now))
            self.graph.remove_node(tag)
            self.estimates.pop(tag, None)
            departed.append(tag)
        return departed
