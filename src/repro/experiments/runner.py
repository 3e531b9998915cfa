"""Experiment runner: trace → pipeline → metrics.

Drives a :class:`~repro.simulator.warehouse.SimulationResult` through SPIRE
or SMURF, scoring per-epoch accuracy online (so long traces do not require
storing per-epoch estimate snapshots) and collecting the compressed output
stream, per-epoch costs, and graph-size statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import SpireConfig, SpireSession
from repro.baselines.smurf import SmurfParams, SmurfPipeline
from repro.core.params import InferenceParams
from repro.core.pipeline import Deployment
from repro.compression.level1 import RangeCompressor
from repro.events.messages import EventMessage
from repro.metrics.accuracy import AccuracyAccumulator, ScoringPolicy
from repro.metrics.sizing import compression_ratio
from repro.simulator.warehouse import SimulationResult


@dataclass
class SpireRunReport:
    """Everything one SPIRE run over a trace produced.

    Attributes:
        messages: The full compressed output stream.
        accuracy: One accumulator per requested scoring policy.
        raw_bytes: Encoded size of the raw input stream.
        update_seconds / inference_seconds: Total wall-clock cost of the
            capture and inference steps across all epochs.
        epochs: Number of epochs processed.
        peak_nodes / peak_edges: Largest graph seen during the run.
        final_memory_bytes: Graph memory estimate at the end of the run.
    """

    messages: list[EventMessage]
    accuracy: dict[ScoringPolicy, AccuracyAccumulator]
    raw_bytes: int
    update_seconds: float = 0.0
    inference_seconds: float = 0.0
    epochs: int = 0
    peak_nodes: int = 0
    peak_edges: int = 0
    final_memory_bytes: int = 0
    peak_memory_bytes: int = 0

    @property
    def compression_ratio(self) -> float:
        return compression_ratio(self.messages, self.raw_bytes)


def run_spire(
    sim: SimulationResult,
    params: InferenceParams | None = None,
    compression_level: int = 2,
    policies: tuple[ScoringPolicy, ...] = (ScoringPolicy.ALL,),
    score: bool = True,
) -> SpireRunReport:
    """Run SPIRE over a simulated trace, scoring accuracy per epoch."""
    session = SpireSession(
        SpireConfig.from_simulation(
            sim, params=params, compression_level=compression_level
        )
    )
    spire = session.spire
    exclude = frozenset({sim.layout.entry_door.color})
    accuracy = {
        policy: AccuracyAccumulator(policy=policy, exclude_colors=exclude)
        for policy in policies
    }
    report = SpireRunReport(messages=[], accuracy=accuracy, raw_bytes=sim.stream.raw_bytes)

    snapshots = sim.truth.snapshots
    for readings, snapshot in zip(sim.stream, snapshots):
        output = spire.process_epoch(readings)
        report.messages.extend(output.messages)
        report.update_seconds += output.update_seconds
        report.inference_seconds += output.inference_seconds
        report.epochs += 1
        report.peak_nodes = max(report.peak_nodes, spire.graph.node_count)
        report.peak_edges = max(report.peak_edges, spire.graph.edge_count)
        report.peak_memory_bytes = max(report.peak_memory_bytes, spire.graph.memory_bytes())
        if score:
            for accumulator in accuracy.values():
                accumulator.score_epoch(spire, snapshot)
    report.final_memory_bytes = spire.graph.memory_bytes()
    return report


@dataclass
class SmurfRunReport:
    """Results of one SMURF run over a trace (location-only)."""

    messages: list[EventMessage]
    accuracy: AccuracyAccumulator
    raw_bytes: int
    epochs: int = 0

    @property
    def compression_ratio(self) -> float:
        return compression_ratio(self.messages, self.raw_bytes)


def run_smurf(
    sim: SimulationResult,
    params: SmurfParams | None = None,
    policy: ScoringPolicy = ScoringPolicy.ALL,
    score: bool = True,
) -> SmurfRunReport:
    """Run the SMURF baseline over a simulated trace."""
    deployment = Deployment.from_readers(sim.layout.readers, sim.layout.registry)
    smurf = SmurfPipeline(deployment, params)
    exclude = frozenset({sim.layout.entry_door.color})
    accuracy = AccuracyAccumulator(policy=policy, exclude_colors=exclude)
    report = SmurfRunReport(messages=[], accuracy=accuracy, raw_bytes=sim.stream.raw_bytes)

    for readings, snapshot in zip(sim.stream, sim.truth.snapshots):
        report.messages.extend(smurf.process_epoch(readings))
        report.epochs += 1
        if score:
            _score_smurf(smurf, snapshot, accuracy)
    return report


def _score_smurf(smurf: SmurfPipeline, snapshot, accuracy: AccuracyAccumulator) -> None:
    """Location-only scoring for SMURF (it has no graph/containment)."""
    for tag, location in snapshot.locations.items():
        true_color = location.color
        if true_color in accuracy.exclude_colors:
            continue
        accuracy.location_total += 1
        if smurf.location_of(tag) != true_color:
            accuracy.location_errors += 1


def ground_truth_stream(
    sim: SimulationResult,
    include_containment: bool = True,
    exclude_colors: frozenset[int] = frozenset(),
) -> list[EventMessage]:
    """The ground truth as a level-1 compressed event stream (§VI-D).

    Pushes every per-epoch truth snapshot through a range compressor as if
    inference were perfect; serves as the Expt 7 reference.  Locations in
    ``exclude_colors`` (e.g. the entry door) are reported as-is — exclusion
    happens at matching time by filtering, not here — so the reference is a
    faithful compression of the world history.
    """
    compressor = RangeCompressor(emit_location=True, emit_containment=include_containment)
    messages: list[EventMessage] = []
    known: set = set()
    for snapshot in sim.truth.snapshots:
        now = snapshot.epoch
        current = set(snapshot.locations)
        for tag in sorted(known - current):
            messages.extend(compressor.depart(tag, now))
        known = current
        for tag in sorted(current):
            location = snapshot.locations[tag]
            container = snapshot.containers.get(tag)
            messages.extend(
                compressor.observe(tag, location.color, container, now)
            )
    return messages
