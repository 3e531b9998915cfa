"""SMURF: per-tag adaptive-window smoothing (VLDB 2006), as a baseline.

SMURF views RFID readings as a random sample of the tags in a reader's
range.  For each tag it keeps a sliding window over the reader's recent
interrogation cycles and declares the tag *present* while the window holds
at least one reading.  The window size adapts per tag:

* **completeness** — with estimated per-interrogation read rate ``p_avg``,
  a window of ``N`` interrogations misses a present tag with probability
  ``(1 - p_avg)^N``; SMURF grows the window until that is below ``delta``
  (the π-estimator bound ``N* = ceil(ln(1/delta) / p_avg)``);
* **transition detection** — if the number of readings observed is
  statistically too low for a present tag (binomial mean minus two standard
  deviations), the tag has likely left mid-window and the window halves so
  the departure surfaces quickly.

The extension used for the Fig. 11 comparison (§VI-D): each smoothed-in
reading carries its static reader's location, the tag's estimated location
is the location of the reader it was last smoothed at (unknown when the
window empties), and a level-1 range compressor produces the output event
stream.  Exit readings retire the tag, mirroring SPIRE's exit handling.
SMURF produces no containment information.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from repro.compression.level1 import RangeCompressor
from repro.core.capture import ReaderInfo
from repro.model.locations import UNKNOWN_COLOR
from repro.core.pipeline import Deployment
from repro.events.messages import EventMessage
from repro.model.objects import TagId
from repro.readers.dedup import Deduplicator
from repro.readers.stream import EpochReadings, ReadingStream


@dataclass(frozen=True)
class SmurfParams:
    """SMURF tuning knobs.

    Attributes:
        delta: Completeness requirement — acceptable probability of missing
            a present tag within its window (VLDB'06 uses small constants;
            0.05 here).
        min_window: Smallest window, in interrogation cycles.
        max_window: Largest window, in interrogation cycles.
        initial_p: Read-rate prior used before any evidence accumulates.
    """

    delta: float = 0.05
    min_window: int = 1
    max_window: int = 25
    initial_p: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not 1 <= self.min_window <= self.max_window:
            raise ValueError("window bounds must satisfy 1 <= min <= max")
        if not 0.0 < self.initial_p <= 1.0:
            raise ValueError(f"initial_p must be in (0, 1], got {self.initial_p}")


@dataclass
class SmurfTagState:
    """Per-tag smoothing state.

    ``window`` counts interrogation *cycles* of the tag's current reader;
    the window in epochs is ``window * period``.  ``readings`` holds the
    epochs of readings from the current reader still inside the window.
    """

    reader_id: int
    color: int
    period: int
    window: int
    readings: deque[int] = field(default_factory=deque)
    last_reading: int = -1

    def window_epochs(self) -> int:
        return self.window * self.period


class SmurfPipeline:
    """SMURF cleaning + location events + level-1 compression.

    Drop-in comparable to :class:`repro.core.pipeline.Spire` for location
    output: :meth:`process_epoch` consumes one epoch of raw readings and
    returns the event messages emitted.
    """

    def __init__(self, deployment: Deployment, params: SmurfParams | None = None) -> None:
        self.deployment = deployment
        self.params = params or SmurfParams()
        self.dedup = Deduplicator()
        self.compressor = RangeCompressor(emit_location=True, emit_containment=False)
        self.tags: dict[TagId, SmurfTagState] = {}
        self.estimates: dict[TagId, int] = {}

    # ------------------------------------------------------------------

    def process_epoch(self, readings: EpochReadings) -> list[EventMessage]:
        """Smooth one epoch of readings and emit compressed location events."""
        now = readings.epoch
        clean = self.dedup.process(readings)
        exited: list[TagId] = []

        for reader_id, tags in clean.by_reader.items():
            info = self.deployment.readers.get(reader_id)
            if info is None:
                raise KeyError(f"reading from unknown reader id {reader_id}")
            for tag in tags:
                if info.is_exit:
                    exited.append(tag)
                self._smooth_in(tag, info, now)

        messages: list[EventMessage] = []
        for tag in sorted(self.tags):
            state = self.tags[tag]
            present = self._decide_presence(state, now)
            color = state.color if present else UNKNOWN_COLOR
            self.estimates[tag] = color
            messages.extend(self.compressor.observe(tag, color, None, now))

        for tag in sorted(set(exited)):
            messages.extend(self.compressor.depart(tag, now))
            self.tags.pop(tag, None)
            self.estimates.pop(tag, None)
        return messages

    def run(self, stream: ReadingStream | Iterable[EpochReadings]) -> list[EventMessage]:
        """Process a whole stream; returns the concatenated output."""
        out: list[EventMessage] = []
        for readings in stream:
            out.extend(self.process_epoch(readings))
        return out

    def location_of(self, tag: TagId) -> int:
        """Current location estimate (UNKNOWN_COLOR when absent/unknown)."""
        return self.estimates.get(tag, UNKNOWN_COLOR)

    # ------------------------------------------------------------------

    def _smooth_in(self, tag: TagId, info: ReaderInfo, now: int) -> None:
        state = self.tags.get(tag)
        if state is None or state.reader_id != info.reader_id:
            # first sighting, or a location transition: restart the window
            # at this reader (VLDB'06 resets state on mobility transitions)
            state = SmurfTagState(
                reader_id=info.reader_id,
                color=info.color,
                period=info.period,
                window=self.params.min_window,
            )
            self.tags[tag] = state
        state.readings.append(now)
        state.last_reading = now

    def _decide_presence(self, state: SmurfTagState, now: int) -> bool:
        """One SMURF decision step: adapt the window, decide presence.

        Follows the VLDB'06 per-tag algorithm: the read rate ``p_avg`` is
        estimated over the full window; the completeness (π-estimator)
        bound grows the window; the transition test compares the readings
        in the *recent half* of the window against the binomial expectation
        and halves the window on a significant deficit, so a departed tag
        is dropped quickly instead of lingering for a full large window.
        """
        params = self.params
        # expire readings that fell out of the window
        window_epochs = state.window_epochs()
        horizon = now - window_epochs + 1
        while state.readings and state.readings[0] < horizon:
            state.readings.popleft()

        observed = len(state.readings)
        cycles = max(1, window_epochs // state.period)
        p_avg = observed / cycles if observed else params.initial_p

        # completeness: grow the window until a present tag would be seen
        # with probability >= 1 - delta (N* = ceil(ln(1/delta) / p_avg))
        required = math.ceil(math.log(1.0 / params.delta) / max(p_avg, 1e-6))
        if cycles < required and state.window < params.max_window:
            state.window = min(params.max_window, state.window * 2)

        # transition detection over the recent half-window
        half_epochs = max(state.period, window_epochs // 2)
        half_cycles = max(1, half_epochs // state.period)
        observed_recent = sum(1 for epoch in state.readings if epoch > now - half_epochs)
        expected_recent = half_cycles * p_avg
        deficit = expected_recent - observed_recent
        sigma = math.sqrt(max(half_cycles * p_avg * (1.0 - p_avg), 1e-9))
        if observed > 0 and deficit > 2.0 * sigma:
            state.window = max(params.min_window, state.window // 2)

        return observed > 0
