"""Reader-health monitoring and graceful degradation.

A silently dead reader is indistinguishable, epoch by epoch, from a reader
whose field of view is empty: both contribute nothing to ``by_reader``.
The difference shows over time — a reader that has reported *nothing* for
``k`` times its interrogation period is presumed down (tags rarely all
leave a monitored location at once without an exit reading).

:class:`ReaderHealthMonitor` tracks last-report times per reader and
derives the set of **suppressed colors**: locations where *every* mapped
reader is presumed down.  The pipeline threads this set into
:class:`~repro.core.capture.GraphUpdater` and
:class:`~repro.core.iterative.IterativeInference`, where it stops non-reads
from decaying location posteriors or accumulating negative containment
evidence — a dead shelf reader must not make every object on the shelf
drift toward "missing".  When the reader returns, suppression lifts and
normal decay resumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.warnings import IngestWarning, WarningKind
from repro.readers.stream import EpochReadings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (capture imports stream)
    from repro.core.capture import ReaderInfo

__all__ = ["ReaderHealthMonitor"]


class ReaderHealthMonitor:
    """Flags readers silent for longer than ``k`` interrogation periods.

    Args:
        readers: The deployment's reader metadata (id -> ReaderInfo).
        k: Silence tolerance in interrogation periods.  A reader with
            period ``p`` is presumed down once it has reported nothing for
            more than ``k * p`` epochs.  Must allow at least a few missed
            interrogations (``k >= 1``).
    """

    def __init__(self, readers: "dict[int, ReaderInfo]", k: float = 3.0) -> None:
        if k < 1.0:
            raise ValueError(f"silence tolerance k must be >= 1, got {k}")
        self._readers = dict(readers)
        self.k = k
        # derived at registration time (not per epoch): per-reader silence
        # limit in epochs, and the color each reader maps to
        self._silence_limit: dict[int, float] = {
            reader_id: k * info.period for reader_id, info in self._readers.items()
        }
        self._color_of: dict[int, int] = {
            reader_id: info.color for reader_id, info in self._readers.items()
        }
        self._last_report: dict[int, int] = {}
        self._baseline: int | None = None
        self._down: set[int] = set()
        #: reader_silent / reader_recovered transitions, in detection order
        self.events: list[IngestWarning] = []

    # ------------------------------------------------------------------

    def observe_epoch(self, readings: EpochReadings, now: int) -> None:
        """Record one (deduplicated) epoch and update health state."""
        if self._baseline is None:
            self._baseline = now
        for reader_id in readings.by_reader:
            if reader_id not in self._readers:
                continue
            self._last_report[reader_id] = now
            if reader_id in self._down:
                self._down.discard(reader_id)
                self.events.append(
                    IngestWarning(
                        kind=WarningKind.READER_RECOVERED,
                        epoch=now,
                        reader_id=reader_id,
                        detail="reader reporting again; suppression lifted",
                    )
                )
        last_report = self._last_report
        baseline = self._baseline
        down = self._down
        for reader_id, limit in self._silence_limit.items():
            if reader_id in down:
                continue
            silent_for = now - last_report.get(reader_id, baseline)
            if silent_for > limit:
                down.add(reader_id)
                self.events.append(
                    IngestWarning(
                        kind=WarningKind.READER_SILENT,
                        epoch=now,
                        reader_id=reader_id,
                        detail=(
                            f"no report for {silent_for} epochs "
                            f"(> {self.k} x period {self._readers[reader_id].period})"
                        ),
                    )
                )

    # ------------------------------------------------------------------

    def is_silent(self, reader_id: int) -> bool:
        return reader_id in self._down

    def suppressed_colors(self) -> frozenset[int]:
        """Colors whose every mapped reader is presumed down.

        A location with at least one live reader still produces evidence,
        so its non-reads keep their normal meaning.
        """
        live: set[int] = set()
        candidates: set[int] = set()
        for reader_id, color in self._color_of.items():
            if reader_id in self._down:
                candidates.add(color)
            else:
                live.add(color)
        return frozenset(candidates - live)
