"""Structured warnings and the quarantine for degraded ingestion.

The fault layer never raises on bad input; it records what it absorbed.
Every anomaly the resilient front-end (or the zone coordinator) handles —
a duplicate batch, a late batch behind the watermark, readings from an
unknown reader, a synthesized gap, a lost zone or worker — becomes one
:class:`IngestWarning`, and any readings that had to be withheld from the
pipeline land in a :class:`Quarantine` next to the warning that explains
them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.model.objects import TagId


class WarningKind:
    """Warning kinds emitted by the fault layer (plain strings, stable API)."""

    DUPLICATE_BATCH = "duplicate_batch"
    LATE_BATCH = "late_batch"
    GAP_SYNTHESIZED = "gap_synthesized"
    UNKNOWN_READER = "unknown_reader"
    UNMAPPED_READER = "unmapped_reader"
    ZONE_FAILED = "zone_failed"
    ZONE_RECOVERED = "zone_recovered"
    ZONE_REHOMED = "zone_rehomed"
    EMPTY_ZONE = "empty_zone"
    SUBSCRIPTION_OVERFLOW = "subscription_overflow"
    SUBSCRIPTION_EVICTED = "subscription_evicted"
    PATTERN_QUARANTINED = "pattern_quarantined"
    WORKER_LOST = "worker_lost"
    WORKER_ZOMBIE = "worker_zombie"


@dataclass(frozen=True)
class IngestWarning:
    """One absorbed input anomaly.

    Attributes:
        kind: One of the :class:`WarningKind` constants.
        epoch: Epoch the anomaly was detected at (the *processing* epoch for
            late/duplicate batches, which may differ from the batch's own).
        reader_id: Offending reader, when the anomaly is reader-scoped.
        detail: Human-readable elaboration (epoch ranges, counts, zone ids).
    """

    kind: str
    epoch: int
    reader_id: int | None = None
    detail: str = ""

    def __str__(self) -> str:
        reader = f" reader={self.reader_id}" if self.reader_id is not None else ""
        detail = f": {self.detail}" if self.detail else ""
        return f"[{self.kind} @ {self.epoch}{reader}]{detail}"


@dataclass
class QuarantinedReading:
    """One reading withheld from the pipeline, with its provenance."""

    tag: TagId
    reader_id: int
    epoch: int
    reason: str


@dataclass
class Quarantine:
    """Collects warnings and withheld readings for later inspection."""

    warnings: list[IngestWarning] = field(default_factory=list)
    readings: list[QuarantinedReading] = field(default_factory=list)
    #: telemetry registry (see :mod:`repro.obs`); ``None`` keeps the
    #: quarantine metrics-free with zero overhead
    _metrics: object | None = None

    def attach_metrics(self, registry) -> None:
        """Mirror warnings/held readings into ``spire_warnings_total{kind}``
        and ``spire_quarantined_readings_total{kind}`` on ``registry``."""
        self._metrics = registry if registry is not None and registry.enabled else None

    def warn(
        self,
        kind: str,
        epoch: int,
        reader_id: int | None = None,
        detail: str = "",
    ) -> IngestWarning:
        warning = IngestWarning(kind=kind, epoch=epoch, reader_id=reader_id, detail=detail)
        self.warnings.append(warning)
        if self._metrics is not None:
            self._metrics.counter(
                "spire_warnings_total", "Structured ingest warnings by kind", kind=kind
            ).inc()
        return warning

    def hold(self, tag: TagId, reader_id: int, epoch: int, reason: str) -> None:
        self.readings.append(
            QuarantinedReading(tag=tag, reader_id=reader_id, epoch=epoch, reason=reason)
        )
        if self._metrics is not None:
            self._metrics.counter(
                "spire_quarantined_readings_total",
                "Readings withheld from the pipeline by kind",
                kind=reason,
            ).inc()

    def counts(self) -> dict[str, int]:
        """Warning tally by kind (for reports and the chaos CLI)."""
        return dict(Counter(w.kind for w in self.warnings))

    def __len__(self) -> int:
        return len(self.warnings)
