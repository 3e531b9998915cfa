"""Low-level deduplication of overlapping reader reports.

SPIRE runs on top of a device-level cleaning layer whose only required
functionality is *deduplication* (Section II, final paragraph): when nearby
readers both report a tag in the same epoch, the tag is assigned to the
reader that read it most recently.

Within an epoch, "most recently" is sub-epoch arrival order: readings are
ordered by ascending reader id and then list position, exactly the order
:meth:`repro.readers.stream.EpochReadings.readings` assigns its strictly
increasing ``seq`` numbers in.  Because ``seq`` strictly increases over
that traversal, the *last* occurrence of a tag always wins — so the
deduplicator processes the per-reader batches directly, without
materialising a ``Reading`` triplet per raw read.  Nothing is remembered
across epochs: every epoch is resolved from its own reports alone.
"""

from __future__ import annotations

from repro.model.objects import TagId
from repro.readers.stream import EpochReadings


class Deduplicator:
    """Per-epoch deduplication of multiply-read tags.

    Usage::

        dedup = Deduplicator()
        clean = dedup.process(epoch_readings)   # one call per epoch
    """

    def process(self, epoch_readings: EpochReadings) -> EpochReadings:
        """Return a copy of ``epoch_readings`` with each tag reported once.

        The winning reader for a multiply-read tag is the one whose report
        arrived last within the epoch; the original input is not modified.
        Output tags keep their first-occurrence order (each winner list is
        ordered by when the tag was *first* reported, matching the
        insertion-order semantics of the winner map).
        """
        source = epoch_readings.by_reader
        # tag -> winning reader; later occurrences overwrite the value but
        # keep the tag's insertion position, preserving output order
        cached = epoch_readings._tag_map
        if cached is not None:
            # upstream already resolved winners (e.g. a prior dedup pass or
            # the coordinator's per-zone split); its insertion order is the
            # first-occurrence order we would recompute
            winner: dict[TagId, int] = cached
        elif len(source) == 1:
            # single reader: every tag trivially wins, in report order
            ((reader_id, tags),) = source.items()
            winner = dict.fromkeys(tags, reader_id)
        else:
            winner = {}
            for reader_id in sorted(source):
                tags = source[reader_id]
                for tag in tags:
                    winner[tag] = reader_id

        clean = EpochReadings(epoch=epoch_readings.epoch)
        out = clean.by_reader
        for tag, reader_id in winner.items():
            bucket = out.get(reader_id)
            if bucket is None:
                out[reader_id] = [tag]
            else:
                bucket.append(tag)
        clean.cache_tag_map(winner)
        return clean
