"""Unit tests for the low-level deduplication module.

What the class does: each tag goes to the reader that reported it last
within the epoch, output keeps first-occurrence order, an upstream tag map
is reused instead of recomputed, and nothing is kept between epochs.
"""

from repro.readers.dedup import Deduplicator
from repro.readers.stream import EpochReadings

from tests.conftest import epoch_readings, item


class TestDeduplication:
    def test_single_reader_passthrough(self):
        dedup = Deduplicator()
        clean = dedup.process(epoch_readings(0, {0: [item(1), item(2)]}))
        assert clean.by_reader == {0: [item(1), item(2)]}

    def test_tag_read_by_two_readers_assigned_once(self):
        dedup = Deduplicator()
        clean = dedup.process(epoch_readings(0, {0: [item(1)], 1: [item(1)]}))
        total = sum(len(tags) for tags in clean.by_reader.values())
        assert total == 1

    def test_most_recent_reader_wins(self):
        # seq increases with reader id in EpochReadings.readings(), so the
        # later-arriving report (higher seq) wins
        dedup = Deduplicator()
        clean = dedup.process(epoch_readings(0, {0: [item(1)], 2: [item(1)]}))
        assert clean.by_reader == {2: [item(1)]}

    def test_last_report_wins_whatever_the_insertion_order(self):
        # "last" is by ascending reader id, not by when the batch was added
        dedup = Deduplicator()
        clean = dedup.process(epoch_readings(0, {2: [item(1)], 0: [item(1)]}))
        assert clean.by_reader == {2: [item(1)]}

    def test_output_keeps_first_occurrence_order(self):
        # item(2) is first reported by reader 0, before item(3); losing that
        # report to reader 1 does not move it behind item(3) in the tag map
        dedup = Deduplicator()
        clean = dedup.process(
            epoch_readings(
                0, {0: [item(1), item(2)], 1: [item(3), item(2), item(4)]}
            )
        )
        assert clean.by_reader == {0: [item(1)], 1: [item(2), item(3), item(4)]}
        assert list(clean.tag_to_reader()) == [item(1), item(2), item(3), item(4)]

    def test_nothing_carries_over_between_epochs(self):
        dedup = Deduplicator()
        dedup.process(epoch_readings(0, {2: [item(1)]}))
        # next epoch only reader 0 sees it: the assignment moves
        clean = dedup.process(epoch_readings(1, {0: [item(1)]}))
        assert clean.by_reader == {0: [item(1)]}
        # no per-tag state to prune: the instance holds nothing at all
        assert not vars(dedup)

    def test_cached_tag_map_is_reused(self):
        # an upstream pass already resolved the winners: its map is taken
        # as is (here it disagrees with by_reader on purpose) and handed on
        dedup = Deduplicator()
        readings = epoch_readings(0, {0: [item(1)], 1: [item(1), item(2)]})
        resolved = {item(2): 1, item(1): 0}
        readings.cache_tag_map(resolved)
        clean = dedup.process(readings)
        assert clean.by_reader == {1: [item(2)], 0: [item(1)]}
        assert clean.tag_to_reader() is resolved

    def test_output_carries_its_tag_map(self):
        dedup = Deduplicator()
        clean = dedup.process(epoch_readings(0, {0: [item(1)], 1: [item(1), item(2)]}))
        assert clean._tag_map == {item(1): 1, item(2): 1}
        # a second pass over clean output is the identity
        assert dedup.process(clean).by_reader == clean.by_reader

    def test_epoch_number_preserved(self):
        dedup = Deduplicator()
        clean = dedup.process(epoch_readings(7, {0: [item(1)]}))
        assert clean.epoch == 7

    def test_input_not_mutated(self):
        dedup = Deduplicator()
        original = epoch_readings(0, {0: [item(1)], 1: [item(1)]})
        dedup.process(original)
        assert original.by_reader == {0: [item(1)], 1: [item(1)]}

    def test_empty_epoch(self):
        dedup = Deduplicator()
        clean = dedup.process(EpochReadings(epoch=0))
        assert not clean
