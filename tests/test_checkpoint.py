"""Unit tests for substrate checkpoint/restore."""

import io

import pytest

from repro.core.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.capture import ReaderInfo
from repro.core.pipeline import Spire

from tests.conftest import case, epoch_readings, item, make_deployment

DOCK = ReaderInfo(reader_id=0, color=0)
SHELF = ReaderInfo(reader_id=1, color=1, period=5)
DEPLOYMENT = make_deployment(DOCK, SHELF)


def _warm_spire() -> Spire:
    spire = Spire(DEPLOYMENT)
    for epoch in range(6):
        spire.process_epoch(epoch_readings(epoch, {0: [case(1), item(1), item(2)]}))
    return spire


class TestRoundTrip:
    def test_file_roundtrip(self, tmp_path):
        spire = _warm_spire()
        path = tmp_path / "state.ckpt"
        save_checkpoint(spire, path)
        restored = load_checkpoint(path)
        assert restored.graph.node_count == spire.graph.node_count
        assert restored.graph.edge_count == spire.graph.edge_count
        assert restored.estimates.keys() == spire.estimates.keys()

    def test_buffer_roundtrip(self):
        spire = _warm_spire()
        buffer = io.BytesIO()
        save_checkpoint(spire, buffer)
        buffer.seek(0)
        restored = load_checkpoint(buffer)
        assert restored.location_of(item(1)) == spire.location_of(item(1))

    def test_restored_instance_continues_processing(self, tmp_path):
        spire = _warm_spire()
        path = tmp_path / "state.ckpt"
        save_checkpoint(spire, path)
        restored = load_checkpoint(path)

        # both instances process the same subsequent epochs identically
        for epoch in range(6, 12):
            readings = epoch_readings(epoch, {0: [case(1), item(2)]})  # item 1 missed
            original_out = spire.process_epoch(readings)
            readings2 = epoch_readings(epoch, {0: [case(1), item(2)]})
            restored_out = restored.process_epoch(readings2)
            assert [str(m) for m in original_out.messages] == [
                str(m) for m in restored_out.messages
            ]
        assert restored.location_of(item(1)) == spire.location_of(item(1))
        assert restored.container_of(item(1)) == spire.container_of(item(1))


class TestValidation:
    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(io.BytesIO(b"not a checkpoint at all"))

    def test_corrupt_payload_rejected(self):
        buffer = io.BytesIO(b"SPIREfast" + b"\x00garbage\xff")
        with pytest.raises(CheckpointError, match="corrupt|format"):
            load_checkpoint(buffer)
        # the retired pickle envelope is refused by its magic, never unpickled
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(io.BytesIO(b"SPIREckpt" + b"\x00garbage\xff"))

    def test_wrong_fast_version_rejected(self, tmp_path, monkeypatch):
        import repro.core.fastcheckpoint as fast

        spire = _warm_spire()
        path = tmp_path / "state.ckpt"
        save_checkpoint(spire, path)
        monkeypatch.setattr(fast, "FAST_FORMAT_VERSION", 999)
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        """A checkpoint cut short mid-payload (the failure atomic writes
        prevent) raises CheckpointError rather than a bare pickle error."""
        spire = _warm_spire()
        path = tmp_path / "state.ckpt"
        save_checkpoint(spire, path)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)


class TestAtomicWrite:
    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(_warm_spire(), path)
        save_checkpoint(_warm_spire(), path)  # overwrite goes through a temp too
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ckpt"]

    def test_failed_write_preserves_previous_checkpoint(self, tmp_path, monkeypatch):
        import repro.core.checkpoint as ckpt

        path = tmp_path / "state.ckpt"
        save_checkpoint(_warm_spire(), path)
        before = path.read_bytes()

        def explode(*args, **kwargs):
            raise OSError("disk full")

        # fail mid-write, after the temp file exists but before the replace
        monkeypatch.setattr(ckpt.os, "fsync", explode)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(_warm_spire(), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ckpt"]
        assert isinstance(load_checkpoint(path), Spire)
