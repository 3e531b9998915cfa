"""Unit tests for substrate checkpoint/restore."""

import io
import pickle
import struct
from types import SimpleNamespace

import pytest

from repro.core.checkpoint import (
    CheckpointError,
    dumps_spire,
    load_checkpoint,
    loads_spire,
    save_checkpoint,
)
from repro.core.capture import ReaderInfo
from repro.core.fastcheckpoint import FAST_FORMAT_VERSION
from repro.core.pipeline import Spire
from repro.distributed import wire
from repro.distributed.worker import ZoneHost
from repro.faults import IngestWarning

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


    def test_exiting_tags_roundtrip(self):
        """Exit readings pending at checkpoint time survive the config blob:
        the restored substrate retires the same tags and continues with the
        same stream."""
        exit_reader = ReaderInfo(reader_id=2, color=2, is_exit=True)
        deployment = make_deployment(DOCK, SHELF, exit_reader)
        spire = Spire(deployment)
        for epoch in range(12):
            spire.process_epoch(epoch_readings(epoch, {0: [case(1), item(1), item(2)]}))
        spire.process_epoch(epoch_readings(12, {0: [case(1), item(1)], 2: [item(2)]}))
        assert spire.updater.exiting == {item(2)}
        restored = loads_spire(dumps_spire(spire))
        assert restored.updater.exiting == spire.updater.exiting
        for epoch in range(13, 20):
            readings = {0: [case(1)], 1: [item(1)]} if epoch % 5 == 0 else {0: [case(1)]}
            a = spire.process_epoch(epoch_readings(epoch, readings)).messages
            b = restored.process_epoch(epoch_readings(epoch, readings)).messages
            assert a == b


class _WritesFile:
    """Unpickling this opens (creates) a file: stands in for arbitrary code."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestValidation:
    def _refused_by_header(self, old, monkeypatch):
        import repro.core.fastcheckpoint as fast

        data = bytearray(dumps_spire(_warm_spire()))
        header = len(b"SPIREfast")
        assert data[header] == FAST_FORMAT_VERSION == 4
        data[header] = old
        monkeypatch.setattr(
            fast, "_Cursor", lambda data: pytest.fail("read past the header")
        )
        with pytest.raises(CheckpointError, match=f"format {old} incompatible"):
            loads_spire(bytes(data))

    def test_format_1_checkpoint_refused(self, monkeypatch):
        """Format 1 had three more int columns and a float column per node
        and two more sections; it is refused by its header, never half-read."""
        self._refused_by_header(1, monkeypatch)

    def test_format_2_checkpoint_refused(self, monkeypatch):
        """Format 2 ended in a dedup section that nothing read; a blob that
        still carries one is refused by its header like format 1."""
        self._refused_by_header(2, monkeypatch)

    def test_format_3_checkpoint_refused(self, monkeypatch):
        """Format 3's config blob carried four reader-health monitor fields
        that no substrate reads any more; it is refused by its header."""
        self._refused_by_header(3, monkeypatch)

    @staticmethod
    def _checkpoint_with_blob(config) -> bytes:
        blob = pickle.dumps(config)
        return (
            b"SPIREfast"
            + struct.pack("<BB", FAST_FORMAT_VERSION, 1)
            + struct.pack("<Q", len(blob))
            + blob
        )

    def test_config_blob_naming_a_foreign_callable_is_refused(self, tmp_path):
        """Checkpoint bytes reach a worker from its TCP port (MSG_INSTALL) and
        ``load_checkpoint`` from a file: a config blob may name only the
        classes real checkpoints contain, and nothing it names is called."""
        target = tmp_path / "pwned"
        checkpoint = self._checkpoint_with_blob(_WritesFile(str(target)))
        install = (wire.MSG_INSTALL, 0, "", SimpleNamespace(metrics=None), checkpoint)
        reply, done = ZoneHost().serve_bytes(wire.encode_request(install))
        assert reply[0] == wire.MSG_ERROR and done
        assert b"config blob references io.open" in reply
        with pytest.raises(CheckpointError, match="references io.open"):
            load_checkpoint(io.BytesIO(checkpoint))
        assert not target.exists()
        # a library class that no config blob written today contains is as
        # foreign as any other global
        warning = self._checkpoint_with_blob({"events": [IngestWarning("x", 0)]})
        with pytest.raises(
            CheckpointError, match="references repro.faults.warnings.IngestWarning"
        ):
            load_checkpoint(io.BytesIO(warning))

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
