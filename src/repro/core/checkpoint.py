"""Checkpoint and restore of a running substrate.

A production SPIRE instance runs for days; crashing must not lose the graph
statistics, confirmations and compressor state that took hours to
accumulate.  :func:`save_checkpoint` / :func:`load_checkpoint` persist a
:class:`~repro.core.pipeline.Spire` instance so processing can resume at
the next epoch.

The payload is the versioned, slots-aware binary encoding of
:mod:`repro.core.fastcheckpoint` — field-batched flat sections, no
recursive object walk, fast enough to run inside the epoch loop — behind
a magic prefix; the format version inside it guards against silently
loading a checkpoint from an incompatible library version.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import BinaryIO

from repro.core.fastcheckpoint import FastCheckpointError, decode_spire, encode_spire
from repro.core.pipeline import Spire

_MAGIC = b"SPIREfast"


class CheckpointError(RuntimeError):
    """Raised when a checkpoint cannot be written or restored."""


def dumps_spire(spire: Spire) -> bytes:
    """Serialise ``spire`` to checkpoint bytes (magic + payload)."""
    return _MAGIC + encode_spire(spire)


def loads_spire(data: bytes) -> Spire:
    """Restore a substrate from :func:`dumps_spire` bytes."""
    if data[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError("not a SPIRE checkpoint (bad magic)")
    try:
        return decode_spire(data[len(_MAGIC) :])
    except FastCheckpointError as exc:
        raise CheckpointError(str(exc)) from exc
    except Exception as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from exc


def save_checkpoint(spire: Spire, destination: str | Path | BinaryIO) -> None:
    """Persist ``spire`` (graph, estimates, compressor state).

    Path destinations are written **atomically**: the payload goes to a
    temporary file in the same directory, is fsynced, and then replaces the
    destination with ``os.replace``.  A crash mid-write therefore leaves
    either the previous checkpoint or none — never a truncated file that
    would fail to restore after the next crash.
    """
    data = dumps_spire(spire)
    if hasattr(destination, "write"):
        destination.write(data)  # type: ignore[union-attr]
        return
    target = Path(destination)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fp:
            fp.write(data)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_checkpoint(source: str | Path | BinaryIO) -> Spire:
    """Restore a substrate saved by :func:`save_checkpoint`."""
    if hasattr(source, "read"):
        return loads_spire(source.read())  # type: ignore[union-attr]
    return loads_spire(Path(source).read_bytes())
