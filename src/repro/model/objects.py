"""RFID-tagged objects and EPC-style tag identifiers.

The EPCglobal tag data standard (paper reference [8]) requires every tag id
to encode the *packaging level* of the object it is affixed to: an item, a
case, or a pallet.  SPIRE's graph model relies on this to arrange nodes into
layers, so the tag id type here carries the packaging level explicitly and
can render a standards-flavoured URN for display and serialization.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterator, NamedTuple


class PackagingLevel(IntEnum):
    """Packaging level encoded in an EPC tag id.

    Levels are ordered: a higher level may (directly or transitively)
    contain objects of lower levels.  The numeric values double as graph
    layer indices in :mod:`repro.core.graph`.
    """

    ITEM = 1
    CASE = 2
    PALLET = 3

    @property
    def short_name(self) -> str:
        """Lower-case name used in URNs and trace dumps."""
        return self.name.lower()

    def levels_below(self) -> "list[PackagingLevel]":
        """Packaging levels strictly below this one, closest first."""
        return [PackagingLevel(v) for v in range(self.value - 1, 0, -1)]

    def levels_above(self) -> "list[PackagingLevel]":
        """Packaging levels strictly above this one, closest first."""
        max_level = max(PackagingLevel)
        return [PackagingLevel(v) for v in range(self.value + 1, max_level + 1)]


#: serial numbers fit 48 bits in every compact encoding (matches the
#: event/reading wire formats in :mod:`repro.events.codec` and
#: :mod:`repro.readers.codec`)
_KEY_SERIAL_BITS = 48
_KEY_SERIAL_MASK = (1 << _KEY_SERIAL_BITS) - 1
#: packaging level by value: a dict lookup, where ``PackagingLevel(v)`` is
#: a call into the Enum machinery (tag keys sit on every wire frame, and
#: the event codec decodes every message's levels through this table)
LEVEL_BY_VALUE = {level.value: level for level in PackagingLevel}


class TagId(NamedTuple):
    """An EPC-style tag identifier: packaging level plus a serial number.

    ``TagId`` is a value type (hashable, comparable) used as the object key
    throughout the library: in readings, in the graph model, in event
    messages, and in ground truth.
    """

    level: PackagingLevel
    serial: int

    def key(self) -> int:
        """Pack into a single unsigned 64-bit key: ``level << 48 | serial``.

        Serial 0 is reserved (see :class:`TagAllocator`), so key 0 never
        names a real object and doubles as the "no tag" sentinel in compact
        encodings (checkpoints, the distributed wire protocol).
        """
        return (self.level << _KEY_SERIAL_BITS) | self.serial

    @classmethod
    def from_key(cls, key: int) -> "TagId":
        """Inverse of :meth:`key`; ``ValueError`` for an unknown level."""
        level = LEVEL_BY_VALUE.get(key >> _KEY_SERIAL_BITS)
        if level is None:
            raise ValueError(f"{key >> _KEY_SERIAL_BITS} is not a valid PackagingLevel")
        return tuple.__new__(cls, (level, key & _KEY_SERIAL_MASK))

    def urn(self, company_prefix: str = "0614141") -> str:
        """Render an SGTIN-flavoured URN for this tag.

        The company prefix defaults to the EPCglobal documentation example.
        The URN is only for human consumption; equality and hashing use the
        (level, serial) pair.
        """
        return f"urn:epc:id:sgtin:{company_prefix}.{self.level.short_name}.{self.serial}"

    def __str__(self) -> str:
        return f"{self.level.short_name}:{self.serial}"


class TagAllocator:
    """Monotonic serial-number allocator, one counter per packaging level.

    The simulator uses a single allocator per run so every object in a trace
    has a unique tag.  Serials start at 1; serial 0 is reserved as a
    sentinel "no object" value in compact encodings.
    """

    def __init__(self) -> None:
        self._next_serial = {level: 1 for level in PackagingLevel}

    def allocate(self, level: PackagingLevel) -> TagId:
        """Return a fresh :class:`TagId` at the given packaging level."""
        serial = self._next_serial[level]
        self._next_serial[level] = serial + 1
        return TagId(level, serial)

    def allocate_many(self, level: PackagingLevel, count: int) -> list[TagId]:
        """Return ``count`` fresh tags at the given packaging level."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.allocate(level) for _ in range(count)]

    def allocated_count(self, level: PackagingLevel) -> int:
        """Number of tags handed out so far at ``level``."""
        return self._next_serial[level] - 1


def allocate_tags(level: PackagingLevel, count: int, start: int = 1) -> Iterator[TagId]:
    """Yield ``count`` consecutive tags at ``level`` starting at ``start``.

    Convenience for tests and examples that need a handful of tags without
    carrying a :class:`TagAllocator` around.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    for serial in range(start, start + count):
        yield TagId(level, serial)
