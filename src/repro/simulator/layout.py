"""Warehouse layout: locations and the six reader groups of Section VI-A.

Reader group numbering follows the paper:

1. entry door, 2. receiving belt, 3. shelves, 4. packaging area,
5. exit belt, 6. exit door.

The receiving and exit belts carry *special* readers (they scan one
container at a time, confirming containment); the exit door reader marks a
proper exit channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.model.locations import Location, LocationKind, LocationRegistry
from repro.model.objects import PackagingLevel
from repro.readers.reader import Reader, ReaderKind
from repro.simulator.config import SimulationConfig


@dataclass
class WarehouseLayout:
    """Locations and readers of one simulated warehouse."""

    registry: LocationRegistry
    entry_door: Location
    receiving_belt: Location
    shelves: list[Location]
    packaging: Location
    exit_belt: Location
    exit_door: Location
    readers: list[Reader] = field(default_factory=list)

    @classmethod
    def build(cls, config: SimulationConfig) -> "WarehouseLayout":
        """Construct the standard six-group layout for ``config``."""
        registry = LocationRegistry()
        entry_door = registry.create("entry-door", LocationKind.ENTRY_DOOR)
        receiving_belt = registry.create("receiving-belt", LocationKind.BELT)
        shelves = [
            registry.create(f"shelf-{i + 1}", LocationKind.SHELF)
            for i in range(config.num_shelves)
        ]
        packaging = registry.create("packaging-area", LocationKind.PACKAGING)
        exit_belt = registry.create("exit-belt", LocationKind.BELT)
        exit_door = registry.create("exit-door", LocationKind.EXIT_DOOR)

        layout = cls(
            registry=registry,
            entry_door=entry_door,
            receiving_belt=receiving_belt,
            shelves=shelves,
            packaging=packaging,
            exit_belt=exit_belt,
            exit_door=exit_door,
        )

        fast = config.non_shelf_read_period
        next_id = 0

        def add(
            location: Location,
            kind: ReaderKind,
            period: int,
            singulation: PackagingLevel | None = None,
        ) -> None:
            nonlocal next_id
            layout.readers.append(
                Reader(
                    reader_id=next_id,
                    location=location,
                    period=period,
                    read_rate=config.read_rate_for(location.kind),
                    kind=kind,
                    singulation_level=singulation,
                )
            )
            next_id += 1

        add(entry_door, ReaderKind.NORMAL, fast)                             # group 1
        add(receiving_belt, ReaderKind.SPECIAL, fast, PackagingLevel.CASE)   # group 2
        for shelf in shelves:                                                # group 3
            add(shelf, ReaderKind.NORMAL, config.shelf_read_period)
        add(packaging, ReaderKind.NORMAL, fast)                              # group 4
        add(exit_belt, ReaderKind.SPECIAL, fast, PackagingLevel.PALLET)      # group 5
        add(exit_door, ReaderKind.EXIT, fast)                                # group 6
        return layout

    def reader_by_id(self, reader_id: int) -> Reader:
        """Look up a reader; raises ``KeyError`` for unknown ids."""
        for reader in self.readers:
            if reader.reader_id == reader_id:
                return reader
        raise KeyError(f"no reader with id {reader_id}")
