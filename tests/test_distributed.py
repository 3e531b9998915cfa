"""Tests for zone-partitioned distributed operation."""

import multiprocessing
import socket
import threading
import time

import pytest

from repro.core.params import InferenceParams
from repro.distributed import wire
from repro.distributed.coordinator import Coordinator, Zone, partition_by_location
from repro.distributed.supervisor import Deadlines, SupervisorStats
from repro.distributed.worker import SocketWorker, recv_frame, send_frame
from repro.events.wellformed import check_well_formed
from repro.model.locations import UNKNOWN_COLOR
from repro.model.objects import PackagingLevel
from repro.readers.reader import Reader, ReaderKind
from repro.simulator.config import SimulationConfig
from repro.simulator.warehouse import WarehouseSimulator

from tests.conftest import case, epoch_readings, item


def two_zone_setup():
    """Two zones with one reader each, sharing the global color space."""
    from repro.model.locations import Location, LocationKind, LocationRegistry

    registry = LocationRegistry()
    dock = registry.create("dock", LocationKind.ENTRY_DOOR)
    shelf = registry.create("shelf", LocationKind.SHELF)
    reader_a = Reader(0, dock)
    reader_b = Reader(1, shelf)
    zones = [
        Zone.build("zone-a", [reader_a], registry),
        Zone.build("zone-b", [reader_b], registry),
    ]
    return Coordinator(zones), dock, shelf


class TestConstruction:
    def test_duplicate_zone_id_rejected(self):
        coordinator, *_ = two_zone_setup()
        zone = next(iter(coordinator.zones.values()))
        with pytest.raises(ValueError, match="duplicate zone id"):
            Coordinator([zone, zone])

    def test_reader_in_two_zones_rejected(self):
        from repro.model.locations import Location, LocationRegistry

        registry = LocationRegistry()
        loc = registry.create("dock")
        reader = Reader(0, loc)
        with pytest.raises(ValueError, match="assigned to both"):
            Coordinator(
                [
                    Zone.build("a", [reader], registry),
                    Zone.build("b", [reader], registry),
                ]
            )

    def test_empty_coordinator_rejected(self):
        with pytest.raises(ValueError, match="at least one zone"):
            Coordinator([])

    def test_partition_by_location(self):
        config = SimulationConfig(duration=10, num_shelves=2)
        from repro.simulator.layout import WarehouseLayout

        layout = WarehouseLayout.build(config)
        zones = partition_by_location(
            layout.readers,
            {
                "inbound": ["entry-door", "receiving-belt"],
                "storage": ["shelf-1", "shelf-2"],
                "outbound": ["packaging-area", "exit-belt", "exit-door"],
            },
            layout.registry,
        )
        assert {z.zone_id for z in zones} == {"inbound", "storage", "outbound"}
        total = sum(len(z.reader_ids) for z in zones)
        assert total == len(layout.readers)

    def test_partition_unassigned_location_rejected(self):
        config = SimulationConfig(duration=10)
        from repro.simulator.layout import WarehouseLayout

        layout = WarehouseLayout.build(config)
        with pytest.raises(ValueError, match="assigned to no zone"):
            partition_by_location(layout.readers, {"only": ["entry-door"]}, layout.registry)


class TestHandoff:
    def test_ownership_follows_observations(self):
        coordinator, dock, shelf = two_zone_setup()
        coordinator.process_epoch(epoch_readings(0, {0: [item(1)]}))
        assert coordinator.owner_of(item(1)) == "zone-a"
        result = coordinator.process_epoch(epoch_readings(1, {1: [item(1)]}))
        assert coordinator.owner_of(item(1)) == "zone-b"
        assert result.handoffs == [(item(1), "zone-a", "zone-b")]

    def test_location_query_follows_owner(self):
        coordinator, dock, shelf = two_zone_setup()
        coordinator.process_epoch(epoch_readings(0, {0: [item(1)]}))
        assert coordinator.location_of(item(1)) == dock.color
        coordinator.process_epoch(epoch_readings(1, {1: [item(1)]}))
        assert coordinator.location_of(item(1)) == shelf.color

    def test_unknown_object_query(self):
        coordinator, *_ = two_zone_setup()
        assert coordinator.location_of(item(9)) == UNKNOWN_COLOR
        assert coordinator.container_of(item(9)) is None
        assert coordinator.owner_of(item(9)) is None

    def test_confirmation_survives_handoff(self):
        """A belt confirmation in zone A keeps steering containment in zone B."""
        from repro.model.locations import LocationKind, LocationRegistry

        registry = LocationRegistry()
        belt = registry.create("belt", LocationKind.BELT)
        shelf = registry.create("shelf", LocationKind.SHELF)
        belt_reader = Reader(
            0, belt, kind=ReaderKind.SPECIAL, singulation_level=PackagingLevel.CASE
        )
        shelf_reader = Reader(1, shelf)
        coordinator = Coordinator(
            [
                Zone.build("inbound", [belt_reader], registry),
                Zone.build("storage", [shelf_reader], registry),
            ]
        )
        # belt (zone inbound) confirms case 1 contains item 1
        coordinator.process_epoch(epoch_readings(0, {0: [case(1), item(1)]}))
        assert coordinator.container_of(item(1)) == case(1)
        # both migrate to the shelf zone, together with a decoy case
        coordinator.process_epoch(epoch_readings(1, {1: [case(1), case(2), item(1)]}))
        storage = coordinator.zones["storage"].spire
        node = storage.graph.node(item(1))
        assert node.confirmed_parent == case(1)  # knowledge survived
        # the confirmed case wins over the co-located decoy
        for epoch in range(2, 6):
            coordinator.process_epoch(
                epoch_readings(epoch, {1: [case(1), case(2), item(1)]})
            )
        assert coordinator.container_of(item(1)) == case(1)

    def test_merged_stream_well_formed_across_handoffs(self):
        coordinator, dock, shelf = two_zone_setup()
        messages = []
        plan = [
            {0: [case(1), item(1)]},
            {0: [case(1), item(1)]},
            {1: [case(1), item(1)]},   # migrate a -> b
            {1: [case(1), item(1)]},
            {0: [item(1)], 1: [case(1)]},  # split across zones
            {0: [item(1)]},
        ]
        for epoch, by_reader in enumerate(plan):
            messages.extend(coordinator.process_epoch(epoch_readings(epoch, by_reader)).messages)
        check_well_formed(messages)


class TestAgainstMonolithic:
    def test_distributed_tracks_full_trace(self):
        """Three-zone deployment over the standard warehouse trace: the
        merged output stays well-formed and final estimates broadly agree
        with the single-substrate run."""
        config = SimulationConfig(
            duration=500,
            pallet_period=120,
            cases_per_pallet_min=2,
            cases_per_pallet_max=2,
            items_per_case=4,
            read_rate=0.95,
            shelf_read_period=10,
            num_shelves=2,
            shelving_time_mean=100,
            shelving_time_jitter=20,
            seed=17,
        )
        sim = WarehouseSimulator(config).run()
        zones = partition_by_location(
            sim.layout.readers,
            {
                "inbound": ["entry-door", "receiving-belt"],
                "storage": ["shelf-1", "shelf-2"],
                "outbound": ["packaging-area", "exit-belt", "exit-door"],
            },
            sim.layout.registry,
        )
        coordinator = Coordinator(zones)
        messages = []
        for readings in sim.stream:
            messages.extend(coordinator.process_epoch(readings).messages)
        check_well_formed(messages)
        assert coordinator.tracked_objects > 0

        # compare location answers with the monolithic run on live objects
        from repro.core.pipeline import Deployment, Spire

        mono = Spire(Deployment.from_readers(sim.layout.readers, sim.layout.registry))
        mono.run(sim.stream)
        final = sim.truth.snapshots[-1]
        agreements = total = 0
        for tag in final.locations:
            total += 1
            if coordinator.location_of(tag) == mono.location_of(tag):
                agreements += 1
        assert total > 0
        assert agreements / total > 0.85


class _PipeHandle:
    """A worker handle over a one-way pipe whose replies a timer sends."""

    def __init__(self, taken: list) -> None:
        self.reader, self.writer = multiprocessing.Pipe(duplex=False)
        self.taken = taken

    @property
    def readable(self):
        return self.reader

    def reply_after(self, delay: float, value) -> None:
        threading.Timer(delay, self.writer.send, (value,)).start()

    def collect(self):
        value = self.reader.recv()
        self.taken.append(value)
        return value


class _StandingHandle:
    """A handle with no readable end: its reply exists already."""

    readable = None

    def __init__(self, taken: list, replies: list) -> None:
        self.taken = taken
        self.replies = replies

    def collect(self):
        value = self.replies.pop(0)
        self.taken.append(value)
        return value


class TestFanIn:
    """``Coordinator._gather`` takes replies as workers finish and returns
    them by submission position."""

    def test_replies_are_taken_in_completion_order_and_returned_in_submission_order(self):
        coordinator, *_ = two_zone_setup()
        taken: list = []
        slow, fast = _PipeHandle(taken), _PipeHandle(taken)
        fast.reply_after(0.0, "fast")
        slow.reply_after(0.3, "slow-1")
        slow.reply_after(0.4, "slow-2")
        replies, rebuilt = coordinator._gather([slow, fast, slow], at=0)
        assert taken == ["fast", "slow-1", "slow-2"]
        assert replies == ["slow-1", "fast", "slow-2"] and rebuilt == {}

    def test_a_handle_without_a_readable_end_is_collected_where_it_stands(self):
        coordinator, *_ = two_zone_setup()
        taken: list = []
        piped = _PipeHandle(taken)
        piped.reply_after(0.2, "piped")
        standing = _StandingHandle(taken, ["standing-1", "standing-2"])
        replies, _ = coordinator._gather([piped, standing, standing], at=0)
        assert taken == ["standing-1", "standing-2", "piped"]
        assert replies == ["piped", "standing-1", "standing-2"]


def _far_end_worker():
    """A :class:`SocketWorker` whose worker is the returned socket end:
    the test writes its replies by hand."""
    ours, theirs = socket.socketpair()
    send_frame(theirs, wire.encode_hello_ack("far", 0))
    worker = SocketWorker(0, "far", lambda: (ours, None), Deadlines(), SupervisorStats())
    return worker, theirs


def _framed(payload: bytes) -> bytes:
    return wire.FRAME_HEADER.pack(len(payload)) + payload


class TestExactLengthFrames:
    """A frame is read at its exact length — the header, then the payload
    it announces — so a reply is whole however the bytes arrive, and
    bytes past it stay on the socket for the next read."""

    QUERY = (wire.MSG_QUERY, 0, wire.QUERY_LOCATION, item(1))

    def test_a_reply_written_one_byte_at_a_time_is_read_whole(self):
        worker, far = _far_end_worker()
        frame = b"".join(_framed(wire.encode_reply(wire.MSG_QUERY, answer)) for answer in (-7, 8))

        def trickle():
            for i in range(len(frame)):
                far.sendall(frame[i : i + 1])
                time.sleep(0.001)

        worker.submit(self.QUERY)
        worker.submit(self.QUERY)
        threading.Thread(target=trickle, daemon=True).start()
        assert [worker.collect(), worker.collect()] == [-7, 8]
        worker.kill()
        far.close()

    def test_two_replies_in_one_write_are_both_taken_in_one_round(self):
        """The worker listed twice answers both requests in one write: the
        second reply is still readable after the first is taken."""
        coordinator, *_ = two_zone_setup()
        worker, far = _far_end_worker()
        worker.submit(self.QUERY)
        worker.submit(self.QUERY)
        answers = (_framed(wire.encode_reply(wire.MSG_QUERY, answer)) for answer in (1, 2))
        far.sendall(b"".join(answers))
        started = time.monotonic()
        replies, rebuilt = coordinator._gather([worker, worker], at=0)
        assert replies == [1, 2] and rebuilt == {}
        assert time.monotonic() - started < 1.0  # read, not waited out
        assert worker.alive
        worker.kill()
        far.close()

    def test_a_payload_larger_than_a_socket_buffer_is_read_whole(self):
        ours, theirs = socket.socketpair()
        payload = bytes(range(256)) * 8192  # 2 MiB
        writer = threading.Thread(target=send_frame, args=(theirs, payload), daemon=True)
        writer.start()
        assert recv_frame(ours, time.monotonic() + 5.0) == payload
        writer.join()
        ours.close()
        theirs.close()

    def test_an_oversized_header_is_refused_before_any_payload_is_read(self):
        ours, theirs = socket.socketpair()
        theirs.sendall(wire.FRAME_HEADER.pack(wire.MAX_FRAME_BYTES + 1) + b"x")
        with pytest.raises(wire.WireError, match="exceeds"):
            recv_frame(ours, time.monotonic() + 5.0)
        oversized = type("Oversized", (), {"__len__": lambda self: wire.MAX_FRAME_BYTES + 1})
        with pytest.raises(wire.WireError, match="exceeds"):
            send_frame(ours, oversized())
        ours.close()
        theirs.close()
