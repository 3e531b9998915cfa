"""Parallel-vs-serial equivalence suite (DESIGN.md §9, docs/SCALING.md).

The load-bearing property of :class:`ParallelCoordinator` is **exact
equivalence**: the merged event stream must be byte-identical to the
serial :class:`Coordinator`'s on the same input — across clean runs,
chaos-injected runs, mid-run zone failure and recovery (including a real
worker-process kill), and checkpoint round-trips — under 2 and 4 workers.
What a pool does when it *loses* a worker is part of the coordination
contract and lives in ``tests/test_coordination_contract.py``.
"""

from __future__ import annotations

import io

import pytest

from repro.core.checkpoint import load_checkpoint
from repro.distributed import Coordinator, ParallelCoordinator, partition_by_location
from repro.events.codec import encode_stream
from repro.events.wellformed import check_well_formed
from repro.faults import DelayBatches, DropBatches, FaultInjector, ResilientStream
from repro.faults.warnings import Quarantine, WarningKind
from repro.model.locations import LocationKind, LocationRegistry
from repro.readers.reader import Reader
from repro.simulator.config import SimulationConfig
from repro.simulator.warehouse import WarehouseSimulator

ASSIGNMENT = {
    "inbound": ["entry-door", "receiving-belt"],
    "shelf-a": ["shelf-1", "shelf-2"],
    "shelf-b": ["shelf-3", "shelf-4"],
    "outbound": ["packaging-area", "exit-belt", "exit-door"],
}


def _config(seed: int, duration: int = 150) -> SimulationConfig:
    return SimulationConfig(
        duration=duration,
        pallet_period=100,
        cases_per_pallet_min=2,
        cases_per_pallet_max=3,
        items_per_case=4,
        read_rate=0.9,
        shelf_read_period=10,
        num_shelves=4,
        shelving_time_mean=100,
        shelving_time_jitter=30,
        seed=seed,
    )


def _epochs(config: SimulationConfig, chaos_seed: int | None = None) -> list:
    """Simulate one trace; optionally push it through seeded chaos."""
    sim = WarehouseSimulator(config).run()
    if chaos_seed is None:
        return sim, list(sim.stream)
    schedule = [DropBatches(rate=0.03), DelayBatches(rate=0.05, max_delay=3)]
    injector = FaultInjector(sim.stream, schedule, seed=chaos_seed)
    resilient = ResilientStream(
        injector,
        max_delay=3,
        known_readers=[r.reader_id for r in sim.layout.readers],
    )
    return sim, list(resilient)


def _zones(sim):
    return partition_by_location(sim.layout.readers, ASSIGNMENT, sim.layout.registry)


def _run(coordinator, epochs, actions: dict | None = None) -> bytes:
    """Drive a coordinator over the epochs, interleaving failover actions.

    ``actions`` maps an epoch index to a callable taking the coordinator
    and returning messages to splice into the merged stream (the serial
    failover contract).  Returns the encoded merged stream.
    """
    parts = []
    for i, readings in enumerate(epochs):
        if actions and i in actions:
            parts.append(encode_stream(actions[i](coordinator)))
        parts.append(encode_stream(coordinator.process_epoch(readings).messages))
    if hasattr(coordinator, "close"):
        coordinator.close()
    return b"".join(parts)


def _serial_and_parallel(seed, workers, chaos_seed=None, actions=None, interval=10):
    config = _config(seed)
    sim, epochs = _epochs(config, chaos_seed)
    serial = _run(Coordinator(_zones(sim), checkpoint_interval=interval), epochs, actions)
    sim2, epochs2 = _epochs(config, chaos_seed)
    parallel = _run(
        ParallelCoordinator(_zones(sim2), checkpoint_interval=interval, workers=workers),
        epochs2,
        actions,
    )
    return serial, parallel


class TestCleanEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_clean_run_byte_identical(self, workers):
        serial, parallel = _serial_and_parallel(seed=11, workers=workers)
        assert parallel == serial
        assert len(serial) > 0

    def test_single_worker_byte_identical(self):
        serial, parallel = _serial_and_parallel(seed=7, workers=1)
        assert parallel == serial

    def test_no_failover_mode(self):
        """Without checkpoint_interval the parallel loop still matches."""
        config = _config(seed=3)
        sim, epochs = _epochs(config)
        serial = _run(Coordinator(_zones(sim)), epochs)
        sim2, epochs2 = _epochs(config)
        parallel = _run(ParallelCoordinator(_zones(sim2), workers=2), epochs2)
        assert parallel == serial

    def test_handoffs_owners_and_queries_match(self):
        config = _config(seed=29)
        sim, epochs = _epochs(config)
        serial = Coordinator(_zones(sim), checkpoint_interval=10)
        serial_results = [serial.process_epoch(r) for r in epochs]
        sim2, epochs2 = _epochs(config)
        with ParallelCoordinator(
            _zones(sim2), checkpoint_interval=10, workers=4
        ) as parallel:
            parallel_results = [parallel.process_epoch(r) for r in epochs2]
            assert [r.handoffs for r in parallel_results] == [
                r.handoffs for r in serial_results
            ]
            assert parallel.tracked_objects == serial.tracked_objects
            for tag in list(serial._owner)[:25]:
                assert parallel.owner_of(tag) == serial.owner_of(tag)
                assert parallel.location_of(tag) == serial.location_of(tag)
                assert parallel.container_of(tag) == serial.container_of(tag)


class TestChaosEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_chaos_run_byte_identical(self, workers):
        serial, parallel = _serial_and_parallel(seed=13, workers=workers, chaos_seed=99)
        assert parallel == serial

    def test_chaos_stream_well_formed(self):
        config = _config(seed=13)
        sim, epochs = _epochs(config, chaos_seed=99)
        with ParallelCoordinator(
            _zones(sim), checkpoint_interval=10, workers=2
        ) as coordinator:
            messages = []
            for readings in epochs:
                messages.extend(coordinator.process_epoch(readings).messages)
        check_well_formed(messages)


class TestFailoverEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_fail_recover_mid_run_byte_identical(self, workers):
        actions = {
            60: lambda c: c.fail_zone("shelf-a"),
            100: lambda c: c.recover_zone("shelf-a"),
        }
        serial, parallel = _serial_and_parallel(seed=23, workers=workers, actions=actions)
        assert parallel == serial

    def test_worker_kill_byte_identical(self):
        """A real worker-process crash recovers to the same byte stream."""
        config = _config(seed=23)
        sim, epochs = _epochs(config)
        serial_actions = {
            60: lambda c: c.fail_zone("shelf-a"),
            100: lambda c: c.recover_zone("shelf-a"),
        }
        serial = _run(
            Coordinator(_zones(sim), checkpoint_interval=10), epochs, serial_actions
        )
        kill_actions = {
            60: lambda c: c.fail_zone("shelf-a", kill_worker=True),
            100: lambda c: c.recover_zone("shelf-a"),
        }
        sim2, epochs2 = _epochs(config)
        parallel = _run(
            ParallelCoordinator(_zones(sim2), checkpoint_interval=10, workers=2),
            epochs2,
            kill_actions,
        )
        assert parallel == serial

    def test_fail_recover_under_chaos(self):
        actions = {
            50: lambda c: c.fail_zone("shelf-b"),
            90: lambda c: c.recover_zone("shelf-b"),
        }
        serial, parallel = _serial_and_parallel(
            seed=31, workers=4, chaos_seed=7, actions=actions
        )
        assert parallel == serial


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_checkpoint_restores_serial_state(self, workers):
        """A checkpoint blob produced *inside* a worker restores to the
        same substrate state the serial coordinator would have saved."""
        config = _config(seed=41)
        sim, epochs = _epochs(config)
        serial = Coordinator(_zones(sim), checkpoint_interval=10)
        for readings in epochs:
            serial.process_epoch(readings)
        sim2, epochs2 = _epochs(config)
        with ParallelCoordinator(
            _zones(sim2), checkpoint_interval=10, workers=workers
        ) as parallel:
            for readings in epochs2:
                parallel.process_epoch(readings)
            assert parallel.stats.checkpoints > 0
            for zone_id in serial.zones:
                serial_ckpt = serial._checkpoints[zone_id]
                parallel_ckpt = parallel._checkpoints[zone_id]
                assert parallel_ckpt.epoch == serial_ckpt.epoch
                a = load_checkpoint(io.BytesIO(serial_ckpt.data))
                b = load_checkpoint(io.BytesIO(parallel_ckpt.data))
                assert b.graph.node_count == a.graph.node_count
                assert b.graph.edge_count == a.graph.edge_count
                assert sorted(map(str, b.estimates)) == sorted(map(str, a.estimates))


class TestObservability:
    def test_stats_counters_populate(self):
        config = _config(seed=19, duration=60)
        sim, epochs = _epochs(config)
        with ParallelCoordinator(
            _zones(sim), checkpoint_interval=10, workers=2
        ) as coordinator:
            for readings in epochs:
                coordinator.process_epoch(readings)
            stats = coordinator.stats
        assert stats.epochs == len(epochs)
        assert stats.bytes_to_workers > 0
        assert stats.bytes_from_workers > 0
        assert stats.checkpoints > 0
        assert set(stats.busy_s) == set(ASSIGNMENT)
        assert all(n > 0 for n in stats.zone_epochs.values())
        assert len(stats.summary_lines()) >= 4 + len(ASSIGNMENT)


class TestPartitioning:
    def test_empty_zone_raises_by_default(self):
        registry = LocationRegistry()
        dock = registry.create("dock", LocationKind.ENTRY_DOOR)
        with pytest.raises(ValueError, match="no readers"):
            partition_by_location(
                [Reader(0, dock)], {"a": ["dock"], "ghost": []}, registry
            )

    def test_empty_zone_kept_with_quarantine(self):
        registry = LocationRegistry()
        dock = registry.create("dock", LocationKind.ENTRY_DOOR)
        quarantine = Quarantine()
        zones = partition_by_location(
            [Reader(0, dock)], {"a": ["dock"], "ghost": []}, registry, quarantine=quarantine
        )
        assert [z.zone_id for z in zones] == ["a", "ghost"]
        assert quarantine.counts() == {WarningKind.EMPTY_ZONE: 1}

    def test_zone_order_is_assignment_order(self):
        registry = LocationRegistry()
        dock = registry.create("dock", LocationKind.ENTRY_DOOR)
        shelf = registry.create("shelf", LocationKind.SHELF)
        zones = partition_by_location(
            [Reader(0, dock), Reader(1, shelf)],
            {"zzz": ["dock"], "aaa": ["shelf"]},
            registry,
        )
        assert [z.zone_id for z in zones] == ["zzz", "aaa"]

    def test_workers_clamped_to_zones(self):
        registry = LocationRegistry()
        dock = registry.create("dock", LocationKind.ENTRY_DOOR)
        zones = partition_by_location([Reader(0, dock)], {"a": ["dock"]}, registry)
        with ParallelCoordinator(zones, workers=8) as coordinator:
            assert coordinator.num_workers == 1

    def test_bad_worker_count_rejected(self):
        registry = LocationRegistry()
        dock = registry.create("dock", LocationKind.ENTRY_DOOR)
        zones = partition_by_location([Reader(0, dock)], {"a": ["dock"]}, registry)
        with pytest.raises(ValueError, match="workers"):
            ParallelCoordinator(zones, workers=0)


class _FakeProcess:
    """Stands in for a worker process during kill-escalation tests."""

    def __init__(self, dies_on: str | None) -> None:
        self.dies_on = dies_on  # which signal finally works (None: neither)
        self.calls: list[str] = []
        self.pid = 4242

    def is_alive(self) -> bool:
        return self.dies_on not in self.calls

    def terminate(self) -> None:
        self.calls.append("terminate")

    def kill(self) -> None:
        self.calls.append("kill")

    def join(self, timeout=None) -> None:
        self.calls.append("join")


class _FakeSocket:
    def __init__(self) -> None:
        self.closed = False

    def close(self) -> None:
        self.closed = True


def _fake_worker(dies_on: str | None):
    from repro.distributed.worker import SocketWorker

    worker = object.__new__(SocketWorker)
    worker.index = 3
    worker.process = _FakeProcess(dies_on)
    worker.sock = _FakeSocket()
    return worker


class TestKillEscalation:
    def test_terminate_suffices(self):
        worker = _fake_worker(dies_on="terminate")
        warnings: list[str] = []
        worker.kill(warn=warnings.append)
        assert worker.process.calls == ["terminate", "join"]
        assert warnings == []
        assert worker.sock.closed

    def test_sigkill_follows_ignored_terminate(self):
        worker = _fake_worker(dies_on="kill")
        warnings: list[str] = []
        worker.kill(warn=warnings.append)
        assert worker.process.calls == ["terminate", "join", "kill", "join"]
        assert warnings == []
        assert worker.sock.closed

    def test_unkillable_process_lands_in_quarantine(self):
        worker = _fake_worker(dies_on=None)
        warnings: list[str] = []
        worker.kill(warn=warnings.append)
        assert worker.process.calls == ["terminate", "join", "kill", "join"]
        assert len(warnings) == 1
        assert "survived" in warnings[0] and "4242" in warnings[0]
        assert worker.sock.closed  # the socket never leaks

