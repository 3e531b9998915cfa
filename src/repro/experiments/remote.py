"""Remote-worker determinism sweep: TCP transport vs. the serial engine.

The acceptance bar for :class:`~repro.distributed.remote.RemoteCoordinator`
is the same one the in-host scaling sweep enforces — **byte-identical
merged output** — extended across transport faults and worker loss:
neither network delay nor a lost worker (its zones rebuilt from
checkpoint + request log) may change a byte of the stream.

:func:`run_remote` runs the Table III workload through a remote pool
(optionally behind :class:`~repro.faults.network.NetFaultProxy` shims,
optionally crashing scripted workers mid-run) and through the plain
serial :class:`Coordinator`, in which nothing fails, and compares
SHA-256 digests.  ``repro-spire bench --remote-workers N`` records the
result under the ``remote`` key of ``BENCH_table3.json``; the CI
``remote-smoke`` job gates on ``streams_identical``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from typing import Sequence

from repro.distributed import (
    DEFAULT_CHECKPOINT_INTERVAL,
    Coordinator,
    Deadlines,
    RemoteCoordinator,
    partition_by_location,
)
from repro.distributed.remote import WorkerDaemon
from repro.events.codec import encode_stream
from repro.experiments.table3 import (
    DEFAULT_CASES_PER_PALLET,
    DEFAULT_MILESTONES,
    DEFAULT_SEED,
    duration_for,
    machine_info,
    scaling_zone_assignment,
    table3_config,
)
from repro.faults.network import NetFaultProxy, WorkerCrash, split_net_schedule
from repro.simulator.warehouse import WarehouseSimulator

__all__ = ["RemoteHarness", "run_remote", "CRASH_SETTLE_S"]

#: grace after a scripted daemon crash, letting the FIN reach the
#: coordinator so the next epoch's EOF probe finds the death at the
#: boundary instead of the epoch round — the stream is the same either
#: way; the probe is just the earlier way to find out
CRASH_SETTLE_S = 0.25


class RemoteHarness:
    """One remote worker pool, ready to be faulted.

    Spawns ``workers`` in-process :class:`WorkerDaemon` threads, threads
    each connection through a :class:`NetFaultProxy` when ``net_specs``
    are given, and builds the :class:`RemoteCoordinator` on top.  Owns
    the teardown of all three layers.
    """

    def __init__(
        self,
        zones,
        workers: int,
        net_specs: Sequence = (),
        net_seed: int = 0,
        deadlines: Deadlines | None = None,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        metrics=None,
    ) -> None:
        self.daemons = [WorkerDaemon() for _ in range(workers)]
        for daemon in self.daemons:
            daemon.start()
        self.proxies: list[NetFaultProxy] = []
        addresses = [daemon.address for daemon in self.daemons]
        if net_specs:
            self.proxies = [
                NetFaultProxy(address, net_specs, seed=net_seed + i)
                for i, address in enumerate(addresses)
            ]
            addresses = [proxy.address for proxy in self.proxies]
        try:
            self.coordinator = RemoteCoordinator(
                zones,
                addresses=addresses,
                deadlines=deadlines,
                checkpoint_interval=checkpoint_interval,
                metrics=metrics,
            )
        except BaseException:
            self._stop_transport()
            raise

    def crash_worker(self, index: int) -> None:
        """Hard-crash one daemon."""
        self.daemons[index].crash()
        time.sleep(CRASH_SETTLE_S)

    def _stop_transport(self) -> None:
        for proxy in self.proxies:
            proxy.stop()
        for daemon in self.daemons:
            daemon.stop()

    def close(self) -> None:
        self.coordinator.close()
        self._stop_transport()

    def __enter__(self) -> "RemoteHarness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _zones(sim, params=None):
    return partition_by_location(
        sim.layout.readers,
        scaling_zone_assignment(sim.config.num_shelves),
        sim.layout.registry,
        params=params,
    )


def run_remote(
    milestones: tuple[int, ...] | list[int] = DEFAULT_MILESTONES,
    workers: int = 3,
    cases_per_pallet: int = DEFAULT_CASES_PER_PALLET,
    seed: int = DEFAULT_SEED,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    deadlines: Deadlines | None = None,
    schedule: Sequence = (),
    net_seed: int = 0,
) -> dict:
    """The remote determinism sweep recorded under ``BENCH_table3.json``'s
    ``remote`` key.

    ``schedule`` may mix :mod:`repro.faults.network` transport specs
    (applied by per-worker proxies) and :class:`WorkerCrash` entries
    (applied by crashing the named daemon just before the given epoch,
    which must be at least 1).  Stream-level fault specs are rejected:
    this sweep measures the transport, not ingestion.
    """
    stream_specs, net_specs, crashes = split_net_schedule(schedule)
    if stream_specs:
        raise ValueError(
            f"run_remote takes transport faults only; got stream spec(s) {stream_specs}"
        )
    for crash in crashes:
        if not 0 <= crash.worker < workers:
            raise ValueError(f"worker_crash names worker {crash.worker} of {workers}")
        if crash.at_epoch < 1:
            raise ValueError("worker_crash at_epoch must be >= 1")
    crash_at = {crash.at_epoch: crash.worker for crash in crashes}

    config = table3_config(cases_per_pallet, duration_for(milestones, cases_per_pallet), seed)
    sim = WarehouseSimulator(config).run()

    # --- the remote run -------------------------------------------------
    digest = hashlib.sha256()
    pending = sorted(milestones)
    rows: list[dict] = []
    win_wall = 0.0
    win_epochs = 0
    messages = 0
    with RemoteHarness(
        _zones(sim),
        workers,
        net_specs=net_specs,
        net_seed=net_seed,
        deadlines=deadlines,
        checkpoint_interval=checkpoint_interval,
    ) as harness:
        coordinator = harness.coordinator
        started = time.perf_counter()
        for readings in sim.stream:
            if readings.epoch in crash_at:
                harness.crash_worker(crash_at[readings.epoch])
            t0 = time.perf_counter()
            result = coordinator.process_epoch(readings)
            win_wall += time.perf_counter() - t0
            win_epochs += 1
            messages += len(result.messages)
            digest.update(encode_stream(result.messages))
            if pending and coordinator.tracked_objects >= pending[0]:
                rows.append(
                    {
                        "milestone": pending.pop(0),
                        "objects": coordinator.tracked_objects,
                        "epoch": readings.epoch,
                        "epochs_in_window": win_epochs,
                        "avg_epoch_s": win_wall / win_epochs,
                    }
                )
                win_wall = 0.0
                win_epochs = 0
        total_s = time.perf_counter() - started
        supervisor_stats = dataclasses.asdict(coordinator.supervisor.stats)
        warning_counts = dict(coordinator.quarantine.counts())
        ipc = {
            "bytes_to_workers": coordinator.stats.bytes_to_workers,
            "bytes_from_workers": coordinator.stats.bytes_from_workers,
            "fanout_s": coordinator.stats.fanout_s,
            "fanin_wait_s": coordinator.stats.fanin_wait_s,
        }

    # --- the serial reference: the same trace, no failover at all ------
    serial = Coordinator(_zones(sim))
    serial_digest = hashlib.sha256()
    serial_messages = 0
    started = time.perf_counter()
    for readings in sim.stream:
        result = serial.process_epoch(readings)
        serial_messages += len(result.messages)
        serial_digest.update(encode_stream(result.messages))
    serial_total_s = time.perf_counter() - started

    return {
        "workers": workers,
        "transport": "tcp",
        "deadlines": dataclasses.asdict(deadlines) if deadlines is not None else None,
        "net_schedule": [type(spec).__name__ for spec in net_specs],
        "crashes": [dataclasses.asdict(crash) for crash in crashes],
        "workload": {
            "milestones": list(milestones),
            "cases_per_pallet": cases_per_pallet,
            "duration": config.duration,
            "seed": seed,
            "checkpoint_interval": checkpoint_interval,
            "zones": len(scaling_zone_assignment(config.num_shelves)),
        },
        "machine": machine_info(),
        "remote": {
            "milestones": rows,
            "messages": messages,
            "total_s": total_s,
            "stream_sha256": digest.hexdigest(),
            "supervisor": supervisor_stats,
            "warnings": warning_counts,
            "ipc": ipc,
        },
        "serial": {
            "messages": serial_messages,
            "total_s": serial_total_s,
            "stream_sha256": serial_digest.hexdigest(),
        },
        "streams_identical": digest.hexdigest() == serial_digest.hexdigest(),
    }
