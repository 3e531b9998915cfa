"""Distributed operation: zone-partitioned substrates with object handoff.

The paper's future work (§VIII) calls for running the interpretation and
compression substrate "in distributed environments".  This package
implements the natural partitioning for a large site: readers are grouped
into *zones* (a building, a floor, a yard), each zone runs its own
:class:`~repro.core.pipeline.Spire` over its own readers, and a
:class:`~repro.distributed.coordinator.Coordinator` routes readings,
hands objects off between zones as they migrate, and merges the zones'
compressed outputs into one well-formed stream.

With ``checkpoint_interval`` set, the coordinator also provides zone
failover: periodic per-zone checkpoints, ``fail_zone`` / ``recover_zone``
with replay of buffered epochs, and orphan-tag re-adoption, so the merged
stream survives a zone crash well-formed (see ``docs/FAULTS.md``).
Zones run in process, on forked worker processes
(:mod:`repro.distributed.parallel`) or on ``spire-worker`` TCP daemons
(:mod:`repro.distributed.remote`); a worker that breaks its connection or
misses its deadline is lost and its zones rebuilt (``docs/SCALING.md``).
"""

from repro.distributed.coordinator import (
    DEFAULT_CHECKPOINT_INTERVAL,
    Coordinator,
    EpochResult,
    HandoffRecord,
    Zone,
    partition_by_location,
)
from repro.distributed.parallel import ParallelCoordinator
from repro.distributed.remote import (
    RemoteCoordinator,
    WorkerDaemon,
    spawn_worker_process,
)
from repro.distributed.supervisor import (
    Deadlines,
    RemoteError,
    SupervisorStats,
    WorkerSupervisor,
)
from repro.distributed.worker import WorkerStats

__all__ = [
    "DEFAULT_CHECKPOINT_INTERVAL",
    "Coordinator",
    "Deadlines",
    "EpochResult",
    "Zone",
    "HandoffRecord",
    "ParallelCoordinator",
    "RemoteCoordinator",
    "RemoteError",
    "SupervisorStats",
    "WorkerDaemon",
    "WorkerStats",
    "WorkerSupervisor",
    "partition_by_location",
    "spawn_worker_process",
]
