"""Fault injection, resilient ingestion, and reader-health degradation.

SPIRE is pitched as an always-on substrate between physical readers and
query processors (§I, §VII), but physical transports are not perfect:
readers die, batches are dropped, delayed, duplicated, and mis-attributed.
This package makes those failure modes first-class:

* :mod:`repro.faults.injector` — a seeded, schedulable fault injector that
  perturbs any reading stream (for chaos testing and the ``chaos`` CLI);
* :mod:`repro.faults.resilient` — the ingestion front-end that restores
  the pipeline's exactly-once, in-order, gap-free epoch contract from a
  faulty transport, quarantining what it cannot repair;
* :mod:`repro.faults.health` — a reader-health monitor whose *suppressed
  colors* make inference degrade gracefully while a reader is down;
* :mod:`repro.faults.warnings` — the structured warning/quarantine records
  every layer reports instead of raising.

Zone-level failover (checkpoint, ``fail_zone`` / ``recover_zone``, orphan
re-adoption) lives with the coordinator in :mod:`repro.distributed`.
"""

from repro.faults.health import ReaderHealthMonitor
from repro.faults.injector import (
    ALL_FAULT_KINDS,
    DelayBatches,
    DropBatches,
    DuplicateBatches,
    FaultInjector,
    ReaderOutage,
    UnknownReaderReadings,
    schedule_from_dict,
)
from repro.faults.network import (
    NetDelay,
    NetFaultProxy,
    NetPartition,
    WorkerCrash,
    split_net_schedule,
)
from repro.faults.resilient import ResilientStream
from repro.faults.warnings import IngestWarning, Quarantine, QuarantinedReading, WarningKind

__all__ = [
    "ALL_FAULT_KINDS",
    "DelayBatches",
    "DropBatches",
    "DuplicateBatches",
    "FaultInjector",
    "IngestWarning",
    "NetDelay",
    "NetFaultProxy",
    "NetPartition",
    "Quarantine",
    "QuarantinedReading",
    "ReaderHealthMonitor",
    "ReaderOutage",
    "ResilientStream",
    "UnknownReaderReadings",
    "WarningKind",
    "WorkerCrash",
    "schedule_from_dict",
    "split_net_schedule",
]
