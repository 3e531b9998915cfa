"""The zone-coordination contract, as one matrix (DESIGN.md §9).

Every worker pool runs the same :class:`Coordinator` epoch loop, so every
pool must show the same observable behaviour.  Each cell of
``handle kind x schedule`` drives one coordinator over a seeded trace and
compares everything a caller can see — the merged stream's SHA-256, the
per-epoch handoffs and warnings, final ownership, point-query answers and
the counter exposition — with the in-process run of the same schedule,
and checks the stream well-formed.  A new transport inherits the whole
contract by adding one entry to ``KINDS``.

Losing a worker is part of the contract too.  In the ``worker-death``
schedule worker 0 *really* dies at an epoch boundary and the in-process
reference is the scripted ``fail_zone`` / ``recover_zone`` of the zones
it hosted; only what names the death itself is left out of the
comparison.  A death with requests in flight promises less — a
well-formed stream and a run that completes — and is checked below the
matrix for both out-of-process kinds.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass
from functools import lru_cache

import pytest

from repro.core.pipeline import Spire
from repro.distributed import Coordinator, ParallelCoordinator, RemoteCoordinator, wire
from repro.events.codec import encode_stream
from repro.events.wellformed import check_well_formed
from repro.faults.warnings import WarningKind
from repro.obs.metrics import MetricRegistry, counters_only, render_prometheus

from tests.test_parallel import _config, _epochs, _zones

KINDS = {
    "in-process": Coordinator,
    "pipe-2": lambda zones, **kw: ParallelCoordinator(zones, workers=2, **kw),
    "tcp-2": lambda zones, **kw: RemoteCoordinator(zones, workers=2, **kw),
}


@dataclass(frozen=True)
class Schedule:
    seed: int
    chaos_seed: int | None = None
    interval: int | None = 10
    #: epoch index -> (method name, keyword arguments) run before that epoch
    actions: tuple = ()
    #: epoch index before which worker 0 dies for real (scripted in process)
    death: int | None = None


SCHEDULES = {
    "clean": Schedule(seed=11),
    "chaos": Schedule(seed=13, chaos_seed=99),
    "failover": Schedule(
        seed=23,
        actions=((60, "fail_zone", {}), (100, "recover_zone", {})),
    ),
    # index 112 is two epochs past a checkpoint: the killed worker's other
    # zone has releases and adoptions in its request log
    "worker-kill": Schedule(
        seed=23,
        actions=((112, "fail_zone", {"kill_worker": True}), (130, "recover_zone", {})),
    ),
    "no-failover": Schedule(seed=3, interval=None),
    "worker-death": Schedule(seed=7, death=60),
}

#: what worker 0 of a two-worker pool hosts (round-robin over sorted ids)
HOSTED_BY_WORKER_0 = ["inbound", "shelf-a"]
#: the warnings (and their counter series) that name a worker's death —
#: the one thing a scripted failover cannot show
DEATH_KINDS = {WarningKind.WORKER_LOST, WarningKind.ZONE_REHOMED}
#: settle after a daemon crash: lets the FIN reach the coordinator so the
#: next epoch's EOF probe sees a boundary death
SETTLE_S = 0.3


@dataclass(frozen=True)
class Observed:
    stream_sha256: str
    handoffs: tuple
    warnings: tuple
    owners: tuple
    answers: tuple
    counters: str


def _counter_text(coordinator) -> str:
    """The deterministic telemetry: counters, minus the transport's own
    (retries and heartbeats depend on wall-clock timing)."""
    snapshot = counters_only(coordinator.metrics_snapshot())
    snapshot["series"] = [
        s
        for s in snapshot["series"]
        if not s["name"].startswith("spire_remote_")
        and s["labels"].get("kind") not in DEATH_KINDS
    ]
    snapshot["help"] = {
        name: text
        for name, text in snapshot["help"].items()
        if not name.startswith("spire_remote_")
    }
    return render_prometheus(snapshot)


def _kill_worker_0(kind: str, coordinator, at: int) -> list:
    """Worker 0 dies between epochs: for real out of process (the next
    ``process_epoch`` finds out), in process as the scripted failover of
    the zones it would have hosted.  Returns what the caller must splice."""
    if kind == "in-process":
        return [
            message
            for step in (coordinator.fail_zone, coordinator.recover_zone)
            for zone_id in HOSTED_BY_WORKER_0
            for message in step(zone_id, at=at)
        ]
    worker = coordinator._workers[0]
    assert HOSTED_BY_WORKER_0 == sorted(
        z for z, w in coordinator._worker_of_zone.items() if w is worker
    )
    if kind == "pipe-2":
        os.kill(worker.process.pid, signal.SIGKILL)
        worker.process.join()
    else:
        coordinator._daemons[0].crash()
        time.sleep(SETTLE_S)
    return []


def _observe(kind: str, schedule: Schedule) -> Observed:
    sim, epochs = _epochs(_config(schedule.seed), schedule.chaos_seed)
    actions = {index: (name, kwargs) for index, name, kwargs in schedule.actions}
    coordinator = KINDS[kind](
        _zones(sim), checkpoint_interval=schedule.interval, metrics=MetricRegistry()
    )
    messages, handoffs, warnings = [], [], []
    with coordinator:
        for i, readings in enumerate(epochs):
            recorded = len(coordinator.quarantine.warnings)
            if i in actions:
                name, kwargs = actions[i]
                messages.extend(getattr(coordinator, name)("shelf-a", **kwargs))
            if i == schedule.death:
                messages.extend(_kill_worker_0(kind, coordinator, epochs[i - 1].epoch))
            scripted = coordinator.quarantine.warnings[recorded:]
            result = coordinator.process_epoch(readings)
            messages.extend(result.messages)
            handoffs.append(tuple(result.handoffs))
            warnings.append(
                tuple(w for w in (*scripted, *result.warnings) if w.kind not in DEATH_KINDS)
            )
        owners = tuple(sorted((str(tag), zone) for tag, zone in coordinator._owner.items()))
        answers = tuple(
            (coordinator.location_of(tag), coordinator.container_of(tag))
            for tag in sorted(coordinator._owner, key=str)[:25]
        )
        counters = _counter_text(coordinator)
        if schedule.death is not None and kind != "in-process":
            counts = coordinator.quarantine.counts()
            assert counts[WarningKind.WORKER_LOST] == 1
            assert counts[WarningKind.ZONE_REHOMED] == len(HOSTED_BY_WORKER_0)
    check_well_formed(messages)
    return Observed(
        hashlib.sha256(encode_stream(messages)).hexdigest(),
        tuple(handoffs), tuple(warnings), owners, answers, counters,
    )


@lru_cache(maxsize=None)
def _reference(schedule_name: str) -> Observed:
    return _observe("in-process", SCHEDULES[schedule_name])


#: TCP workers fail over from checkpoints, so that pool requires the interval
CELLS = [
    (kind, name)
    for kind in KINDS
    for name, schedule in SCHEDULES.items()
    if not (kind == "tcp-2" and schedule.interval is None)
]


@pytest.mark.parametrize("kind,schedule_name", CELLS)
def test_contract(kind, schedule_name):
    observed = _observe(kind, SCHEDULES[schedule_name])
    expected = _reference(schedule_name)
    assert observed.stream_sha256 == expected.stream_sha256
    assert observed.handoffs == expected.handoffs
    assert observed.warnings == expected.warnings
    assert observed.owners == expected.owners
    assert observed.answers == expected.answers
    assert observed.counters == expected.counters
    assert expected.answers and any(expected.handoffs)


# ---------------------------------------------------------------------------
# death with requests in flight: the stated limit, the same in both pools
# ---------------------------------------------------------------------------


def _poison_epoch(monkeypatch, target: int, die) -> None:
    """``Spire.process_epoch`` calls ``die()`` at epoch ``target`` (which
    returns at once anywhere but in the victim).  Installed before the
    pool is built: forked workers inherit it."""
    original = Spire.process_epoch

    def poisoned(self, readings):
        if readings.epoch == target:
            die()
        return original(self, readings)

    monkeypatch.setattr(Spire, "process_epoch", poisoned)


def _in_pipe_worker_0() -> bool:
    return multiprocessing.current_process().name == "spire-worker-0"


def _exit_pipe_worker():
    if _in_pipe_worker_0():
        os._exit(1)


def _raise_in_pipe_worker():
    if _in_pipe_worker_0():
        raise RuntimeError("injected worker fault")


MID_EPOCH_DEATHS = {
    # kind, how worker 0 dies, what the worker_lost warning says, live workers after
    "pipe-exit": ("pipe-2", _exit_pipe_worker, "connection lost", 2),
    "pipe-error": ("pipe-2", _raise_in_pipe_worker, "injected worker fault", 2),
    "tcp-crash": ("tcp-2", None, "no reply to request", 1),
}


@pytest.mark.parametrize("case", MID_EPOCH_DEATHS)
def test_mid_epoch_death_degrades_to_well_formed(case, monkeypatch):
    """A worker lost with the epoch half applied: nothing reaches the
    caller but warnings and spliced messages, and the run goes on — pipes
    with the process respawned in its slot, TCP with one worker fewer."""
    kind, die, reason, live_after = MID_EPOCH_DEATHS[case]
    sim, epochs = _epochs(_config(seed=17))
    box = {}

    def crash_daemon_0():
        daemon = box["coordinator"]._daemons[0]
        if threading.current_thread().name == daemon.name:
            daemon.crash()  # sockets gone, state lost; the reply cannot be sent

    _poison_epoch(monkeypatch, epochs[60].epoch, die or crash_daemon_0)
    messages = []
    with KINDS[kind](_zones(sim), checkpoint_interval=10) as coordinator:
        box["coordinator"] = coordinator
        for readings in epochs:
            messages.extend(coordinator.process_epoch(readings).messages)
        counts = coordinator.quarantine.counts()
        lost = [w for w in coordinator.quarantine.warnings if w.kind == WarningKind.WORKER_LOST]
        for tag in sorted(coordinator._owner, key=str)[:25]:
            coordinator.location_of(tag)
            coordinator.container_of(tag)
        assert sum(worker.alive for worker in coordinator._workers) == live_after
    check_well_formed(messages)
    assert len(lost) == 1 and lost[0].epoch == epochs[60].epoch
    assert reason in lost[0].detail
    assert counts[WarningKind.ZONE_REHOMED] == len(HOSTED_BY_WORKER_0)


@pytest.mark.parametrize("when", ["boundary", "mid-epoch"])
def test_worker_death_without_checkpoints_names_the_worker(when, monkeypatch):
    """Nothing to rebuild from: the error says which worker and why —
    not ``fail_zone``'s "failover requires checkpointing"."""
    sim, epochs = _epochs(_config(seed=17, duration=40))
    if when == "mid-epoch":
        _poison_epoch(monkeypatch, epochs[20].epoch, _exit_pipe_worker)
    with ParallelCoordinator(_zones(sim), workers=2) as coordinator:
        for readings in epochs[:20]:
            coordinator.process_epoch(readings)
        if when == "boundary":
            _kill_worker_0("pipe-2", coordinator, at=0)
        with pytest.raises(wire.WireError, match="worker spire-worker-0 lost: "):
            coordinator.process_epoch(epochs[20])
