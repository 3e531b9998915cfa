"""The zone-coordination contract, as one matrix (DESIGN.md §9).

Every worker pool runs the same :class:`Coordinator` epoch loop, so every
pool must show the same observable behaviour.  Each cell of
``handle kind x schedule`` drives one coordinator over a seeded trace and
compares everything a caller can see — the merged stream's SHA-256, the
per-epoch handoffs and warnings, final ownership, point-query answers and
the counter exposition — with the in-process run of the same schedule,
and checks the stream well-formed.  A new transport inherits the whole
contract by adding one entry to ``KINDS``.

Losing a worker is part of the contract too, and the contract is that
it does not show: in the ``worker-death`` schedule worker 0 *really* dies
at an epoch boundary and the in-process reference is the run in which
nothing happened; only the warnings that name the death itself are left
out of the comparison.  Below the matrix the same is checked for a death
with an epoch, release or adopt request in flight, for a worker wedged
past the request deadline and for one found by a point query, in both
out-of-process kinds, for a kill before each of 24 epochs of the pipe
pool, and for a reply that does not decode or announces an oversized
frame.
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
from repro.distributed import (
    Coordinator,
    Deadlines,
    ParallelCoordinator,
    RemoteCoordinator,
    wire,
)
from repro.distributed import worker as worker_module
from repro.events.codec import encode_stream
from repro.events.messages import EVENT_MESSAGE_BYTES
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
    #: (epoch index, method name, keyword argument items) run before that epoch
    actions: tuple = ()
    #: epoch index before which worker 0 dies for real (in process: nothing)
    death: int | None = None
    #: epoch index before which the point queries are also asked — after
    #: ``death`` at the same index, so that it is a query that finds it
    queries_at: int | None = None


SCHEDULES = {
    "clean": Schedule(seed=11),
    "chaos": Schedule(seed=13, chaos_seed=99),
    "failover": Schedule(
        seed=23,
        actions=((60, "fail_zone", ()), (100, "recover_zone", ())),
    ),
    # index 112 is two epochs past a checkpoint: the killed worker's other
    # zone has releases and adoptions in its request log
    "worker-kill": Schedule(
        seed=23,
        actions=((112, "fail_zone", (("kill_worker", True),)), (130, "recover_zone", ())),
    ),
    "no-failover": Schedule(seed=3, interval=None),
    "worker-death": Schedule(seed=7, death=60),
}

#: what worker 0 of a two-worker pool hosts (round-robin over sorted ids)
HOSTED_BY_WORKER_0 = ["inbound", "shelf-a"]
#: the warnings (and their counter series) that name a worker's death —
#: the one trace it leaves
DEATH_KINDS = {WarningKind.WORKER_LOST, WarningKind.ZONE_REHOMED}
#: settle after a daemon crash: lets the FIN reach the coordinator, so the
#: next epoch's EOF probe finds the death at the boundary instead of the
#: epoch round — the same outcome
SETTLE_S = 0.3


@dataclass(frozen=True)
class Observed:
    stream_sha256: str
    handoffs: tuple
    warnings: tuple
    owners: tuple
    answers: tuple
    counters: str
    deaths: tuple  #: the ``DEATH_KINDS`` warnings, left out of ``warnings``
    live_workers: int


def _counter_text(coordinator) -> str:
    """The deterministic telemetry: counters, minus the transport's own
    (deadline misses and heartbeats depend on wall-clock timing)."""
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


def _kill_worker_0(kind: str, coordinator) -> None:
    """Worker 0 dies between requests, for real: whatever the coordinator
    does next finds out.  In process there is no worker to lose."""
    if kind == "in-process":
        return
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


def _answers(coordinator) -> tuple:
    return tuple(
        (coordinator.location_of(tag), coordinator.container_of(tag))
        for tag in sorted(coordinator._owner, key=str)[:25]
    )


def _observe(kind: str, schedule: Schedule, built=None) -> Observed:
    """Drive one coordinator over the schedule (``built``, when given, is
    handed the coordinator first) and record what a caller can see."""
    sim, epochs = _epochs(_config(schedule.seed), schedule.chaos_seed)
    actions = {index: (name, dict(kwargs)) for index, name, kwargs in schedule.actions}
    coordinator = KINDS[kind](
        _zones(sim), checkpoint_interval=schedule.interval, metrics=MetricRegistry()
    )
    if built is not None:
        built(coordinator)
    messages, handoffs, warnings, answers = [], [], [], ()
    with coordinator:
        for i, readings in enumerate(epochs):
            recorded = len(coordinator.quarantine.warnings)
            if i in actions:
                name, kwargs = actions[i]
                messages.extend(getattr(coordinator, name)("shelf-a", **kwargs))
            if i == schedule.death:
                _kill_worker_0(kind, coordinator)
            if i == schedule.queries_at:
                answers += _answers(coordinator)
            scripted = coordinator.quarantine.warnings[recorded:]
            result = coordinator.process_epoch(readings)
            messages.extend(result.messages)
            handoffs.append(tuple(result.handoffs))
            warnings.append(
                tuple(w for w in (*scripted, *result.warnings) if w.kind not in DEATH_KINDS)
            )
        owners = tuple(sorted((str(tag), zone) for tag, zone in coordinator._owner.items()))
        answers += _answers(coordinator)
        counters = _counter_text(coordinator)
        deaths = tuple(w for w in coordinator.quarantine.warnings if w.kind in DEATH_KINDS)
        live_workers = sum(worker.alive for worker in coordinator._workers)
    check_well_formed(messages)
    return Observed(
        hashlib.sha256(encode_stream(messages)).hexdigest(),
        tuple(handoffs), tuple(warnings), owners, answers, counters, deaths, live_workers,
    )


def _assert_same_run(observed: Observed, expected: Observed) -> None:
    assert observed.stream_sha256 == expected.stream_sha256
    assert observed.handoffs == expected.handoffs
    assert observed.warnings == expected.warnings
    assert observed.owners == expected.owners
    assert observed.answers == expected.answers
    assert observed.counters == expected.counters
    assert expected.answers and any(expected.handoffs)


def _assert_one_death(observed: Observed) -> None:
    """The only trace: one ``worker_lost``, one ``zone_rehomed`` per zone."""
    kinds = [w.kind for w in observed.deaths]
    assert kinds.count(WarningKind.WORKER_LOST) == 1
    assert kinds.count(WarningKind.ZONE_REHOMED) == len(HOSTED_BY_WORKER_0)


@lru_cache(maxsize=None)
def _reference(schedule: Schedule) -> Observed:
    return _observe("in-process", schedule)


#: TCP workers fail over from checkpoints, so that pool requires the interval
CELLS = [
    (kind, name)
    for kind in KINDS
    for name, schedule in SCHEDULES.items()
    if not (kind == "tcp-2" and schedule.interval is None)
]


@pytest.mark.parametrize("kind,schedule_name", CELLS)
def test_contract(kind, schedule_name):
    schedule = SCHEDULES[schedule_name]
    observed = _observe(kind, schedule)
    _assert_same_run(observed, _reference(schedule))
    if schedule.death is not None and kind != "in-process":
        _assert_one_death(observed)


# ---------------------------------------------------------------------------
# death with a request in flight, or found by a query: just as invisible
# ---------------------------------------------------------------------------

UNDISTURBED = Schedule(seed=17)


def _poison(monkeypatch, method: str, target: int, die) -> None:
    """``Spire.<method>`` calls ``die()`` when asked to work at epoch
    ``target`` (``die`` returns at once anywhere but in the victim).
    Installed before the pool is built: forked workers inherit it."""
    original = getattr(Spire, method)

    def poisoned(self, subject, *now):
        if (now[0] if now else subject.epoch) == target:
            die()
        return original(self, subject, *now)

    monkeypatch.setattr(Spire, method, poisoned)


def _in_pipe_worker_0() -> bool:
    return multiprocessing.current_process().name == "spire-worker-0"


def _exit_pipe_worker():
    if _in_pipe_worker_0():
        os._exit(1)


def _raise_in_pipe_worker():
    if _in_pipe_worker_0():
        raise RuntimeError("injected worker fault")


def _first_migration(role: int) -> int:
    """The first epoch index (past the first checkpoint) at which a zone of
    worker 0 releases (``role`` 1) or adopts (``role`` 2) a tag."""
    return next(
        i
        for i, moved in enumerate(_reference(UNDISTURBED).handoffs)
        if i > 10 and any(handoff[role] in HOSTED_BY_WORKER_0 for handoff in moved)
    )


MID_ROUND_DEATHS = {
    # kind, Spire method that dies, at which epoch index, how worker 0 dies,
    # what the worker_lost warning says, live workers afterwards
    "pipe-exit": ("pipe-2", "process_epoch", lambda: 60, _exit_pipe_worker, "connection lost", 2),
    "pipe-error": (
        "pipe-2", "process_epoch", lambda: 60, _raise_in_pipe_worker, "injected worker fault", 2,
    ),
    "tcp-crash": ("tcp-2", "process_epoch", lambda: 60, None, "connection lost", 1),
    "pipe-release": (
        "pipe-2", "release", lambda: _first_migration(1), _exit_pipe_worker, "connection lost", 2,
    ),
    "tcp-release": ("tcp-2", "release", lambda: _first_migration(1), None, "connection lost", 1),
    "pipe-adopt": (
        "pipe-2", "adopt", lambda: _first_migration(2), _exit_pipe_worker, "connection lost", 2,
    ),
    "tcp-adopt": ("tcp-2", "adopt", lambda: _first_migration(2), None, "connection lost", 1),
}


@pytest.mark.parametrize("case", MID_ROUND_DEATHS)
def test_mid_epoch_death_is_invisible_in_the_stream(case, monkeypatch):
    """A worker lost with a request half applied: the round takes the
    rebuilt zones' replies and the run is the undisturbed one — pipes
    with the process respawned in its slot, TCP with one worker fewer."""
    kind, method, index, die, reason, live_after = MID_ROUND_DEATHS[case]
    expected = _reference(UNDISTURBED)
    _sim, epochs = _epochs(_config(UNDISTURBED.seed))
    target = epochs[index()].epoch

    pool = []

    def crash_daemon_0():
        daemon = pool[0]._daemons[0]
        if threading.current_thread().name == daemon.name:
            daemon.crash()  # sockets gone, state lost; the reply cannot be sent

    _poison(monkeypatch, method, target, die or crash_daemon_0)
    observed = _observe(kind, UNDISTURBED, built=pool.append)
    _assert_same_run(observed, expected)
    _assert_one_death(observed)
    lost = observed.deaths[0]
    assert lost.kind is WarningKind.WORKER_LOST and lost.epoch == target
    assert reason in lost.detail
    assert observed.live_workers == live_after


#: how long a wedged worker sleeps: past the request deadline, so the
#: coordinator gives it up, but not by much, so a TCP daemon is back at
#: its accept loop in time to answer the redial
WEDGE_S = Deadlines().request_timeout + 1.0


@pytest.mark.parametrize("kind", ["pipe-2", "tcp-2"])
def test_a_wedged_worker_is_lost_at_the_deadline(kind, monkeypatch):
    """Worker 0 sleeps inside an epoch past the request deadline: the
    round waits no longer than the deadline, loses the worker, and the run
    is the undisturbed one — with the process killed and respawned in its
    slot (pipes), or the daemon redialled once it is back (TCP)."""
    expected = _reference(UNDISTURBED)
    _sim, epochs = _epochs(_config(UNDISTURBED.seed))
    target = epochs[60].epoch
    pool, armed = [], [True]

    def wedge():
        if kind == "pipe-2":
            inside = _in_pipe_worker_0()
        else:
            inside = threading.current_thread().name == pool[0]._daemons[0].name
        if inside and armed:
            armed.clear()  # once: a daemon thread cannot be killed
            time.sleep(WEDGE_S)

    _poison(monkeypatch, "process_epoch", target, wedge)
    observed = _observe(kind, UNDISTURBED, built=pool.append)
    _assert_same_run(observed, expected)
    _assert_one_death(observed)
    lost = observed.deaths[0]
    assert lost.epoch == target
    assert f"no reply within {Deadlines().request_timeout:g} s" in lost.detail
    assert observed.live_workers == 2


def test_close_lets_go_of_a_wedged_pipe_worker(monkeypatch):
    """``close()`` waits for a wedged worker's reply no longer than the
    request deadline, then kills it: it returns within the deadline plus
    the kill escalation (terminate, then kill, 5 s each at most)."""
    sim, epochs = _epochs(_config(seed=17, duration=20))
    target = epochs[5].epoch
    _poison(monkeypatch, "process_epoch", target, lambda: _in_pipe_worker_0() and time.sleep(60))
    coordinator = ParallelCoordinator(_zones(sim), workers=2, checkpoint_interval=10)
    for readings in epochs[:5]:
        coordinator.process_epoch(readings)
    worker = coordinator._workers[0]
    coordinator._submit(worker, (wire.MSG_EPOCH, [(0, 0, epochs[5])]))
    started = time.monotonic()
    coordinator.close()
    assert time.monotonic() - started < Deadlines().request_timeout + 10.0
    assert not worker.process.is_alive()


@pytest.mark.parametrize("kind", ["pipe-2", "tcp-2"])
def test_death_found_by_a_query_is_invisible_too(kind):
    """Worker 0 dies and the next thing asked is ``location_of``: the
    query round rebuilds its zones and answers from the rebuilt state."""
    schedule = Schedule(seed=17, death=60, queries_at=60)
    observed = _observe(kind, schedule)
    _assert_same_run(observed, _reference(schedule))
    _assert_one_death(observed)


#: kill points around the interval-10 cadence of seed 17, whose zones
#: migrate tags at indices 5, 10, 20, 40, 105, 110, 111, 120, 126, 139 and
#: 140: before an epoch that checkpoints (9, 19, ...), right after one
#: (empty log: 10, 20, ...), and with releases and adoptions in the log
KILL_POINTS = [6, 9, 10, 11, 12, 19, 20, 21, 25, 29, 30, 41, 45, 59, 60, 106, 109, 110,
               111, 112, 115, 121, 127, 141]


@pytest.mark.parametrize("index", KILL_POINTS)
def test_a_kill_before_any_epoch_leaves_the_undisturbed_digest(index):
    observed = _observe("pipe-2", Schedule(seed=17, death=index))
    assert observed.stream_sha256 == _reference(UNDISTURBED).stream_sha256
    _assert_one_death(observed)


@pytest.mark.parametrize("when", ["boundary", "mid-epoch"])
def test_worker_death_without_checkpoints_names_the_worker(when, monkeypatch):
    """Nothing to rebuild from: the error says which worker and why —
    not ``fail_zone``'s "failover requires checkpointing"."""
    sim, epochs = _epochs(_config(seed=17, duration=40))
    if when == "mid-epoch":
        _poison(monkeypatch, "process_epoch", epochs[20].epoch, _exit_pipe_worker)
    with ParallelCoordinator(_zones(sim), workers=2) as coordinator:
        for readings in epochs[:20]:
            coordinator.process_epoch(readings)
        if when == "boundary":
            _kill_worker_0("pipe-2", coordinator)
        with pytest.raises(wire.WireError, match="worker spire-worker-0 lost: "):
            coordinator.process_epoch(epochs[20])


def test_an_undecodable_reply_is_a_lost_worker(monkeypatch):
    """Worker 0 answers one epoch with a corrupted message block (a record
    of an unknown kind): the reply counts as the worker's loss — abandon,
    rebuild exactly — not as an exception out of ``process_epoch``."""
    expected = _reference(UNDISTURBED)
    _sim, epochs = _epochs(_config(UNDISTURBED.seed))
    armed = []
    _poison(monkeypatch, "process_epoch", epochs[60].epoch, lambda: armed.append(True))
    encode = wire.encode_stream

    def corrupting(messages):
        block = encode(messages)
        if armed and _in_pipe_worker_0():
            armed.clear()
            return b"\xff" * EVENT_MESSAGE_BYTES + block
        return block

    monkeypatch.setattr(wire, "encode_stream", corrupting)
    observed = _observe("pipe-2", UNDISTURBED)
    _assert_same_run(observed, expected)
    _assert_one_death(observed)
    lost = observed.deaths[0]
    assert lost.epoch == epochs[60].epoch
    assert "undecodable reply" in lost.detail and "unknown message kind" in lost.detail
    assert observed.live_workers == 2


def test_an_oversized_frame_header_is_a_lost_worker(monkeypatch):
    """Worker 0 answers one epoch with a header announcing more than
    ``MAX_FRAME_BYTES``: the coordinator reads no further and loses the
    worker — rebuilt exactly — instead of raising out of ``process_epoch``."""
    expected = _reference(UNDISTURBED)
    _sim, epochs = _epochs(_config(UNDISTURBED.seed))
    armed = []
    _poison(monkeypatch, "process_epoch", epochs[60].epoch, lambda: armed.append(True))
    send_frame = worker_module.send_frame

    def oversized(sock, payload):
        if armed and _in_pipe_worker_0():
            armed.clear()
            sock.sendall(wire.FRAME_HEADER.pack(wire.MAX_FRAME_BYTES + 1))
            return
        send_frame(sock, payload)

    monkeypatch.setattr(worker_module, "send_frame", oversized)
    observed = _observe("pipe-2", UNDISTURBED)
    _assert_same_run(observed, expected)
    _assert_one_death(observed)
    lost = observed.deaths[0]
    assert lost.epoch == epochs[60].epoch
    assert "undecodable reply" in lost.detail and "exceeds" in lost.detail
    assert observed.live_workers == 2
