"""The zone-coordination contract, as one matrix (DESIGN.md §9).

Every worker pool runs the same :class:`Coordinator` epoch loop, so every
pool must show the same observable behaviour.  Each cell of
``handle kind x schedule`` drives one coordinator over a seeded trace and
compares everything a caller can see — the merged stream's SHA-256, the
per-epoch handoffs and warnings, final ownership, point-query answers and
the counter exposition — with the in-process run of the same schedule,
and checks the stream well-formed.  A new transport inherits the whole
contract by adding one entry to ``KINDS``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import pytest

from repro.distributed import Coordinator, ParallelCoordinator, RemoteCoordinator
from repro.events.codec import encode_stream
from repro.events.wellformed import check_well_formed
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
}


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
        s for s in snapshot["series"] if not s["name"].startswith("spire_remote_")
    ]
    snapshot["help"] = {
        name: text
        for name, text in snapshot["help"].items()
        if not name.startswith("spire_remote_")
    }
    return render_prometheus(snapshot)


def _observe(kind: str, schedule: Schedule) -> Observed:
    sim, epochs = _epochs(_config(schedule.seed), schedule.chaos_seed)
    actions = {index: (name, kwargs) for index, name, kwargs in schedule.actions}
    coordinator = KINDS[kind](
        _zones(sim), checkpoint_interval=schedule.interval, metrics=MetricRegistry()
    )
    messages, handoffs, warnings = [], [], []
    with coordinator:
        for i, readings in enumerate(epochs):
            if i in actions:
                name, kwargs = actions[i]
                messages.extend(getattr(coordinator, name)("shelf-a", **kwargs))
            result = coordinator.process_epoch(readings)
            messages.extend(result.messages)
            handoffs.append(tuple(result.handoffs))
            warnings.append(tuple(result.warnings))
        owners = tuple(sorted((str(tag), zone) for tag, zone in coordinator._owner.items()))
        answers = tuple(
            (coordinator.location_of(tag), coordinator.container_of(tag))
            for tag in sorted(coordinator._owner, key=str)[:25]
        )
        counters = _counter_text(coordinator)
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
