"""Table III sweep: per-epoch update/inference cost vs. graph size (Expt 5).

This module is the programmatic core behind both the ``repro-spire bench``
CLI subcommand and ``benchmarks/test_table3_speed.py``: it grows a
warehouse with the paper's high-injection workload (a pallet every
``2 * cases_per_pallet`` epochs, nothing leaving the shelves) and records
windowed per-epoch costs each time the graph crosses a milestone node
count.

Two cost views are recorded per milestone:

* ``avg_epoch_s`` — mean cost over *all* epochs of the window (partial
  inference most epochs, complete inference on the LCM grid): the paper's
  "can it keep up" number;
* ``complete_epoch_s`` — mean cost of the complete-inference epochs alone,
  the worst case that must still fit inside an epoch.

The resulting payload (:func:`run_table3` / :func:`write_payload`) is what
``BENCH_table3.json`` holds: workload, machine identification, peak RSS,
the milestone rows, and — when a reference run is requested — before/after
rows plus speedups.  :func:`check_regression` compares a fresh payload
against a committed baseline with a relative tolerance, normalising away
machine-speed differences via the recorded :func:`calibrate` score so a CI
runner is compared fairly against the machine that produced the baseline.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.core.params import InferenceParams
from repro.core.pipeline import Deployment, Spire
from repro.simulator.config import SimulationConfig
from repro.simulator.warehouse import SimulationResult, WarehouseSimulator

#: default milestone node counts (the paper sweeps ~25k-175k; these keep a
#: full before/after sweep under a minute of wall clock)
DEFAULT_MILESTONES = (2_000, 4_000, 8_000, 12_000)
DEFAULT_CASES_PER_PALLET = 5
DEFAULT_SEED = 41

#: a milestone window only closes after this many complete-inference epochs,
#: so every ``complete_epoch_s`` averages at least two full scans
MIN_COMPLETES_PER_WINDOW = 2


def growth_per_epoch(cases_per_pallet: int) -> float:
    """Objects injected per epoch: a pallet (1 + cases*(items+1) objects)
    arrives every ``2 * cases_per_pallet`` epochs."""
    return (1 + cases_per_pallet * 21) / (2 * cases_per_pallet)


def table3_config(
    cases_per_pallet: int, duration: int, seed: int = DEFAULT_SEED
) -> SimulationConfig:
    """High-injection workload for Table III / Fig. 10 graph growth.

    The injection rate is chosen so the receiving belt (one case at a time,
    one epoch each) keeps up — cases_per_pallet/pallet_period must stay
    below 1 case/epoch or the dock queue (and the dock reader's quadratic
    edge-creation cost) grows without bound.
    """
    return SimulationConfig(
        duration=duration,
        pallet_period=2 * cases_per_pallet,
        cases_per_pallet_min=cases_per_pallet,
        cases_per_pallet_max=cases_per_pallet,
        items_per_case=20,
        read_rate=0.85,
        shelf_read_period=60,
        num_shelves=8,
        shelving_time_mean=10 * duration,  # nothing leaves: the graph grows
        shelving_time_jitter=0,
        belt_dwell=1,
        seed=seed,
    )


def duration_for(milestones: tuple[int, ...] | list[int], cases_per_pallet: int) -> int:
    """Trace length that comfortably reaches the largest milestone."""
    return int(max(milestones) / growth_per_epoch(cases_per_pallet)) + 200


@dataclass(frozen=True)
class MilestoneCost:
    """Windowed cost figures recorded when the graph crosses one milestone."""

    milestone: int
    nodes: int
    edges: int
    epoch: int
    epochs_in_window: int
    avg_update_s: float
    avg_inference_s: float
    avg_epoch_s: float
    complete_epoch_s: float


def run_sweep(
    sim: SimulationResult,
    milestones: tuple[int, ...] | list[int],
    params: InferenceParams | None = None,
    metrics=None,
) -> dict:
    """Run one pipeline over ``sim`` and window costs at each milestone.

    Returns ``{"milestones": [MilestoneCost...], "messages": int,
    "total_s": float, "final_nodes": int, "final_edges": int}``.

    ``metrics`` (an optional :class:`repro.obs.MetricRegistry`) attaches
    telemetry to the swept pipeline — the bench CLI's ``--metrics-json``;
    the default benchmark path stays un-instrumented.
    """
    deployment = Deployment.from_readers(sim.layout.readers, sim.layout.registry)
    spire = Spire(
        deployment,
        params or InferenceParams(),
        compression_level=2,
        metrics=metrics,
    )
    pending = sorted(milestones)
    rows: list[MilestoneCost] = []
    win_update = win_inference = win_wall = 0.0
    win_epochs = completes = 0
    comp_wall = 0.0
    comp_n = 0
    messages = 0
    started = time.perf_counter()
    for readings in sim.stream:
        t0 = time.perf_counter()
        output = spire.process_epoch(readings)
        wall = time.perf_counter() - t0
        messages += len(output.messages)
        win_update += output.update_seconds
        win_inference += output.inference_seconds
        win_wall += wall
        win_epochs += 1
        if output.complete:
            completes += 1
            comp_wall += wall
            comp_n += 1
        nodes = spire.graph.node_count
        if pending and nodes >= pending[0] and completes >= MIN_COMPLETES_PER_WINDOW:
            rows.append(
                MilestoneCost(
                    milestone=pending.pop(0),
                    nodes=nodes,
                    edges=spire.graph.edge_count,
                    epoch=readings.epoch,
                    epochs_in_window=win_epochs,
                    avg_update_s=win_update / win_epochs,
                    avg_inference_s=win_inference / win_epochs,
                    avg_epoch_s=win_wall / win_epochs,
                    complete_epoch_s=comp_wall / max(comp_n, 1),
                )
            )
            win_update = win_inference = win_wall = 0.0
            win_epochs = completes = comp_n = 0
            comp_wall = 0.0
    return {
        "milestones": rows,
        "messages": messages,
        "total_s": time.perf_counter() - started,
        "final_nodes": spire.graph.node_count,
        "final_edges": spire.graph.edge_count,
    }


# ---------------------------------------------------------------------------
# payload assembly
# ---------------------------------------------------------------------------


def calibrate(iterations: int = 2_000_000) -> float:
    """Seconds for a fixed pure-Python spin — a machine-speed yardstick.

    Recorded in every payload; :func:`check_regression` uses the ratio of
    two payloads' calibration scores to compare runs from different
    machines (a CI runner vs. the laptop that committed the baseline) on a
    common footing.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i & 7
    return time.perf_counter() - t0


def machine_info() -> dict:
    import os

    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in kilobytes (ru_maxrss is
    kilobytes on Linux, bytes on macOS — normalised here)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return peak


def _sweep_payload(result: dict) -> dict:
    out = dict(result)
    out["milestones"] = [asdict(row) for row in result["milestones"]]
    return out


def run_table3(
    milestones: tuple[int, ...] | list[int] = DEFAULT_MILESTONES,
    cases_per_pallet: int = DEFAULT_CASES_PER_PALLET,
    seed: int = DEFAULT_SEED,
    params: InferenceParams | None = None,
    metrics=None,
) -> dict:
    """The full Table III benchmark: the sweep plus machine info.

    ``metrics`` instruments the swept pipeline (see :func:`run_sweep`).
    """
    config = table3_config(cases_per_pallet, duration_for(milestones, cases_per_pallet), seed)
    sim = WarehouseSimulator(config).run()
    payload: dict = {
        "workload": {
            "milestones": list(milestones),
            "cases_per_pallet": cases_per_pallet,
            "duration": config.duration,
            "seed": seed,
            "growth_per_epoch": growth_per_epoch(cases_per_pallet),
        },
        "machine": machine_info(),
        "calibration_s": calibrate(),
        "sweep": _sweep_payload(run_sweep(sim, milestones, params, metrics=metrics)),
    }
    payload["peak_rss_kb"] = peak_rss_kb()
    return payload


def write_payload(payload: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# regression gating
# ---------------------------------------------------------------------------


def check_regression(
    current: dict, baseline: dict, max_regression: float = 0.25
) -> list[str]:
    """Compare a fresh payload against a committed baseline payload.

    Per shared milestone, the *calibration-normalised* ``avg_epoch_s`` may
    exceed the baseline's by at most ``max_regression`` (fractional).
    Normalisation divides each run's cost by its own :func:`calibrate`
    score, so a slower CI runner does not read as a code regression and a
    faster one does not mask a real regression.

    Returns a list of human-readable violations (empty = pass).
    """
    problems: list[str] = []
    cur_cal = current.get("calibration_s") or 1.0
    base_cal = baseline.get("calibration_s") or 1.0
    base_rows = {row["milestone"]: row for row in baseline["sweep"]["milestones"]}
    for row in current["sweep"]["milestones"]:
        base = base_rows.get(row["milestone"])
        if base is None:
            continue
        cur_norm = row["avg_epoch_s"] / cur_cal
        base_norm = base["avg_epoch_s"] / base_cal
        if cur_norm > base_norm * (1.0 + max_regression):
            problems.append(
                f"milestone {row['milestone']}: normalised avg-epoch cost "
                f"{cur_norm:.3f} exceeds baseline {base_norm:.3f} "
                f"by more than {max_regression:.0%}"
            )
    return problems


def load_payload(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# multi-worker scaling sweep (docs/SCALING.md)
# ---------------------------------------------------------------------------

#: worker counts recorded in the scaling section of BENCH_table3.json
DEFAULT_WORKER_COUNTS = (1, 2, 4, 8)
DEFAULT_CHECKPOINT_INTERVAL = 50


def scaling_zone_assignment(num_shelves: int = 8) -> dict[str, list[str]]:
    """Zone layout for the scaling sweep: inbound + one zone per shelf +
    outbound, so an 8-shelf warehouse yields 10 zones (enough to occupy 8
    workers)."""
    assignment: dict[str, list[str]] = {"inbound": ["entry-door", "receiving-belt"]}
    for i in range(num_shelves):
        assignment[f"shelf-{i + 1:02d}"] = [f"shelf-{i + 1}"]
    assignment["outbound"] = ["packaging-area", "exit-belt", "exit-door"]
    return assignment


def run_coordinator_sweep(
    sim: SimulationResult,
    milestones: tuple[int, ...] | list[int],
    workers: int | None = None,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    params: InferenceParams | None = None,
) -> dict:
    """Run the Table III trace through the zone coordinator and window
    per-epoch wall cost at tracked-object milestones.

    ``workers=None`` runs the in-process :class:`Coordinator`;
    otherwise a :class:`ParallelCoordinator` with that many worker
    processes.  Returns milestone rows plus the SHA-256 of the merged
    event stream — the digest is the cross-configuration determinism
    receipt (every row of a scaling sweep must report the same digest).
    """
    import hashlib

    from repro.distributed import (
        Coordinator,
        ParallelCoordinator,
        partition_by_location,
    )
    from repro.events.codec import encode_stream

    zones = partition_by_location(
        sim.layout.readers,
        scaling_zone_assignment(sim.config.num_shelves),
        sim.layout.registry,
        params=params,
    )
    if workers is None:
        coordinator = Coordinator(zones, checkpoint_interval=checkpoint_interval)
    else:
        coordinator = ParallelCoordinator(
            zones, checkpoint_interval=checkpoint_interval, workers=workers
        )
    try:
        digest = hashlib.sha256()
        pending = sorted(milestones)
        rows: list[dict] = []
        win_wall = 0.0
        win_epochs = 0
        messages = 0
        started = time.perf_counter()
        for readings in sim.stream:
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
    finally:
        coordinator.close()
    out = {
        "workers": workers,
        "milestones": rows,
        "messages": messages,
        "total_s": total_s,
        "stream_sha256": digest.hexdigest(),
        "tracked_objects": coordinator.tracked_objects,
    }
    if workers is not None:
        stats = coordinator.stats
        out["ipc"] = {
            "bytes_to_workers": stats.bytes_to_workers,
            "bytes_from_workers": stats.bytes_from_workers,
            "fanout_s": stats.fanout_s,
            "fanin_wait_s": stats.fanin_wait_s,
            "checkpoints": stats.checkpoints,
            "checkpoint_s": stats.checkpoint_s,
        }
    return out


def run_scaling(
    milestones: tuple[int, ...] | list[int] = DEFAULT_MILESTONES,
    worker_counts: tuple[int, ...] | list[int] = DEFAULT_WORKER_COUNTS,
    cases_per_pallet: int = DEFAULT_CASES_PER_PALLET,
    seed: int = DEFAULT_SEED,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
) -> dict:
    """The multi-worker scaling sweep recorded in ``BENCH_table3.json``.

    Runs the Table III workload through the in-process coordinator and
    through :class:`ParallelCoordinator` at each worker count.  Attaches
    per-milestone and end-to-end speedups against the in-process row and
    the shared stream digest (all configurations must produce
    byte-identical output or the payload is marked non-deterministic).
    """
    config = table3_config(cases_per_pallet, duration_for(milestones, cases_per_pallet), seed)
    sim = WarehouseSimulator(config).run()
    payload: dict = {
        "workload": {
            "milestones": list(milestones),
            "cases_per_pallet": cases_per_pallet,
            "duration": config.duration,
            "seed": seed,
            "checkpoint_interval": checkpoint_interval,
            "zones": len(scaling_zone_assignment(config.num_shelves)),
        },
        "machine": machine_info(),
        "calibration_s": calibrate(),
    }
    serial = run_coordinator_sweep(
        sim, milestones, workers=None, checkpoint_interval=checkpoint_interval
    )
    payload["serial"] = serial
    runs = {}
    for count in worker_counts:
        runs[f"workers_{count}"] = run_coordinator_sweep(
            sim, milestones, workers=count, checkpoint_interval=checkpoint_interval
        )
    payload["parallel"] = runs

    digests = {serial["stream_sha256"]}
    digests.update(run["stream_sha256"] for run in runs.values())
    payload["streams_identical"] = len(digests) == 1
    payload["stream_sha256"] = serial["stream_sha256"]

    payload["speedups"] = {
        name: {
            "total": serial["total_s"] / max(run["total_s"], 1e-12),
            "milestones": _scaling_speedups(serial["milestones"], run["milestones"]),
        }
        for name, run in runs.items()
    }
    payload["peak_rss_kb"] = peak_rss_kb()
    return payload


def _scaling_speedups(before_rows: list[dict], after_rows: list[dict]) -> list[dict]:
    by_milestone = {row["milestone"]: row for row in before_rows}
    out = []
    for after in after_rows:
        before = by_milestone.get(after["milestone"])
        if before is None:
            continue
        out.append(
            {
                "milestone": after["milestone"],
                "avg_epoch": before["avg_epoch_s"] / max(after["avg_epoch_s"], 1e-12),
            }
        )
    return out


def check_parallel_throughput(
    current: dict, workers_key: str = "workers_2", tolerance: float = 0.25
) -> list[str]:
    """CI gate for the parallel path: the merged-stream throughput of the
    given parallel configuration must be within ``tolerance`` of the
    in-process run of the *same payload*, and the streams
    must be byte-identical.  Same-payload comparison makes the check
    machine-independent (both runs share the calibration environment).

    Returns human-readable violations (empty = pass).
    """
    problems: list[str] = []
    if not current.get("streams_identical", False):
        problems.append("parallel merged stream differs from the serial stream")
    serial = current.get("serial")
    run = (current.get("parallel") or {}).get(workers_key)
    if serial is None or run is None:
        problems.append(f"payload is missing serial or {workers_key} scaling rows")
        return problems
    serial_tp = serial["messages"] / max(serial["total_s"], 1e-12)
    parallel_tp = run["messages"] / max(run["total_s"], 1e-12)
    if parallel_tp < serial_tp * (1.0 - tolerance):
        problems.append(
            f"{workers_key} throughput {parallel_tp:.0f} msg/s is more than "
            f"{tolerance:.0%} below serial {serial_tp:.0f} msg/s"
        )
    return problems
