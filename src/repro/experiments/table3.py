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
``BENCH_table3.json`` holds: workload, machine identification, peak RSS
and the milestone rows.  :func:`check_regression` compares a fresh payload
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
# the sharded Table III deployment (docs/SCALING.md)
# ---------------------------------------------------------------------------

def scaling_zone_assignment(num_shelves: int = 8) -> dict[str, list[str]]:
    """Zone layout of the sharded Table III runs: inbound + one zone per
    shelf + outbound, so an 8-shelf warehouse yields 10 zones (enough to
    occupy 8 workers)."""
    assignment: dict[str, list[str]] = {"inbound": ["entry-door", "receiving-belt"]}
    for i in range(num_shelves):
        assignment[f"shelf-{i + 1:02d}"] = [f"shelf-{i + 1}"]
    assignment["outbound"] = ["packaging-area", "exit-belt", "exit-door"]
    return assignment
