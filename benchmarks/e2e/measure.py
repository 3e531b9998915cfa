"""Estimators and the machine stamp.

Three rules are enforced here rather than left to callers:

* a percentile is produced only when at least ``MIN_BEYOND`` samples lie
  beyond it (:func:`percentile` raises otherwise);
* partial and complete epochs are never pooled (:func:`split_modes`
  returns them apart and nothing here joins them again);
* per-epoch times of repeated passes over the identical trace are
  reduced position by position (:func:`aligned_min`) before any
  percentile or sum is taken.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import sys
import time

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), linearly interpolated.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie beyond the percentile on its thinner side.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"q must be inside (0, 100), got {q}")
    n = len(samples)
    beyond = n * min(q, 100.0 - q) / 100.0
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond:.1f} beyond it (need {MIN_BEYOND})"
        )
    ordered = sorted(samples)
    rank = (n - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def percentile_or_zero(samples: list[float], q: float) -> float:
    """For per-layer metrics that a workload may not support: 0 = not reported."""
    try:
        return percentile(samples, q)
    except TooFewSamples:
        return 0.0


def aligned_min(passes: list[list[float]]) -> list[float]:
    """Per epoch position, the minimum over passes of the identical trace."""
    if not passes:
        raise ValueError("no passes")
    length = len(passes[0])
    if any(len(p) != length for p in passes):
        raise ValueError("passes cover different numbers of epochs")
    return [min(column) for column in zip(*passes)]


def aligned_max(passes: list[list[float]]) -> list[float]:
    """Counterpart of :func:`aligned_min`, for the pass-spread noise figure."""
    return [max(column) for column in zip(*passes)]


def split_modes(
    values: list[float], epochs: list[int], period: int
) -> tuple[list[float], list[float]]:
    """``(partial, complete)``: a complete epoch is one whose number is
    divisible by the deployment's complete-inference period (SIV-D)."""
    partial = [v for v, e in zip(values, epochs) if e % period]
    complete = [v for v, e in zip(values, epochs) if e % period == 0]
    return partial, complete


def calibrate(iterations: int = 1_000_000, repeats: int = 3) -> float:
    """Milliseconds for a fixed pure-Python spin (best of ``repeats``): a
    machine-speed probe printed with every result."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(iterations):
            acc += i & 7
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def machine_stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "calibration_ms": calibrate(),
    }


def peak_rss_mb() -> float:
    """``VmHWM`` of this process plus its live worker processes, in MB."""
    total_kb = 0
    for pid in [os.getpid()] + [p.pid for p in multiprocessing.active_children()]:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0
