"""Checks of the benchmark harness itself, on tiny traces.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run with

    python3 -m pytest benchmarks/e2e/test_harness.py
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (also puts src/ on the path)
import measure  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, benchmark_spec  # noqa: E402

SEED = 7
SPEC = benchmark_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture
def tiny(monkeypatch):
    """Every workload cut to ~130 epochs; percentiles allowed on few samples."""
    monkeypatch.setattr(measure, "MIN_BEYOND", 1)
    for name, workload in WORKLOADS.items():
        small = replace(
            workload,
            sim={**workload.sim, "duration": 130},
            pinned_epochs=130,
            epochs=100 if workload.serve else None,
        )
        monkeypatch.setitem(run.WORKLOADS, name, small)
    yield
    gc.unfreeze()  # set-up froze the trace; do not pin it in the test process


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def needs_cores(name: str) -> None:
    workers = WORKLOADS[name].session.get("workers") or 0
    if workers > (os.cpu_count() or 1):
        pytest.skip(f"{name} needs {workers} cores")


def test_benchmark_json_names():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in names


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_run(name, tiny, capsys):
    needs_cores(name)
    assert run.main(["--workload", name, "--seed", str(SEED), "--trace", "0"]) == 0
    result = last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(expected)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == expected[metric]
        # a trace this short can be error-free; the real pinned traces are not
        floor = 0 if metric.endswith("_error_rate") else 1e-12
        assert math.isfinite(entry["value"]) and entry["value"] >= floor, metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run(name, tiny, capsys):
    needs_cores(name)
    wrapped = [
        (owner, attr, owner.__dict__[attr])
        for group in ("core", "zones", "serving")
        for owner, attr, _make in spans._layers(group)
    ]
    assert run.main(["--workload", name, "--seed", str(SEED), "--trace", "1"]) == 0
    result = last_json(capsys)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(expected)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == expected[metric]
        assert math.isfinite(entry["value"]), metric
    # every class-level wrapper is gone again
    for owner, attr, original in wrapped:
        assert owner.__dict__[attr] is original, (owner, attr)

    lines = (HERE / "out" / f"spans-{name}-{SEED}.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["workload"] == name
    recorded = [json.loads(line) for line in lines[1:]]
    by_id = {span["id"]: span for span in recorded}
    roots = [span for span in recorded if span["name"] == spans.ROOT]
    assert len(roots) == len({span["trace"] for span in roots}) > 0
    nested = 0
    for span in recorded:
        assert span["end"] >= span["start"]
        parent = by_id.get(span["parent"])
        if parent is not None:
            nested += 1
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"], span
    assert nested > 0
    metrics = result["metrics"]
    assert 0.0 <= metrics["pipeline.unattributed_share"]["value"] < 1.0
    # zones.* is non-zero on the parallel workload only
    assert (metrics["zones.fanin_wait_s"]["value"] > 0) == bool(
        WORKLOADS[name].session.get("workers")
    )


def test_percentile_refuses_thin_tails():
    samples = [float(i) for i in range(99)]
    assert measure.percentile(samples, 50) == 49.0
    assert measure.percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(samples, 90)  # 9.9 samples beyond
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(samples[:19], 50)
    assert measure.percentile_or_zero(samples, 99) == 0.0


def test_modes_are_split_and_passes_aligned():
    epochs = list(range(20))
    values = [100.0 if e % 10 == 0 else 1.0 for e in epochs]
    partial, complete = measure.split_modes(values, epochs, 10)
    assert complete == [100.0, 100.0] and set(partial) == {1.0} and len(partial) == 18
    assert measure.aligned_min([[3.0, 1.0], [2.0, 5.0]]) == [2.0, 1.0]
    assert measure.aligned_max([[3.0, 1.0], [2.0, 5.0]]) == [3.0, 5.0]
    with pytest.raises(ValueError):
        measure.aligned_min([[1.0], [1.0, 2.0]])
