"""One benchmark run: ``--workload NAME --seed N --seconds S --trace 0|1``.

Prints every metric by name with its unit, then one JSON object as the
last line of standard output.  ``--trace 0`` reports the end-to-end
metrics from untraced passes; ``--trace 1`` runs one untraced reference
pass and one traced pass and reports the per-layer metrics.  Either way
the run ends with a pass over the pinned trace, which gives the exact
metrics (accuracy, compression) and the digest compared with
``golden.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"{SRC}/repro not found: the benchmark runs from a checkout of the repository")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from measure import (  # noqa: E402
    aligned_max,
    aligned_min,
    machine_stamp,
    peak_rss_mb,
    percentile,
    percentile_or_zero,
    split_modes,
)
from passes import PassResult, Trace, build_trace, run_loop_pass, setup  # noqa: E402
from serve import run_serve_pass  # noqa: E402
from spans import ROOT, SpanRecorder, installed  # noqa: E402
from workloads import WORKLOADS, Workload, benchmark_spec  # noqa: E402

MIN_PASSES = 2


def run_pass(trace: Trace, workload: Workload, full: bool, rec=None, **kwargs) -> PassResult:
    if workload.serve:
        return run_serve_pass(trace, workload, full, rec)
    return run_loop_pass(trace, workload, full, rec, **kwargs)


def span_groups(workload: Workload) -> tuple[str, ...]:
    if workload.session.get("workers"):
        return ("zones",)
    return ("core", "serving") if workload.serve else ("core",)


def pinned_pass(workload: Workload) -> tuple[PassResult, bool]:
    """A pass over the pinned trace (the same whatever ``--seed`` is), with
    every check on: accuracy against ground truth, compression,
    well-formedness, and whether its digest is the one in ``golden.json``.
    Run after the measured passes, so none of it is in their memory."""
    trace = build_trace(workload, None, workload.pinned_epochs, with_truth=True)
    result = run_pass(trace, workload, full=True)
    golden = json.loads((HERE / "golden.json").read_text())
    return result, result.check["digest"] == golden.get(workload.name)


def check_passes(passes: list[PassResult], pinned: PassResult) -> tuple[int, int, list[str]]:
    """``(attempted, failed, failure lines)`` over one run: ``passes`` cover
    the identical trace and must agree on its digest."""
    everything = passes + [pinned]
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    lines = [line for p in everything for line in p.failures]
    digests = {p.check["digest"] for p in passes}
    if len(digests) > 1:
        failed += len(digests) - 1
        lines.append(f"passes disagree on the stream digest: {sorted(digests)}")
    return attempted, failed, lines


def query_sample(workload: Workload, passes: list[PassResult]) -> list[float]:
    """Query round trips of one run.  A closed loop asks the identical
    queries at the identical points of every pass, so they are reduced
    position by position like the epochs; the ``serve_tcp`` query client
    runs free beside the pump, so its round trips are pooled."""
    if workload.serve:
        return [rtt for p in passes for rtt in p.queries]
    return aligned_min([p.queries for p in passes])


def end_to_end(
    trace: Trace, workload: Workload, setup_s: float, passes: list[PassResult], pinned: PassResult
) -> dict:
    busy = aligned_min([p.busy for p in passes])
    latency = aligned_min([p.latency for p in passes])
    partial, complete = split_modes(latency, trace.numbers, trace.period)
    queries = query_sample(workload, passes)
    return {
        "setup_s": setup_s,
        "readings_per_s": trace.readings / sum(busy),
        "partial_epoch_ms_p50": percentile(partial, 50) * 1e3,
        "partial_epoch_ms_p90": percentile(partial, 90) * 1e3,
        "complete_epoch_ms_mean": sum(complete) / len(complete) * 1e3,
        "query_ms_p50": percentile(queries, 50) * 1e3,
        # the last pass carries the whole-stream check and is left out: what
        # it keeps for the check is the benchmark's memory, not the program's
        "peak_rss_mb": max(p.peak_rss_mb for p in passes[:-1]),
        "compression_ratio": pinned.check["compression_ratio"],
        "location_error_rate": pinned.check["location_error_rate"],
        "containment_error_rate": pinned.check["containment_error_rate"],
    }


def per_layer(
    trace: Trace,
    reference: PassResult,
    traced: PassResult,
    rec: SpanRecorder,
    metrics_on: PassResult | None,
    stamp: dict,
    matches_golden: bool,
    names: list[str],
) -> dict:
    self_s = rec.self_times()
    counts = rec.counts
    ref, extra = reference.extra, traced.extra
    total = rec.busy(ROOT)
    calls = {
        name: sum(s[6] for s in rec.spans if s[3] == name)
        for name in ("compression", "sase.evaluate")
    }
    _partial, complete = split_modes(reference.latency, trace.numbers, trace.period)
    hits, misses = counts["inference.cache_hits"], counts["inference.cache_misses"]
    entered = rec.starts("pipeline")
    traced_pulls = extra.get("pulls", {})
    hops = [entered[e] - traced_pulls[e] for e in entered if e in traced_pulls]
    rtts = reference.queries
    checkpoints = ref.get("zones.checkpoints", 0)
    values = {
        "dedup.busy_s": self_s.get("dedup", 0.0),
        "capture.busy_s": self_s.get("capture", 0.0),
        "inference.partial_busy_s": self_s.get("inference.partial", 0.0),
        "inference.complete_busy_s": self_s.get("inference.complete", 0.0),
        "inference.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "inference.dirty_nodes_mean": (
            counts["inference.dirty_nodes"] / counts["inference.runs"]
            if counts["inference.runs"]
            else 0.0
        ),
        "compression.busy_s": self_s.get("compression", 0.0),
        "compression.observe_calls": calls["compression"],
        "pipeline.self_s": self_s.get("pipeline", 0.0),
        "pipeline.epoch_total_s": total,
        "pipeline.unattributed_share": self_s.get(ROOT, 0.0) / total,
        "pipeline.complete_epoch_ms_last5": sum(complete[-5:]) / len(complete[-5:]) * 1e3,
        "epoch.complete_ms_p50": percentile_or_zero(complete, 50) * 1e3,
        "epoch.complete_ms_p90": percentile_or_zero(complete, 90) * 1e3,
        "codec.encode_s": ref["codec.encode_s"],
        "codec.bytes_out": ref["codec.bytes_out"],
        "codec.bytes_per_message": ref["codec.bytes_out"] / max(reference.check["messages"], 1),
        # in parallel mode the checkpoint is cut inside the workers, so the
        # cost of one is their summed time over their count
        "checkpoint.encode_ms": (
            ref["zones.checkpoint_s"] / checkpoints * 1e3
            if checkpoints
            else extra["checkpoint.encode_ms"]
        ),
        "checkpoint.bytes": extra["checkpoint.bytes"],
        "index.extend_s": self_s.get("index.extend", 0.0),
        "sase.evaluate_s": self_s.get("sase.evaluate", 0.0),
        "sase.evaluations": calls["sase.evaluate"],
        "engine.publish_s": rec.busy("engine.publish"),
        "engine.enqueue_s": self_s.get("engine.publish", 0.0),
        "protocol.encode_s": self_s.get("protocol.encode", 0.0),
        "protocol.decode_s": self_s.get("protocol.decode", 0.0),
        "server.flush_self_s": self_s.get("server.publish_epoch", 0.0),
        "client.deliver_lag_ms_p50": percentile_or_zero(ref.get("deliver_lag", []), 50) * 1e3,
        "pump.executor_hop_ms_p50": percentile_or_zero(hops, 50) * 1e3,
        "query.rtt_ms_p50": percentile_or_zero(rtts, 50) * 1e3,
        "query.rtt_ms_p99": percentile_or_zero(rtts, 99) * 1e3,
        "obs.metrics_on_ratio": (
            sum(metrics_on.busy) / sum(reference.busy) if metrics_on is not None else 0.0
        ),
        "trace.overhead_ratio": sum(traced.busy) / sum(reference.busy),
        "calibration_ms": stamp["calibration_ms"],
        "digest_matches_golden": int(matches_golden),
    }
    # the rest are counts taken in the wrappers, then figures a pass reports itself
    return {
        name: values[name] if name in values else counts.get(name, ref.get(name, 0))
        for name in names
    }


def traced_run(
    trace: Trace, workload: Workload, seed: int, stamp: dict
) -> tuple[list[PassResult], SpanRecorder]:
    """Reference pass, traced pass (spans written out), optional metrics-on pass."""
    reference = run_pass(trace, workload, full=True)
    rec = SpanRecorder()
    with installed(rec, span_groups(workload)):
        traced = run_pass(trace, workload, full=False, rec=rec)
    passes = [reference, traced]
    if workload.metrics_on_pass:
        passes.append(run_loop_pass(trace, workload, full=False, metrics=True))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    rec.write_jsonl(
        out / f"spans-{workload.name}-{seed}.jsonl",
        {"workload": workload.name, "seed": seed, "machine": stamp},
    )
    return passes, rec


def report(title: str, values: dict, units: dict) -> None:
    print(f"-- {title}")
    for name, value in values.items():
        print(f"{name:<40} {value:>16.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    workers = workload.session.get("workers") or 0
    if workers > (os.cpu_count() or 1):
        print(
            f"{workload.name} needs {workers} cores for its workers, this machine has "
            f"{os.cpu_count()}: refusing to time oversubscription",
            file=sys.stderr,
        )
        return 2

    stamp = machine_stamp()
    print(f"-- {workload.name} seed={args.seed} trace={args.trace} " + json.dumps(stamp))
    trace, setup_s = setup(workload, args.seed)
    setup_rss = peak_rss_mb()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        passes, rec = traced_run(trace, workload, args.seed, stamp)
        pinned, matches = pinned_pass(workload)
        metrics_on = passes[2] if len(passes) > 2 else None
        values = per_layer(
            trace, passes[0], passes[1], rec, metrics_on, stamp, matches, list(units)
        )
    else:
        wanted = max(MIN_PASSES, round(workload.passes * args.seconds / spec["run_seconds"]))
        # the whole-stream check rides on the last pass, after the memory
        # of the others has been read
        passes = [run_pass(trace, workload, full=i == wanted - 1) for i in range(wanted)]
        pinned, matches = pinned_pass(workload)
        values = end_to_end(trace, workload, setup_s, passes, pinned)
        spread = sum(aligned_max([p.busy for p in passes])) / sum(
            aligned_min([p.busy for p in passes])
        )
        partial, complete = split_modes(passes[0].busy, trace.numbers, trace.period)
        queries = query_sample(workload, passes)
        print(
            f"passes={len(passes)} epochs={len(trace.epochs)} partial={len(partial)} "
            f"complete={len(complete)} readings={trace.readings} "
            f"messages={passes[0].check['messages']} queries={len(queries)} "
            f"query_ms_p99={percentile(queries, 99) * 1e3:.6g} "
            f"query_ms_mean={sum(queries) / len(queries) * 1e3:.6g} "
            f"noise.pass_spread={spread:.4f} rss_after_setup_mb={setup_rss:.1f} "
            f"pass_busy_s={[round(sum(p.busy), 3) for p in passes]}"
        )

    attempted, failed, failures = check_passes(passes, pinned)
    report("per-layer" if args.trace else "end-to-end", values, units)
    print(
        f"stream_sha256={passes[0].check['digest']} "
        f"pinned_sha256={pinned.check['digest']} digest_matches_golden={matches}"
    )
    print(f"ops_attempted={attempted} ops_failed={failed}")
    for line in failures:
        print(f"FAILED: {line}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in values.items()
                },
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
