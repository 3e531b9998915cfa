"""A/A check: two sets of N runs of the same checkout, compared.

For every workload x end-to-end metric this prints both medians, both
inter-quartile spreads as a share of the median (``statistics.quantiles``
with ``n=4``, as the acceptance driver computes them), how much worse the
second median is than the first, and the metric's bound.  Run ``i`` of
either set uses seed ``--seed + i``, so the exact metrics of the two
sets are identical and every difference is timing noise.

    python3 benchmarks/e2e/aa_check.py --runs 10 [--workload NAME ...]

Use it to accept a change to the benchmark itself and to re-baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import machine_stamp  # noqa: E402
from workloads import WORKLOADS, benchmark_spec  # noqa: E402


def one_run(workload: str, seed: int) -> dict:
    # its own process group, so a run that is killed takes its workers along
    run = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = run.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        raise SystemExit(f"{workload} seed {seed}: no result within 180 s")
    if run.returncode:
        raise SystemExit(f"{workload} seed {seed}: exit code {run.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} operations failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--seed", type=int, default=41, help="seed of run 0 of each set")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    names = args.workload or list(WORKLOADS)
    print("machine " + json.dumps(machine_stamp()))

    # the two sets are interleaved, so drift of the machine hits both alike
    sets: dict[str, tuple[list[dict], list[dict]]] = {name: ([], []) for name in names}
    for i in range(args.runs):
        for which in (0, 1):
            for name in names:
                sets[name][which].append(one_run(name, args.seed + i))
                print(f"run {i} set {'AB'[which]} {name} done", file=sys.stderr)

    failed = 0
    header = f"{'workload':<13} {'metric':<24} {'median A':>11} {'median B':>11} "
    print(header + f"{'iqr A':>7} {'iqr B':>7} {'B worse':>8} {'bound':>6}")
    for name in names:
        first, second = sets[name]
        for entry in benchmark_spec()["end_to_end"]:
            metric, better, bound = entry["name"], entry["better"], entry["bound"]
            a = [run[metric] for run in first]
            b = [run[metric] for run in second]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1 if better == "lower" else -1)
            spreads = (spread(a), spread(b))
            # the spread of set-up time is reported, not judged
            noisy = metric != "setup_s" and max(spreads) > bound
            verdict = "FAIL" if noisy or worse > bound else ""
            failed += bool(verdict)
            print(
                f"{name:<13} {metric:<24} {med_a:>11.5g} {med_b:>11.5g} "
                f"{spreads[0]:>7.2%} {spreads[1]:>7.2%} {worse:>+8.2%} {bound:>6.0%} {verdict}"
            )
    print(f"{failed} workload x metric pairs outside their bound")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
