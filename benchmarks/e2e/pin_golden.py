"""Re-pin ``golden.json``: the digest of every workload's pinned pass.

Every run reports ``digest_matches_golden`` against these; a mismatch is
a report, not a failure, so a PR that improves accuracy is not blocked —
it re-pins here and says so.  ``growth_pipe`` is pinned from the *serial*
coordinator over the same zones, so the parallel run is checked against
an independent execution of the same job.

    python3 benchmarks/e2e/pin_golden.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (also puts src/ on the path)
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    digests = {}
    for name, workload in WORKLOADS.items():
        if workload.session.get("workers"):
            workload = replace(workload, session={**workload.session, "workers": None})
        result, _matches = run.pinned_pass(workload)
        if result.failed:
            print(f"{name}: {result.failures}", file=sys.stderr)
            return 1
        digests[name] = result.check["digest"]
        print(f"{name} {digests[name]}")
    (HERE / "golden.json").write_text(json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
