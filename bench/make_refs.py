"""Regenerate `refs.json`, the benchmark's reference outputs.

    python3 bench/make_refs.py

Runs one pass of each workload, in item order, and records its item count
and output digest.  Only rerun this when a change to the package is meant
to change the outputs, and check the new digests independently first.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from cuntzlab.dynamics import JoinDynamics  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main():
    tap, patcher = tracing.JoinTap(), tracing.Patcher()
    tap.install(patcher, JoinDynamics)
    refs = {}
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(tap)
            items = workload.items()
            workload.start_pass()
            if not all([workload.run_item(item) for item in items]):
                sys.exit(f"{name}: an identity check failed")
            result = workload.finish_pass()
            if not result["ok"]:
                sys.exit(f"{name}: a cross-item check failed")
            refs[name] = {"items": len(items)}
            if "digest" in result:
                refs[name]["digest"] = result["digest"]
    finally:
        patcher.restore()
    (BENCH / "refs.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
