"""Record the result digests that ``checks.py`` compares against.

Usage (from the repository root):

    python3 perfbench/record_golden.py

For every workload and every seed in ``SEEDS`` (0-29) this runs one pass
of the workload's chain, requires every artifact to pass its invariants,
and writes the digests of the artifacts' result fields to
``perfbench/golden.json``.  Re-record only
when a change is meant to alter results, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

# The seeds whose digests golden.json holds; every re-recording covers all.
SEEDS = range(30)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from checks import read_artifact, result_digest
    from workloads import FULL, WORKLOADS

    golden: dict = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            workdir = run.WORK / f"golden-{workload}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                bench = run.Bench(workload, seed, workdir, FULL, {})
                result = bench.run_pass(traced=False)
                if result.failed:
                    print("\n".join(bench.problems), file=sys.stderr)
                    return 1
                golden.setdefault(workload, {})[str(seed)] = {
                    name: result_digest(read_artifact(workdir / name, kind), kind)
                    for step in bench.steps for name, kind in step.artifacts
                }
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{workload} seed {seed}: recorded", flush=True)
    out = run.HERE / "golden.json"
    out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
