"""Record the reference digests every run checks its answers against.

Run once, from the root of a checkout of the commit whose answers are
the reference::

    python3 perfbench/record_references.py

It runs one pass of each workload (``sweep-2w`` shares ``sweep``'s
digests; ``assess`` has one fixed roster) for seeds ``0 .. 49`` and
rewrites every digest of ``perfbench/references.json``, stamped with
the revision they come from.  Re-record only when a change is meant to
alter the answers, and say so in the change.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run as bench

SEEDS = range(50)


def main() -> int:
    bench.import_program()
    from workloads import WORKLOADS

    digests = {}
    plan = [("assess", 0)] + [
        (name, seed) for name in ("sweep", "whatif") for seed in SEEDS
    ]
    for name, seed in plan:
        workload = WORKLOADS[name]()
        workload.setup(seed)
        run = bench.Run(workload, {})
        run.run_pass()
        if not run.correct:
            sys.stderr.write("%s seed %d failed: %s\n" % (name, seed, run.errors))
            return 1
        digests.update(run.digests)
        print(name, seed, flush=True)
    revision = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=bench.ROOT
    ).stdout.strip()
    with open(bench.REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(
            {"recorded_at": revision or "unknown", "digests": digests},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
