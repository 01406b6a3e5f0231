"""Write reference.json: the reference output of every benchmark command.

Run it only on a commit whose outputs are trusted (the tier-1 suite passes);
every later benchmark run is checked against what it records:

    python3 perfbench/capture_reference.py
"""

from __future__ import annotations

import sys

import checks
import harness
from workloads import SMOKE_WORKLOADS, WORKLOADS


def main() -> int:
    commands = [c for w in WORKLOADS.values() for c in w.commands]
    commands += [c for cs in SMOKE_WORKLOADS.values() for c in cs]
    reference = {}
    for cmd in commands:
        run = harness.run_process(harness.cotype_argv(cmd.argv), timeout=600, tag="ref")
        if run.returncode != 0:
            sys.stderr.write(f"{cmd.key}: exit {run.returncode}\n{run.stderr.decode()}")
            return 1
        reference[cmd.key] = checks.reference_entry(cmd.argv, run.stdout)
        print(f"{run.wall_s:8.2f} s  {cmd.key}", flush=True)
    harness.write_json(checks.REFERENCE_PATH, reference)
    return 0


if __name__ == "__main__":
    sys.exit(main())
