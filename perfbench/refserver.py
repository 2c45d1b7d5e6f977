"""Serves the reference copy of parcelfuzz to an untraced benchmark run.

``workloads.Reference`` starts this script in a child process; it is not
a command of its own.  It imports parcelfuzz from ``reference/src``, a
copy that never changes, opens the same workload with the same seed and
sizes as the run that started it (set-up, warm-up and gates), and prints
``ready``.  On ``run <seconds>`` it measures the reference's side of the
run, as ``workloads.run_side`` does for the program, alongside it on the
same CPU; it keeps operating until ``stop`` arrives, then prints what it
measured as one line of JSON and exits.  It exits with code 1 when a
gate fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run

REFERENCE_ROOT = Path(__file__).resolve().parent / "reference"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/refserver.py")
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--sizes", required=True, help="workloads.Sizes as a JSON object")
    args = parser.parse_args(argv)

    # Replies go to the real stdout; anything else printed goes to stderr.
    replies, sys.stdout = sys.stdout, sys.stderr
    run.load_program(REFERENCE_ROOT)
    import workloads

    sizes = workloads.Sizes(**json.loads(args.sizes))
    try:
        runner = workloads.open_workload(args.workload, args.seed, args.workdir, sizes, workloads.Result())
        with workloads.case_stamps(runner):
            print("ready", file=replies, flush=True)
            request = sys.stdin.readline().split()
            if request[:1] != ["run"]:
                return 0
            side = workloads.run_side(float(request[1]), runner, lambda: None, lambda: workloads.readable(sys.stdin))
        print(side.to_json(), file=replies, flush=True)
    except workloads.GateError as exc:
        print("reference: correctness gate failed on %s: %s" % (args.workload, exc), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
