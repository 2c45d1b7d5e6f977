"""Benchmark command for parcelfuzz.

    python3 perfbench/run.py --workload semi_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the root of a checkout.  The package is imported from the
checkout's own ``src/`` tree and never from an installed copy; without
that tree the command fails before measuring anything.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  The
output is a readable summary, then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A failed correctness gate exits 1 and prints no numbers.

``--workload all`` runs each workload in a fresh interpreter, one after
another, so imports, caches and peak memory never carry over from one
workload into the next.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("semi_sweep", "blind_10k", "replay_cli")
CHILD_TIMEOUT_S = 170


class ProgramMissing(Exception):
    """The checkout holds no parcelfuzz source tree to measure."""


def load_program(root: Path = ROOT):
    """Import parcelfuzz from root/src, refusing any other copy."""
    src = (root / "src").resolve()
    if not (src / "parcelfuzz" / "__init__.py").is_file():
        raise ProgramMissing("no parcelfuzz sources under %s" % src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import parcelfuzz

    if not Path(parcelfuzz.__file__).resolve().is_relative_to(src):
        raise ProgramMissing("parcelfuzz imported from %s, not from %s" % (parcelfuzz.__file__, src))
    return parcelfuzz


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser


def result_line(attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": True,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def pin_to_one_cpu() -> None:
    """Keep this process, and the reference process it starts, on one CPU.

    The kernel then shares that CPU between the two in slices of a few
    milliseconds, so both meet the same machine; two vCPUs of a shared
    host may differ in speed at any moment.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(args) -> int:
    try:
        load_program()
    except ProgramMissing as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    import workloads

    pin_to_one_cpu()
    workdir = ROOT / ".bench_work" / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True)
    try:
        result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except workloads.GateError as exc:
        print("correctness gate failed on %s: %s" % (args.workload, exc), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for note in result.notes:
        print("  " + note)
    for name, (value, unit) in result.metrics.items():
        print("  %-30s %14.6g %s" % (name, value, unit))
    print("  %-30s %14.6g share (%d failed of %d attempted)" % (
        "failed_share", result.failed / result.attempted, result.failed, result.attempted))
    print(result_line(result.attempted, result.failed, result.metrics))
    return 0


def run_all(args) -> int:
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print("workload %s failed with exit %d" % (workload, child.returncode), file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        for name, entry in last["metrics"].items():
            metrics["%s.%s" % (workload, name)] = (entry["value"], entry["unit"])
    print(result_line(attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
