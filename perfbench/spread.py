"""Run the benchmark over ten seeds and report each metric's spread.

    python3 perfbench/spread.py --traced --out perfbench/results/baseline.json
    python3 perfbench/spread.py --out perfbench/results/baseline-repeat.json \
        --against perfbench/results/baseline.json

It runs every workload of ``run.WORKLOADS`` at the ``run_seconds`` of
BENCHMARK.json, once for each of the seeds 1 to 10.  For every workload
and end-to-end metric it prints the median, the first and third quartiles
of the per-run values (``statistics.quantiles`` with n=4) and the spread:
the distance between the quartiles as a share of the median, which is
what each metric's bound in BENCHMARK.json is compared with.  With
``--against`` it also prints how much worse each median is than the same
median of an earlier set, as a share of the earlier one.  Every run is a
fresh ``run.py`` process, one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run as run_py

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.perf_counter()
    child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - started
    if child.returncode != 0:
        raise SystemExit("%s seed %d failed (exit %d):\n%s" % (workload, seed, child.returncode, child.stderr))
    result = json.loads(child.stdout.splitlines()[-1])
    result["seed"] = seed
    result["wall_s"] = wall
    return result


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return out


def hardware() -> dict:
    model = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": model,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "system": platform.system(),
    }


def worse_by(median: float, earlier: float, better: str) -> float:
    """How much worse median is than earlier, as a share of earlier."""
    change = (median - earlier) / earlier
    return -change if better == "higher" else change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--traced", action="store_true", help="also make one --trace 1 run per workload")
    parser.add_argument("--against", type=Path, help="an earlier --out file to compare the medians with")
    parser.add_argument("--out", type=Path, help="write runs and summary as JSON here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(args.against.read_text(encoding="utf-8"))["workloads"] if args.against else {}

    report = {"hardware": hardware(), "seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in run_py.WORKLOADS:
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        summary = summarize(runs)
        entry = {"runs": runs, "summary": summary}
        print("%s (%d runs of %d s)" % (workload, len(runs), seconds))
        for name, s in summary.items():
            bound = metrics[name]["bound"]
            flag = "" if s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            if workload in earlier:
                worse = worse_by(s["median"], earlier[workload]["summary"][name]["median"], metrics[name]["better"])
                s["worse_than_against"] = worse
                flag += "  worse by %.3f%s" % (worse, " <-- past bound" if worse > bound else "")
            print(
                "  %-16s median %12.6g %-5s q1 %12.6g q3 %12.6g spread %6.3f bound %s%s"
                % (name, s["median"], s["unit"], s["q1"], s["q3"], s["spread"], bound, flag)
            )
        if args.traced:
            entry["traced"] = run(workload, SEEDS[0], seconds, 1)
        report["workloads"][workload] = entry
        sys.stdout.flush()

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
