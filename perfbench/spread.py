"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads twofactor-zoo,cli-sweep --seeds 1-10

Runs ``run.py`` once per seed on each workload, one run at a time, and
prints, for each end-to-end metric, the median of the runs and the spread:
the distance between the first and third quartiles as a share of the
median. A spread above a third of the metric's bound in BENCHMARK.json is
flagged; the benchmark is steady when none is.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(proc.stdout, file=sys.stderr)
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        for name, vals in values.items():
            s = quartile_spread(vals)
            flag = "" if s < bounds[name] / 3 else "  <-- above bound/3"
            if flag and name != "setup_s":
                steady = False
            print(f"{workload:14s} {name:17s} median {statistics.median(vals):12.5g} "
                  f"spread {s:.4f} bound {bounds[name]}{flag}", flush=True)
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
