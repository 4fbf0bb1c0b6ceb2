"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/debiaskit``. Every
repetition runs in a fresh process (``rep.py``) that inherits this process's
environment, BLAS thread settings included.

``--trace 0``: several set-up-only processes, then whole job lists until
``--seconds`` have passed, and at least REPLICAS of them; prints the medians
of the end-to-end metrics. Repetition k builds its inputs from replica
k mod REPLICAS of the seed: the sizes stay the same, and the accuracies,
averaged over the REPLICAS distinct replicas, vary less from seed to seed.

``--trace 1``: two untraced job lists alternating with two job lists with
BLAS limited to one thread, one traced job list and, for cli-sweep, one
job list whose sweep runs a process pool of ``nproc`` workers; prints the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
record the environment and each repetition.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
REPLICAS = 3
REP_TIMEOUT_S = 170.0


class RepFailed(RuntimeError):
    pass


def fail_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no job was attempted")
    return failed / attempted


def run_rep(workload: str, seed: int, workdir: Path, deadline: float, *, replica=0,
            setup_only=False, trace=False, jobs=1, scale="full", env=None) -> dict:
    """Run rep.py once in a fresh process and return its JSON result."""
    out = workdir.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--replica", str(replica), "--workdir", str(workdir),
           "--out", str(out), "--jobs", str(jobs), "--scale", scale]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    timeout = max(1.0, deadline - time.monotonic())
    # a process group of its own, so a timeout also ends its pool workers
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
        if proc.returncode != 0:
            raise RepFailed(f"{workload} repetition exited {proc.returncode}:\n"
                            f"{stderr[-3000:]}")
        return json.loads(out.read_text())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"{workload} repetition exceeded {timeout:.0f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        out.unlink(missing_ok=True)


def count_jobs(reps) -> tuple[int, int]:
    attempted = sum(len(r["jobs"]) for r in reps)
    failed = sum(1 for r in reps for j in r["jobs"] if j["problems"])
    return attempted, failed


def spec_metrics(kind: str, values: dict) -> dict:
    """Every metric BENCHMARK.json lists under ``kind``, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec}


def job_medians(reps, key: str) -> float:
    """Sum over the job list of each job's median across repetitions."""
    return sum(median([r["jobs"][i][key] for r in reps])
               for i in range(len(reps[0]["jobs"])))


def end_to_end(probes, reps) -> dict:
    wall = job_medians(reps, "seconds")
    distinct = [r for r in reps[:REPLICAS] if r["acc_bc"] is not None]
    values = {
        "setup_s": median([p["setup_s"] for p in probes]),
        "wall_s": wall,
        "train_rows_per_s": reps[0]["rows"] / wall,
        "cpu_s": job_medians(reps, "cpu_s"),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "acc_bc": mean(r["acc_bc"] for r in distinct) if distinct else 0.0,
        "acc_ba": mean(r["acc_ba"] for r in distinct) if distinct else 0.0,
    }
    return spec_metrics("end_to_end", values)


def per_layer(base, traced, blas1, pool) -> dict:
    """``base`` and ``blas1`` are lists of untraced repetitions with the
    inherited BLAS threads and with one BLAS thread."""
    layers = dict(traced["layers"])
    wall = job_medians(base, "seconds")
    wall1 = job_medians(blas1, "seconds")
    layers.update({
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - wall,
        "proc.cpu_util": job_medians(base, "cpu_s") / (wall * base[0]["env"]["nproc"]),
        "blas1.wall_s": wall1,
        "blas1.wall_ratio": wall1 / wall,
        "runner.bytes_written": traced["bytes_written"],
        "runner.pool_wall_s": pool["wall_s"] if pool else 0.0,
        "runner.child_cpu_s": pool["child_cpu_s"] if pool else 0.0,
    })
    return spec_metrics("per_layer", layers)


def thread_policy(layers: dict, threads) -> str:
    ratio = layers["blas1.wall_ratio"]["value"]
    best = "1 BLAS thread" if ratio < 1 else f"the inherited {threads} BLAS threads"
    return (f"thread policy: prefer {best} on this workload "
            f"(wall with 1 thread / with {threads} threads = {ratio:.3f})")


def log(line: str) -> None:
    print(line, flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full", choices=("full", "smoke"),
                    help="smoke: tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "debiaskit" / "__init__.py").is_file():
        print(f"error: no src/debiaskit under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + REP_TIMEOUT_S
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    tag = f"{args.workload}-{os.getpid()}"
    counter = itertools.count()

    def rep(**kw):
        return run_rep(args.workload, args.seed, work / f"{tag}-{next(counter)}",
                       deadline, scale=args.scale, **kw)

    try:
        if args.trace == 0:
            probes = [rep(setup_only=True) for _ in range(SETUP_PROBES)]
            reps = []
            start = time.monotonic()
            last = 0.0
            while ((len(reps) < REPLICAS or time.monotonic() - start < args.seconds)
                   and deadline - time.monotonic() > 1.5 * last):
                begun = time.monotonic()
                reps.append(rep(replica=len(reps) % REPLICAS))
                last = time.monotonic() - begun
                log(f"rep {len(reps)}: wall_s={reps[-1]['wall_s']:.4f} "
                    f"cpu_s={reps[-1]['cpu_s']:.4f}")
            metrics = end_to_end(probes, reps)
        else:
            # alternate the two BLAS settings so a slow spell hits both alike
            one = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
            base, blas1 = [], []
            for _ in range(2):
                base.append(rep())
                blas1.append(rep(env=one))
            traced = rep(trace=True)
            pool = None
            if args.workload == "cli-sweep":
                pool = rep(jobs=base[0]["env"]["nproc"])
            reps = base + blas1 + [traced] + ([pool] if pool else [])
            metrics = per_layer(base, traced, blas1, pool)
            log(thread_policy(metrics, base[0]["env"]["blas_threads"]))
            if traced["untraced_targets"]:
                log(f"targets not found, their metrics read 0: "
                    f"{traced['untraced_targets']}")
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            work.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted, failed = count_jobs(reps)
    for r in reps:
        for j in r["jobs"]:
            if j["problems"]:
                log(f"FAILED {j['name']}: {' | '.join(j['problems'])}")
    log("env " + json.dumps(reps[0]["env"], sort_keys=True))
    log(f"reps={len(reps)} fail_frac={fail_frac(failed, attempted):.4f} "
        f"({failed}/{attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
