"""One repetition of a workload in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N --replica K --workdir DIR
                             --out FILE [--setup-only] [--trace] [--jobs N]
                             [--scale smoke]

Times the import of ``debiaskit`` plus building the inputs (``setup_s``),
then runs the job list, timing each job's call, and checks every output.
Writes one JSON object to ``--out``. ``run.py`` starts this script; it never
sets the BLAS thread count itself.
"""

import time

T0 = time.perf_counter()  # before any other import: setup_s includes them

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def cpu_seconds() -> float:
    """User + system time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def child_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import multiprocessing
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "seed": seed,
    }


def run_jobs(job_list) -> list:
    """Time each job's call, then check its output (untimed)."""
    results = []
    for job in job_list:
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        out, problems = None, []
        try:
            out = job.run()
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        res = workloads.JobResult(job.name, time.perf_counter() - start,
                                  cpu_seconds() - cpu0, job.rows, problems)
        if not problems:
            try:
                res.problems = job.check(out)
                if job.accuracy is not None:
                    res.acc = job.accuracy(out)
            except Exception:
                res.problems = [traceback.format_exc(limit=3)]
        results.append(res)
    return results


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--replica", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--scale", default="full", choices=("full", "smoke"))
    args = ap.parse_args()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(workdir / "spans")
        tracer.install()
    job_list = workloads.WORKLOADS[args.workload](args.seed, args.replica, workdir,
                                                  args.scale, args.jobs)
    result = {"setup_s": time.perf_counter() - T0}
    if not args.setup_only:
        cpu0, child0 = cpu_seconds(), child_cpu_seconds()
        results = run_jobs(job_list)
        accs = [r.acc for r in results if r.acc is not None]
        result.update({
            "wall_s": sum(r.seconds for r in results),
            "cpu_s": cpu_seconds() - cpu0,
            "child_cpu_s": child_cpu_seconds() - child0,
            "peak_rss_mb": peak_rss_mb(),
            "rows": sum(r.rows for r in results),
            "acc_bc": sum(a[0] for a in accs) / len(accs) if accs else None,
            "acc_ba": sum(a[1] for a in accs) / len(accs) if accs else None,
            "jobs": [{"name": r.name, "seconds": r.seconds, "cpu_s": r.cpu_s,
                      "problems": r.problems} for r in results],
            "bytes_written": workloads.bytes_under(workdir / workloads.SWEEP_DIR),
            "env": environment(args.seed),
        })
        if tracer is not None:
            from spans import layer_metrics
            result["layers"] = layer_metrics(tracer.collect())
            result["untraced_targets"] = tracer.missing
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
