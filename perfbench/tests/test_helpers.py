"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""

import json
import math
import statistics
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import spread  # noqa: E402
import workloads  # noqa: E402


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 14.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert spread.quartile_spread([2.0] * 10) == 0.0


def test_parse_seeds():
    assert spread.parse_seeds("1-4") == [1, 2, 3, 4]
    assert spread.parse_seeds("3,5,8") == [3, 5, 8]


def _span(pid, sid, parent, name, start, end, info=None):
    return (pid, sid, parent, name, start, end, info)


def test_self_time_subtracts_direct_children_only():
    trace = [
        _span(1, 2, 1, "grandchild", 2.0, 3.0),
        _span(1, 1, 0, "child", 1.0, 4.0),
        _span(1, 3, 0, "child", 5.0, 6.0),
        _span(1, 0, None, "root", 0.0, 10.0),
    ]
    selfs = spans.self_times(trace)
    assert selfs[(1, 0)] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[(1, 1)] == pytest.approx(3.0 - 1.0)
    assert selfs[(1, 2)] == pytest.approx(1.0)
    assert selfs[(1, 3)] == pytest.approx(1.0)


def test_self_time_keeps_processes_apart():
    # two workers reuse span ids; a child in pid 8 must not shorten pid 7's span
    trace = [
        _span(7, 0, None, "root", 0.0, 4.0),
        _span(8, 1, 0, "child", 1.0, 2.0),
        _span(8, 0, None, "root", 0.0, 3.0),
    ]
    selfs = spans.self_times(trace)
    assert selfs[(7, 0)] == pytest.approx(4.0)
    assert selfs[(8, 0)] == pytest.approx(2.0)


def test_layer_metrics_from_spans():
    trace = [
        _span(1, 1, 0, "autodiff.backward", 0.5, 1.0, 20),
        _span(1, 2, 0, "autodiff.backward", 1.5, 2.0, 30),
        _span(1, 3, 0, "optim.adam_step", 2.0, 2.25),
        _span(1, 0, None, "classifier.train", 0.0, 3.0, 2),
        _span(1, 4, None, "debias.amplify", 3.0, 4.0, "a"),
        _span(1, 5, None, "debias.amplify", 4.0, 5.0, "a"),
        _span(1, 6, None, "debias.pipeline", 5.0, 5.5, "vanilla-LW"),
    ]
    m = spans.layer_metrics(trace)
    assert m["classifier.train_s"] == pytest.approx(3.0)
    assert m["classifier.train_self_s"] == pytest.approx(3.0 - 1.0 - 0.25)
    assert m["classifier.train_steps"] == 2
    assert m["classifier.step_us"] == pytest.approx(1.5e6)
    assert m["autodiff.backward_calls"] == 2
    assert m["autodiff.nodes_per_backward"] == pytest.approx(25.0)
    assert m["optim.step_calls"] == 1
    assert m["debias.amplify_calls"] == 2
    assert m["debias.amplify_unique_frac"] == pytest.approx(0.5)
    assert m["debias.pipeline_s.vanilla-LW"] == pytest.approx(0.5)
    assert m["vcae.step_us"] == 0.0


def test_tracer_collects_spans_from_forked_pool_workers(tmp_path):
    # run in a fresh interpreter: install() rewires debiaskit for the process
    script = textwrap.dedent(f"""
        import json, os, sys
        from concurrent.futures import ProcessPoolExecutor
        import multiprocessing as mp
        sys.path[:0] = [{str(BENCH)!r}, {str(BENCH.parent / "src")!r}]
        from spans import Tracer
        tracer = Tracer({str(tmp_path / "spool")!r})
        tracer.install()
        from debiaskit import data, runner

        def make(seed):
            runner.generate(data.GenConfig(num_classes=3, n=30, bc_ratio=0.1, seed=seed))
            return os.getpid()

        make(0)
        with ProcessPoolExecutor(2, mp_context=mp.get_context("fork")) as pool:
            pids = set(pool.map(make, [1, 2, 3, 4]))
        got = [s for s in tracer.collect() if s[3] == "data.generate"]
        print(json.dumps({{"main": os.getpid(), "workers": sorted(pids),
                          "span_pids": [s[0] for s in got], "missing": tracer.missing}}))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["missing"] == []
    assert len(out["span_pids"]) == 5
    assert out["span_pids"].count(out["main"]) == 1
    assert set(out["span_pids"]) - {out["main"]} <= set(out["workers"])


@pytest.mark.parametrize("scheme,method,expected", [
    ("vanilla", "LW", 2 * 1000),
    ("oracle-ub", "WS", 2 * 8 * 128),
    ("lff", "LW", 2 * 2 * 1000),
    ("biased-confidence", "LW", 2 * 1000 + 5 * 1000),
    ("pgd", "WS", 2 * 8 * 128 + 5 * 1000),
    ("vcae", "LW", 2 * 1000 + 3 * 1000),
])
def test_train_rows(scheme, method, expected):
    assert workloads.train_rows(scheme, method, 1000, 2, 128, t_bias=5,
                                vcae_epochs=3) == expected


def test_fail_frac_and_job_counts():
    reps = [{"jobs": [{"problems": []}, {"problems": ["bad"]}]},
            {"jobs": [{"problems": []}, {"problems": []}]}]
    attempted, failed = run.count_jobs(reps)
    assert (attempted, failed) == (4, 1)
    assert run.fail_frac(failed, attempted) == 0.25
    assert run.fail_frac(0, 9) == 0.0
    with pytest.raises(ValueError):
        run.fail_frac(0, 0)


def test_weight_checks():
    import numpy as np
    lo, hi = workloads.weight_range("biased-confidence", "LW", 0.01, 10)
    assert (lo, hi) == (10.0 / workloads.GAMMA, 10.0)
    assert workloads.weight_problems(np.full(4, 1.0), 4, lo, hi) == []
    assert workloads.weight_problems(np.array([1.0, np.nan, 1.0, 1.0]), 4, lo, hi)
    assert workloads.weight_problems(np.array([1.0, 11.0, 1.0, 1.0]), 4, lo, hi)
    assert workloads.weight_problems(np.ones(3), 4, lo, hi)
    lo, hi = workloads.weight_range("oracle-ub", "LW", 0.01, 10)
    assert lo == pytest.approx(1 / 0.99) and hi == pytest.approx(900.0)


def test_derive_seeds_depends_on_seed_and_replica():
    a = workloads.derive_seeds(1, 0, 3)
    assert a == workloads.derive_seeds(1, 0, 3)
    assert a != workloads.derive_seeds(1, 1, 3)
    assert a != workloads.derive_seeds(2, 0, 3)
    assert all(0 <= s < 2 ** 31 for s in a)


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    produced = set(spans.layer_metrics([]))
    assert produced <= names
    assert all(not math.isnan(v) for v in spans.layer_metrics([]).values())
