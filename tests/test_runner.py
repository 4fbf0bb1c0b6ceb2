import csv
import ctypes
import glob
import json
import os
from pathlib import Path

import numpy as np
import pytest

from debiaskit import runner
from debiaskit.classifier import TrainConfig
from debiaskit.data import GenConfig, generate, save_dataset
from debiaskit.debias import AnnealConfig, SampleWeights
from debiaskit.runner import (METRICS_HEADER, ConfigError, RunConfig, aggregate_report,
                              run_experiment, run_sweep, summarize)


def _tiny_cfg(tmp_path, **over):
    d = {
        "schema_version": 1,
        "scheme": "oracle-ub",
        "method": "LW",
        "dataset": {"num_classes": 4, "n": 400, "bc_ratio": 0.1, "seed": 5},
        "test_n": 300,
        "train": {"epochs": 2, "batch_size": 64, "hidden": [16]},
        "out_dir": str(tmp_path / "run"),
        "seeds": [0, 1],
    }
    d.update(over)
    return RunConfig.from_dict(d)


def test_schema_version_required(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"scheme": "vanilla"})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"schema_version": 2, "dataset": {"n": 10}})


@pytest.mark.parametrize("over", [{"t_bias": 0}, {"t_bias": 1.5}, {"t_bias": True},
                                  {"gamma": 1.0}, {"gamma": float("nan")}])
def test_run_config_rejects_bad_t_bias_and_gamma(tmp_path, over):
    with pytest.raises(ConfigError):
        _tiny_cfg(tmp_path, **over)
    base = _tiny_cfg(tmp_path)
    with pytest.raises(ConfigError):
        RunConfig(dataset=base.dataset, **over)


@pytest.mark.parametrize("over", [
    {"out_dir": None}, {"out_dir": 3}, {"test_n": "300"}, {"test_n": 0},
    {"test_n": 1.5}, {"tau": "0.7"}, {"tau": None}, {"tau": 0.0}, {"tau": 1.5},
    {"seeds": 0}, {"seeds": []}, {"seeds": [0, "1"]}, {"seeds": [1.0]},
    {"seeds": [-1]}, {"seeds": [True]}, {"scheme": "bogus"}, {"method": "XX"},
    {"scheme": "lff", "method": "WS"}, {"scheme": "pgd", "method": "LW"},
    {"dataset": None, "dataset_path": 7}, {"seeds": [3, 3]}])
def test_run_config_rejects_bad_field_values(tmp_path, over):
    with pytest.raises(ConfigError):
        _tiny_cfg(tmp_path, **over)
    base = _tiny_cfg(tmp_path)
    with pytest.raises(ConfigError):
        RunConfig(**{"dataset": base.dataset, **over})


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError):
        _tiny_cfg(tmp_path, gama=3.0)
    with pytest.raises(ConfigError):
        _tiny_cfg(tmp_path, dataset={"num_classes": 4, "n": 10, "bc_ratio": 0.1,
                                     "rho": 0.1})
    with pytest.raises(ConfigError):
        _tiny_cfg(tmp_path, train={"epochs": 2, "learning_rate": 0.1})


@pytest.mark.parametrize("raw", [[1, 2], {"schema_version": 1, "dataset": [1, 2]},
                                 {"schema_version": 1, "dataset": {}, "train": 5}])
def test_config_and_sections_must_be_json_objects(raw):
    with pytest.raises(ConfigError, match="must be a JSON object"):
        RunConfig.from_dict(raw)


def test_config_roundtrip(tmp_path):
    cfg = _tiny_cfg(tmp_path, gamma=50.0, anneal={"w_init": 2.0, "t_anneal": 10})
    back = RunConfig.from_dict(cfg.to_dict())
    assert back == cfg


@pytest.mark.parametrize("over", [
    {"scheme": "vcae", "vcae": {"dim_z": 3, "lambda2": 0.5, "hidden": [8, 4]}},
    {"dataset": None, "dataset_path": "data/d",
     "vcae": {"num_classes": 4, "lambda0": 2.0}},
    {"dataset": None, "dataset_path": "data/d", "train": None, "anneal": None}])
def test_config_roundtrip_vcae_and_dataset_path(tmp_path, over):
    cfg = _tiny_cfg(tmp_path, **over)
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_null_sections_take_the_run_defaults(tmp_path):
    cfg = _tiny_cfg(tmp_path, train=None, anneal=None, vcae=None)
    assert cfg.train == TrainConfig(epochs=runner.RUN_EPOCHS)
    assert cfg.anneal == AnnealConfig() and cfg.vcae is None
    cfg = _tiny_cfg(tmp_path, train={"lr": 0.1})
    assert cfg.train == TrainConfig(epochs=runner.RUN_EPOCHS, lr=0.1)
    assert RunConfig.from_dict({"schema_version": 1, "dataset": {}}).dataset == GenConfig()


def test_vcae_section_rejects_prior_and_needs_classes_with_path(tmp_path):
    with pytest.raises(ConfigError, match="prior"):
        _tiny_cfg(tmp_path, vcae={"prior": [0.25] * 4})
    with pytest.raises(ConfigError, match="num_classes"):
        _tiny_cfg(tmp_path, dataset=None, dataset_path="d", vcae={})
    assert _tiny_cfg(tmp_path, vcae={}).vcae.num_classes == 4


def test_config_rejects_dataset_and_dataset_path_together(tmp_path):
    with pytest.raises(ConfigError, match="exactly one"):
        _tiny_cfg(tmp_path, dataset_path=str(tmp_path / "d"))
    base = _tiny_cfg(tmp_path)
    with pytest.raises(ConfigError):
        RunConfig(dataset=base.dataset, dataset_path="d")


# config.json of two configs, pinned byte for byte: every key in its place,
# every value with its JSON type
FULL_CONFIG_JSON = {
    "schema_version": 1, "scheme": "biased-confidence", "method": "ALW",
    "test_n": 100, "gamma": 30.0, "t_bias": 1, "tau": 0.6,
    "anneal": {"w_init": 2.0, "t_anneal": 5},
    "train": {"epochs": 1, "batch_size": 50, "optimizer": "sgd", "lr": 0.01,
              "momentum": 0.9, "weight_decay": 0.001, "seed": 0,
              "shuffle": False, "hidden": [8, 4]},
    "out_dir": "run-full", "seeds": [0, 2],
    "dataset": {"num_classes": 4, "n": 200, "bc_ratio": 0.05, "sigma_u": 0.4,
                "sigma_b": 0.2, "seed": 3, "kind": "two-factor"}}
VCAE_PATH_CONFIG_JSON = {
    "schema_version": 1, "scheme": "vcae", "method": "LW", "test_n": 100,
    "gamma": 200.0, "t_bias": 5, "tau": 0.7,
    "anneal": {"w_init": 1.0, "t_anneal": 0},
    "train": {"epochs": 1, "batch_size": 128, "optimizer": "adam", "lr": 0.001,
              "momentum": 0.0, "weight_decay": 0.0, "seed": 0, "shuffle": True,
              "hidden": [4]},
    "out_dir": "run-vcae", "seeds": [0], "dataset_path": "data",
    "vcae": {"num_classes": 3, "dim_z": 1, "lambda0": 1.0, "lambda1": 0.5,
             "lambda2": 1.0, "hidden": [4]}}


def test_config_json_bytes_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths keep the bytes fixed
    save_dataset(generate(GenConfig(num_classes=3, n=150, bc_ratio=0.1, seed=1)), "data")
    full = RunConfig.from_dict({
        "schema_version": 1, "scheme": "biased-confidence", "method": "ALW",
        "dataset": FULL_CONFIG_JSON["dataset"], "test_n": 100, "gamma": 30.0,
        "t_bias": 1, "tau": 0.6, "anneal": {"w_init": 2.0, "t_anneal": 5},
        "train": FULL_CONFIG_JSON["train"], "out_dir": "run-full", "seeds": [0, 2]})
    vcae = RunConfig.from_dict({
        "schema_version": 1, "scheme": "vcae", "method": "LW", "dataset_path": "data",
        "test_n": 100, "train": {"epochs": 1, "hidden": [4]},
        "vcae": {"num_classes": 3, "dim_z": 1, "lambda1": 0.5, "hidden": [4]},
        "out_dir": "run-vcae"})
    for cfg, expected in ((full, FULL_CONFIG_JSON), (vcae, VCAE_PATH_CONFIG_JSON)):
        run_experiment(cfg)
        text = (Path(cfg.out_dir) / "config.json").read_text()
        assert text == json.dumps(expected, indent=2) + "\n"


def test_needs_dataset():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"schema_version": 1})


def test_run_experiment_artifacts(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    summary, _ = run_experiment(cfg)
    out = Path(cfg.out_dir)
    with (out / "metrics.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cfg.train.epochs * len(cfg.seeds)  # epochs x seeds
    assert set(rows[0]) == {"seed", "epoch", "train_loss", "test_acc",
                            "test_acc_ba", "test_acc_bc", "beta"}
    assert (out / "summary.json").exists()
    assert (out / "timings.json").exists()
    assert (out / "weights_seed0.csv").exists()
    assert (out / "checkpoint_seed0" / "params.f64le").exists()
    assert summary["n_seeds"] == 2


def test_summary_reproducible_from_csv(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    summary, _ = run_experiment(cfg)
    recomputed = aggregate_report(cfg.out_dir)
    for key, stats in summary["metrics"].items():
        assert abs(stats["mean"] - recomputed["metrics"][key]["mean"]) < 1e-12
        assert abs(stats["std"] - recomputed["metrics"][key]["std"]) < 1e-12


def test_run_experiment_deterministic(tmp_path):
    cfg_a = _tiny_cfg(tmp_path / "a")
    cfg_b = _tiny_cfg(tmp_path / "b")
    run_experiment(cfg_a)
    run_experiment(cfg_b)
    a = (Path(cfg_a.out_dir) / "metrics.csv").read_bytes()
    b = (Path(cfg_b.out_dir) / "metrics.csv").read_bytes()
    assert a == b
    wa = (Path(cfg_a.out_dir) / "weights_seed0.csv").read_bytes()
    wb = (Path(cfg_b.out_dir) / "weights_seed0.csv").read_bytes()
    assert wa == wb


def test_weights_csv_schema(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    run_experiment(cfg)
    with (Path(cfg.out_dir) / "weights_seed0.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["index", "weight", "aligned", "provenance"]
    assert rows[0]["provenance"] == "oracle-ub"
    assert len(rows) == 400


def test_weights_csv_bytes_match_the_row_writer(tmp_path):
    """The column writer writes what ``csv.writer`` writes row by row."""
    rng = np.random.default_rng(7)
    w = np.concatenate([rng.lognormal(0.0, 3.0, 200), [1e-300, 0.1, 1 / 3, 1e17, 10.0]])
    aligned = rng.random(len(w)) < 0.9
    weights = SampleWeights(w, provenance="biased-confidence")
    runner.write_weights_csv(tmp_path / "new.csv", weights, aligned)
    with (tmp_path / "old.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows([["index", "weight", "aligned", "provenance"],
                                  *([i, float(w[i]), int(aligned[i]), weights.provenance]
                                    for i in range(len(w)))])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_sweep_singleton_matches_run_experiment(tmp_path):
    cfg = _tiny_cfg(tmp_path, scheme="biased-confidence", gamma=20.0, t_bias=1)
    path = run_sweep(cfg, "gamma", [20.0])
    with path.open() as fh:
        sweep_rows = list(csv.DictReader(fh))
    single = _tiny_cfg(tmp_path / "single", scheme="biased-confidence",
                       gamma=20.0, t_bias=1)
    run_experiment(single)
    with (Path(single.out_dir) / "metrics.csv").open() as fh:
        exp_rows = list(csv.DictReader(fh))
    assert len(sweep_rows) == len(exp_rows)
    for s, e in zip(sweep_rows, exp_rows):
        assert s["test_acc"] == e["test_acc"]
        assert s["value"] == "20"


def test_sweep_axis_validation(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    with pytest.raises(ConfigError):
        run_sweep(cfg, "epochs", [1.0])
    with pytest.raises(ConfigError):
        run_sweep(cfg, "gamma", [])


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_rejects_fewer_than_one_job_before_any_output(tmp_path, jobs):
    cfg = _tiny_cfg(tmp_path)
    with pytest.raises(ConfigError, match="jobs must be >= 1"):
        run_sweep(cfg, "gamma", [20.0, 50.0], jobs=jobs)
    assert not Path(cfg.out_dir).exists()


def test_run_config_rejects_a_train_seed_the_run_seeds_would_replace(tmp_path):
    """run_single trains seed k with train.seed = k, whatever the config says."""
    with pytest.raises(ConfigError, match="train.seed must be 0"):
        _tiny_cfg(tmp_path, train={"epochs": 2, "seed": 7})
    assert _tiny_cfg(tmp_path, train={"epochs": 2, "seed": 0}).train.seed == 0


@pytest.mark.parametrize("axis,values", [("gamma", [200.0, 200.0001]),
                                         ("gamma", [20.0, 50.0, 20.0]),
                                         ("t_bias", [2, 2.0])])
def test_sweep_rejects_values_that_name_one_directory(tmp_path, axis, values):
    """Two points in one directory would overwrite each other's files."""
    cfg = _tiny_cfg(tmp_path, scheme="biased-confidence", t_bias=1)
    with pytest.raises(ConfigError, match="distinct directories"):
        run_sweep(cfg, axis, values)
    assert not Path(cfg.out_dir).exists()


def test_sweep_parallel_matches_serial(tmp_path):
    cfg_s = _tiny_cfg(tmp_path / "serial", scheme="oracle-ub")
    cfg_p = _tiny_cfg(tmp_path / "parallel", scheme="oracle-ub")
    a = run_sweep(cfg_s, "gamma", [10.0, 20.0], jobs=1)
    b = run_sweep(cfg_p, "gamma", [10.0, 20.0], jobs=2)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_csv_is_each_points_metrics_rows_with_axis_and_value(tmp_path, jobs):
    """The merged rows come from memory; they must read as each point's
    metrics.csv, in point order, with ``axis,value`` in front."""
    cfg = _tiny_cfg(tmp_path, scheme="biased-confidence", t_bias=1)
    path = run_sweep(cfg, "gamma", [50.0, 20.0, 200.0], jobs=jobs)
    expected = [["axis", "value", *METRICS_HEADER]]
    for value in ("50", "20", "200"):
        with (tmp_path / "run" / f"gamma={value}" / "metrics.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == METRICS_HEADER and len(rows) == 4  # 2 seeds x 2 epochs
        expected += [["gamma", value, *row] for row in rows]
    with path.open(newline="") as fh:
        assert list(csv.reader(fh)) == expected


def test_sweep_t_bias_axis(tmp_path):
    cfg = _tiny_cfg(tmp_path, scheme="biased-confidence", gamma=20.0,
                    seeds=[0])
    path = run_sweep(cfg, "t_bias", [1.0, 2.0])
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert {r["value"] for r in rows} == {"1", "2"}


def test_summarize_std_over_seeds():
    rows = [
        {"seed": 0, "epoch": 1, "train_loss": 1.0, "test_acc": 0.5,
         "test_acc_ba": 0.5, "test_acc_bc": 0.5, "beta": 0.5},
        {"seed": 1, "epoch": 1, "train_loss": 1.0, "test_acc": 0.7,
         "test_acc_ba": 0.5, "test_acc_bc": 0.5, "beta": 0.5},
        {"seed": 0, "epoch": 0, "train_loss": 9.0, "test_acc": 0.1,
         "test_acc_ba": 0.1, "test_acc_bc": 0.1, "beta": 0.5},
    ]
    s = summarize(rows)
    assert s["final_epoch"] == 1 and s["n_seeds"] == 2
    assert abs(s["metrics"]["test_acc"]["mean"] - 0.6) < 1e-15
    assert abs(s["metrics"]["test_acc"]["std"] - np.std([0.5, 0.7], ddof=1)) < 1e-15


def _blas_thread_getter():
    """OpenBLAS's thread-count getter from numpy's bundled library, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn
    return None


def _record_blas_threads(cfg):
    """Stands in for ``run_experiment`` in a pool worker: records the
    worker's BLAS thread count and returns no summary and no rows."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "blas_threads").write_text(str(_blas_thread_getter()()))
    return {}, []


def test_sweep_workers_run_one_blas_thread(tmp_path, monkeypatch):
    if _blas_thread_getter() is None:
        pytest.skip("no OpenBLAS thread getter in numpy.libs")
    before = _blas_thread_getter()()
    monkeypatch.setattr(runner, "run_experiment", _record_blas_threads)
    run_sweep(_tiny_cfg(tmp_path), "gamma", [50.0, 200.0], jobs=2)
    for point in ("gamma=50", "gamma=200"):
        assert (tmp_path / "run" / point / "blas_threads").read_text() == "1"
    assert _blas_thread_getter()() == before  # the parent keeps its threads
