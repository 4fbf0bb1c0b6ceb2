"""Experiment orchestration: config files, metric CSVs, summaries, sweeps.

Every run writes, under its output directory:

* ``metrics.csv``   one row per (seed, epoch); byte-identical across reruns
* ``summary.json``  mean/std of the final-epoch metrics across seeds
* ``weights_seed<k>.csv``  per-sample weight dump (index,weight,aligned,provenance)
* ``checkpoint_seed<k>/``  trained classifier
* ``timings.json``  wall-clock seconds (kept out of the CSVs on purpose)
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .classifier import GceConfig, TrainConfig, save_model
from .data import (GenConfig, LabeledDataset, generate, load_dataset,
                   unbiased_config)
from .debias import (AnnealConfig, PipelineResult, run_debias_pipeline)
from .metrics import MetricsRow
from .vcae import VcaeConfig

SCHEMA_VERSION = 1

# training epochs of a run when its config names none; TrainConfig's own
# default (30) is the library's, not the run's
RUN_EPOCHS = 20

METRICS_HEADER = ["seed", *MetricsRow.CSV_FIELDS]


class ConfigError(ValueError):
    pass


def _take(d: dict, allowed: dict, where: str) -> dict:
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    out = dict(allowed)
    out.update(d)
    return out


@dataclass
class RunConfig:
    scheme: str = "oracle-ub"
    method: str = "LW"
    dataset: GenConfig | None = None
    dataset_path: str | None = None
    test_n: int = 5000
    gamma: float = 200.0
    t_bias: int = 5
    tau: float = 0.7
    anneal: AnnealConfig = field(default_factory=AnnealConfig)
    train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=RUN_EPOCHS))
    vcae: VcaeConfig | None = None
    out_dir: str = "runs/out"
    seeds: list[int] = field(default_factory=lambda: [0])

    def __post_init__(self):
        if self.dataset is None and self.dataset_path is None:
            raise ConfigError("need either a dataset spec or a dataset path")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if (not isinstance(self.t_bias, (int, np.integer)) or isinstance(self.t_bias, bool)
                or self.t_bias < 1):
            raise ConfigError(f"t_bias must be an integer >= 1, got {self.t_bias!r}")
        if not (isinstance(self.gamma, (int, float)) and self.gamma > 1.0):
            raise ConfigError(f"gamma must be a number above 1, got {self.gamma!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        raw = dict(raw)
        version = raw.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version}")
        defaults = {
            "scheme": "oracle-ub", "method": "LW", "dataset": None,
            "dataset_path": None, "test_n": 5000, "gamma": 200.0,
            "t_bias": 5, "tau": 0.7, "anneal": None, "train": None,
            "vcae": None, "out_dir": "runs/out", "seeds": [0],
        }
        merged = _take(raw, defaults, "run config")
        if merged["dataset"] is not None:
            g = _take(merged["dataset"],
                      {"num_classes": 10, "n": 10000, "bc_ratio": 0.01,
                       "sigma_u": 0.5, "sigma_b": 0.1, "seed": 0,
                       "kind": "two-factor"}, "dataset")
            merged["dataset"] = GenConfig(**g)
        if merged["anneal"] is not None:
            a = _take(merged["anneal"], {"w_init": 1.0, "t_anneal": 0}, "anneal")
            merged["anneal"] = AnnealConfig(**a)
        else:
            merged["anneal"] = AnnealConfig()
        if merged["train"] is not None:
            t = _take(merged["train"],
                      {"epochs": RUN_EPOCHS, "batch_size": 128, "optimizer": "adam",
                       "lr": 1e-3, "momentum": 0.0, "weight_decay": 0.0,
                       "seed": 0, "shuffle": True, "hidden": [64, 64]}, "train")
            t["hidden"] = tuple(t["hidden"])
            merged["train"] = TrainConfig(**t)
        else:
            merged["train"] = TrainConfig(epochs=RUN_EPOCHS)
        if merged["vcae"] is not None:
            v = _take(merged["vcae"],
                      {"num_classes": None, "dim_z": 2, "lambda0": 1.0,
                       "lambda1": 1.0, "lambda2": 1.0, "hidden": [64]}, "vcae")
            if v["num_classes"] is None:
                if merged["dataset"] is None:
                    raise ConfigError("vcae.num_classes required with dataset_path")
                v["num_classes"] = merged["dataset"].num_classes
            v["hidden"] = tuple(v["hidden"])
            merged["vcae"] = VcaeConfig(**v)
        return cls(**merged)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self) -> dict:
        d = {"schema_version": SCHEMA_VERSION, "scheme": self.scheme,
             "method": self.method, "test_n": self.test_n, "gamma": self.gamma,
             "t_bias": self.t_bias, "tau": self.tau,
             "anneal": {"w_init": self.anneal.w_init,
                        "t_anneal": self.anneal.t_anneal},
             "train": {**asdict(self.train), "hidden": list(self.train.hidden)},
             "out_dir": self.out_dir, "seeds": list(self.seeds)}
        if self.dataset is not None:
            d["dataset"] = asdict(self.dataset)
        if self.dataset_path is not None:
            d["dataset_path"] = self.dataset_path
        if self.vcae is not None:
            d["vcae"] = {"num_classes": self.vcae.num_classes,
                         "dim_z": self.vcae.dim_z, "lambda0": self.vcae.lambda0,
                         "lambda1": self.vcae.lambda1, "lambda2": self.vcae.lambda2,
                         "hidden": list(self.vcae.hidden)}
        return d


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):  # repr of a numpy scalar names its type
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _datasets_for_seed(cfg: RunConfig, run_seed: int):
    if cfg.dataset_path is not None:
        train_ds = load_dataset(cfg.dataset_path)
        gen = train_ds.cfg
        if gen is None:
            raise ConfigError("stored dataset lacks its generation config; "
                              "cannot build an unbiased test split")
        test_seed = int(np.random.SeedSequence((gen.seed, run_seed, 1)).generate_state(1)[0])
        test_ds = generate(unbiased_config(gen, cfg.test_n, test_seed))
        return train_ds, test_ds
    gen = cfg.dataset
    ss = np.random.SeedSequence((gen.seed, run_seed)).generate_state(2)
    train_ds = generate(replace(gen, seed=int(ss[0])))
    test_ds = generate(unbiased_config(gen, cfg.test_n, int(ss[1])))
    return train_ds, test_ds


def run_single(cfg: RunConfig, run_seed: int):
    """Run one seed; returns (pipeline result, train split, test split)."""
    train_ds, test_ds = _datasets_for_seed(cfg, run_seed)
    train_cfg = replace(cfg.train, seed=run_seed)
    result = run_debias_pipeline(
        train_ds, test_ds, cfg.scheme, cfg.method,
        train_cfg=train_cfg, gamma=cfg.gamma, t_bias=cfg.t_bias,
        gce=GceConfig(tau=cfg.tau), anneal=cfg.anneal, vcae_cfg=cfg.vcae)
    return result, train_ds, test_ds


def summarize(rows: list[dict]) -> dict:
    """Mean/std (across seeds) of each final-epoch metric column."""
    last_epoch = max(r["epoch"] for r in rows)
    finals = [r for r in rows if r["epoch"] == last_epoch]
    out = {"final_epoch": last_epoch, "n_seeds": len(finals), "metrics": {}}
    for key in ("train_loss", "test_acc", "test_acc_ba", "test_acc_bc", "beta"):
        vals = np.array([float(r[key]) for r in finals])
        std = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        out["metrics"][key] = {"mean": float(vals.mean()), "std": std}
    return out


def run_experiment(cfg: RunConfig) -> dict:
    """Execute every seed, write all artifacts, and return the summary."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg.to_dict(), indent=2) + "\n")
    csv_rows, dict_rows, timings = [], [], {}
    for run_seed in cfg.seeds:
        result, train_ds, _ = run_single(cfg, run_seed)
        for row in result.history:
            csv_rows.append([run_seed, *row.csv_values()])
            d = {f: getattr(row, f) for f in MetricsRow.CSV_FIELDS}
            d["seed"] = run_seed
            dict_rows.append(d)
        timings[str(run_seed)] = sum(r.seconds for r in result.history)
        if result.weights is not None:
            w = result.weights
            _write_csv(out / f"weights_seed{run_seed}.csv",
                       ["index", "weight", "aligned", "provenance"],
                       [[i, float(w.weights[i]), int(train_ds.aligned[i]),
                         w.provenance] for i in range(len(w.weights))])
        save_model(result.params, out / f"checkpoint_seed{run_seed}",
                   extra={"optimizer": cfg.train.optimizer, "lr": cfg.train.lr,
                          "scheme": cfg.scheme, "method": cfg.method})
    _write_csv(out / "metrics.csv", METRICS_HEADER, csv_rows)
    summary = summarize(dict_rows)
    summary["scheme"], summary["method"] = cfg.scheme, cfg.method
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    (out / "timings.json").write_text(json.dumps(timings, indent=2) + "\n")
    return summary


SWEEP_AXES = ("gamma", "t_bias")


def _one_blas_thread() -> None:
    """Pool-worker initializer: one OpenBLAS thread per worker.

    Each worker inherits the parent's BLAS threads, so N workers would run
    N times that many threads on the same cores. Calls the OpenBLAS bundled
    with numpy (``numpy.libs``) through ctypes; changes nothing when no
    thread setter is found. Serial runs keep their threads.
    """
    import ctypes
    import glob
    import os
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn.restype = None
                fn(1)
                return


def run_sweep(cfg: RunConfig, axis: str, values: list[float],
              jobs: int = 1) -> Path:
    """One experiment per axis value plus a merged long-format CSV.

    Every point's config is built, and so checked, before any point runs.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}")
    if not values:
        raise ConfigError("sweep needs at least one axis value")
    if axis == "t_bias":  # integral floats such as 2.0 name an integer t_bias
        values = [int(v) if float(v).is_integer() else v for v in values]
    out = Path(cfg.out_dir)
    points = [replace(cfg, **{axis: v}, out_dir=str(out / f"{axis}={v:g}"))
              for v in values]
    out.mkdir(parents=True, exist_ok=True)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs,
                                 initializer=_one_blas_thread) as pool:
            list(pool.map(run_experiment, points))
    else:
        for point in points:
            run_experiment(point)
    merged = []
    for value, point in zip(values, points):
        with (Path(point.out_dir) / "metrics.csv").open() as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                merged.append([axis, f"{value:g}", row["seed"], row["epoch"],
                               *[row[k] for k in MetricsRow.CSV_FIELDS[1:]]])
    sweep_path = out / "sweep.csv"
    _write_csv(sweep_path, ["axis", "value", "seed", "epoch",
                            *MetricsRow.CSV_FIELDS[1:]], merged)
    return sweep_path


def aggregate_report(out_dir: str | Path) -> dict:
    """Recompute the summary from metrics.csv (independent aggregation)."""
    out = Path(out_dir)
    with (out / "metrics.csv").open() as fh:
        rows = [{k: (int(v) if k in ("seed", "epoch") else float(v))
                 for k, v in row.items()}
                for row in csv.DictReader(fh)]
    if not rows:
        raise ConfigError("metrics.csv is empty")
    summary = summarize(rows)
    (out / "summary_recomputed.json").write_text(
        json.dumps(summary, indent=2) + "\n")
    return summary
