"""Experiment orchestration: config files, metric CSVs, summaries, sweeps.

Every run writes, under its output directory:

* ``metrics.csv``   one row per (seed, epoch); byte-identical across reruns
* ``summary.json``  mean/std of the final-epoch metrics across seeds
* ``weights_seed<k>.csv``  per-sample weight dump (index,weight,aligned,provenance)
* ``checkpoint_seed<k>/``  trained classifier
* ``timings.json``  wall-clock seconds per seed and the BLAS thread policy
  in effect (kept out of the CSVs on purpose)

A sweep's pool workers run one BLAS thread each. A serial run's thread
count is set by ``blas.limit`` inside the training calls.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import blas
from .classifier import GceConfig, TrainConfig, save_model
from .data import (GenConfig, LabeledDataset, generate, load_dataset,
                   unbiased_config)
from .debias import (_COMPATIBLE, METHODS, SCHEMES, AnnealConfig,
                     SampleWeights, run_debias_pipeline)
from .metrics import MetricsRow
from .vcae import VcaeConfig

SCHEMA_VERSION = 1

# training epochs of a run when its config names none; TrainConfig's own
# default (30) is the library's, not the run's
RUN_EPOCHS = 20

METRICS_HEADER = ["seed", *MetricsRow.CSV_FIELDS]


class ConfigError(ValueError):
    pass


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


# the nested sections of a run config, each one a config dataclass
_SECTIONS = {"dataset": GenConfig, "anneal": AnnealConfig, "train": TrainConfig,
             "vcae": VcaeConfig}


def _serialised(cls) -> list[str]:
    """The fields of config dataclass ``cls`` that config.json holds, in order."""
    return [f.name for f in fields(cls) if f.metadata.get("serialise", True)]


def _take(raw: dict, cls, where: str) -> dict:
    unknown = set(raw) - set(_serialised(cls))
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    return dict(raw)


def _to_json(obj) -> dict:
    """The serialised fields of a config dataclass as JSON values, in field
    order: sections nested, tuples as lists, None fields left out."""
    out = {}
    for name in _serialised(type(obj)):
        v = getattr(obj, name)
        if is_dataclass(v):
            v = _to_json(v)
        elif isinstance(v, (tuple, list)):
            v = list(v)
        if v is not None:
            out[name] = v
    return out


@dataclass
class RunConfig:
    """One experiment; the fields are in config.json key order."""

    scheme: str = "oracle-ub"
    method: str = "LW"
    test_n: int = 5000
    gamma: float = 200.0
    t_bias: int = 5
    tau: float = 0.7
    anneal: AnnealConfig = field(default_factory=AnnealConfig)
    train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=RUN_EPOCHS))
    out_dir: str = "runs/out"
    seeds: list[int] = field(default_factory=lambda: [0])
    dataset: GenConfig | None = None
    dataset_path: str | None = None
    vcae: VcaeConfig | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.method not in _COMPATIBLE[self.scheme]:
            raise ConfigError(f"scheme {self.scheme!r} cannot drive method "
                              f"{self.method!r}; it drives {sorted(_COMPATIBLE[self.scheme])}")
        if (self.dataset is None) == (self.dataset_path is None):
            raise ConfigError("need exactly one of a dataset spec and a dataset path")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a path string, got {self.out_dir!r}")
        if self.dataset_path is not None and not isinstance(self.dataset_path, str):
            raise ConfigError(f"dataset_path must be a path string, got {self.dataset_path!r}")
        if not (isinstance(self.seeds, list) and self.seeds
                and all(_is_int(s) and s >= 0 for s in self.seeds)):
            raise ConfigError(f"seeds must be a non-empty list of integers >= 0, "
                              f"got {self.seeds!r}")
        if not _is_int(self.test_n) or self.test_n < 1:
            raise ConfigError(f"test_n must be an integer >= 1, got {self.test_n!r}")
        if not _is_int(self.t_bias) or self.t_bias < 1:
            raise ConfigError(f"t_bias must be an integer >= 1, got {self.t_bias!r}")
        if not (_is_number(self.gamma) and self.gamma > 1.0):
            raise ConfigError(f"gamma must be a number above 1, got {self.gamma!r}")
        if not (_is_number(self.tau) and 0.0 < self.tau <= 1.0):
            raise ConfigError(f"tau must be a number in (0, 1], got {self.tau!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """A missing key takes the field's default, and so does a null section."""
        raw = dict(raw)
        version = raw.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version}")
        kw = _take(raw, cls, "run config")
        for f in fields(cls):
            section = kw.pop(f.name, None) if f.name in _SECTIONS else None
            if section is None:
                continue
            section = _take(section, _SECTIONS[f.name], f.name)
            if f.name == "vcae" and section.get("num_classes") is None:
                if kw.get("dataset") is None:
                    raise ConfigError("vcae.num_classes required with dataset_path")
                section["num_classes"] = kw["dataset"].num_classes
            if f.default_factory is MISSING:
                kw[f.name] = _SECTIONS[f.name](**section)
            else:
                kw[f.name] = replace(f.default_factory(), **section)
        return cls(**kw)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **_to_json(self)}


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


def _write_weights_csv(path: Path, w: SampleWeights, aligned: np.ndarray) -> None:
    """One index,weight,aligned,provenance row per sample.

    Writes the bytes of ``_write_csv``: the ``tolist()`` floats are Python
    floats, whose ``str`` is the ``repr`` that ``_fmt`` writes.
    """
    n = len(w.weights)
    with path.open("w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["index", "weight", "aligned", "provenance"])
        wr.writerows(zip(range(n), w.weights.tolist(),
                         aligned.astype(np.int64).tolist(), [w.provenance] * n))


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
            _write_weights_csv(out / f"weights_seed{run_seed}.csv",
                               result.weights, train_ds.aligned)
        save_model(result.params, out / f"checkpoint_seed{run_seed}",
                   extra={"optimizer": cfg.train.optimizer, "lr": cfg.train.lr,
                          "scheme": cfg.scheme, "method": cfg.method})
    timings["blas_threads"] = result.blas_threads  # one config: one policy
    _write_csv(out / "metrics.csv", METRICS_HEADER, csv_rows)
    summary = summarize(dict_rows)
    summary["scheme"], summary["method"] = cfg.scheme, cfg.method
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    (out / "timings.json").write_text(json.dumps(timings, indent=2) + "\n")
    return summary


SWEEP_AXES = ("gamma", "t_bias")


def run_sweep(cfg: RunConfig, axis: str, values: list[float],
              jobs: int = 1) -> Path:
    """One experiment per axis value plus a merged long-format CSV.

    Every point's config is built, and so checked, before any point runs.
    With ``jobs > 1`` each pool worker runs one BLAS thread: N workers that
    kept the parent's threads would run N times as many threads as cores.
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
        with ProcessPoolExecutor(max_workers=jobs, initializer=blas.set_threads,
                                 initargs=(1,)) as pool:
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
