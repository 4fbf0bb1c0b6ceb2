"""Experiment orchestration: config files, metric CSVs, summaries, sweeps.

Every run trains all its seeds, then writes under its output directory (so a
seed that fails leaves no files):

* ``config.json``   the run's ``RunConfig``
* ``metrics.csv``   one row per (seed, epoch); byte-identical across reruns
* ``summary.json``  mean/std of the final-epoch metrics across seeds
* ``weights_seed<k>.csv``  per-sample weight dump (index,weight,aligned,provenance)
* ``checkpoint_seed<k>/``  trained classifier
* ``timings.json``  per seed, its epochs' summed ``MetricsRow.seconds``: training steps
  only, no evaluation, data, amplifier or weights (kept out of the CSVs on purpose)

``data`` holds the reader and writers of each format and config object
(``read_meta``, ``take_fields``, ``write_json``, ``write_csv``, ``write_f64le``); this
module keeps only the weights-CSV layout, ``write_weights_csv``, which ``cli vcae`` shares.
"""

from __future__ import annotations

import csv
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .classifier import TrainConfig, save_model
from .data import (SCHEMA_VERSION, ConfigError, GenConfig, check_fields, generate,
                   load_dataset, read_meta, take_fields, unbiased_config, write_csv,
                   write_json)
from .debias import (AnnealConfig, SampleWeights, check_gamma, check_pair,
                     run_debias_pipeline)
from .metrics import MetricsRow
from .vcae import VcaeConfig

# training epochs of a run when its config names none; TrainConfig's own
# default (30) is the library's, not the run's
RUN_EPOCHS = 20

METRICS_HEADER = ["seed", *MetricsRow.CSV_FIELDS]
WEIGHTS_HEADER = ["index", "weight", "aligned", "provenance"]


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
        check_fields(self)
        check_pair(self.scheme, self.method)
        if self.scheme == "vcae" and self.vcae is None:
            raise ConfigError("the vcae scheme needs a vcae section")
        if self.vcae and self.dataset and self.vcae.num_classes != self.dataset.num_classes:
            raise ConfigError(f"vcae.num_classes is {self.vcae.num_classes} but the "
                              f"dataset has {self.dataset.num_classes} classes")
        if (self.dataset is None) == (self.dataset_path is None):
            raise ConfigError("need exactly one of a dataset spec and a dataset path")
        if not self.seeds or min(self.seeds) < 0 or len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds must be a non-empty list of distinct ints >= 0, "
                              f"got {self.seeds}")
        if self.test_n < 1:
            raise ConfigError(f"test_n must be >= 1, got {self.test_n}")
        if self.t_bias < 1:
            raise ConfigError(f"t_bias must be >= 1, got {self.t_bias}")
        check_gamma(self.gamma)
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must be in (0, 1], got {self.tau}")
        if self.train.seed != 0:  # run_single sets it to each run seed
            raise ConfigError(f"train.seed must be 0 (seeds sets it), got {self.train.seed}")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """A missing key takes the field's default, and so does a null section.
        A section is a field whose annotation names a config dataclass."""
        kw = take_fields(raw, cls, "run config", "schema_version")
        version = kw.pop("schema_version", None)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version}")
        hints = get_type_hints(cls)
        for f in fields(cls):
            section_cls = next((t for t in (hints[f.name], *get_args(hints[f.name]))
                                if is_dataclass(t)), None)
            section = kw.pop(f.name, None) if section_cls else None
            if section is None:
                continue
            section = take_fields(section, section_cls, f.name)
            if f.name == "vcae" and section.get("num_classes") is None:
                if kw.get("dataset") is None:
                    raise ConfigError("vcae.num_classes required with dataset_path")
                section["num_classes"] = kw["dataset"].num_classes
            if f.default_factory is MISSING:
                kw[f.name] = section_cls(**section)
            else:
                kw[f.name] = replace(f.default_factory(), **section)
        return cls(**kw)

    @classmethod
    def from_json(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(read_meta(Path(path), {}))

    def to_dict(self) -> dict:  # None fields left out
        return {"schema_version": SCHEMA_VERSION,
                **{k: v for k, v in asdict(self).items() if v is not None}}


def write_weights_csv(path: Path, w: SampleWeights, aligned: np.ndarray | None) -> None:
    """One row per sample; the aligned cell is empty when there are no bias labels."""
    n = len(w.weights)
    flags = aligned.astype(np.int64).tolist() if aligned is not None else [""] * n
    write_csv(path, WEIGHTS_HEADER, [range(n), w.weights.tolist(), flags, [w.provenance] * n])


def _metrics_columns(rows: list[list]) -> list:
    """The ``METRICS_HEADER`` columns of metrics rows, one per name also for no rows."""
    return [[row[i] for row in rows] for i in range(len(METRICS_HEADER))]


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
    """Train one seed; return its pipeline result and its training split's aligned flags."""
    train_ds, test_ds = _datasets_for_seed(cfg, run_seed)
    train_cfg = replace(cfg.train, seed=run_seed)
    result = run_debias_pipeline(
        train_ds, test_ds, cfg.scheme, cfg.method,
        train_cfg=train_cfg, gamma=cfg.gamma, t_bias=cfg.t_bias,
        tau=cfg.tau, anneal=cfg.anneal, vcae_cfg=cfg.vcae)
    return result, train_ds.aligned


def summarize(rows: list[dict]) -> dict:
    """Mean/std (across seeds) of each final-epoch metric column; None if not finite."""
    last_epoch = max(r["epoch"] for r in rows)
    finals = [r for r in rows if r["epoch"] == last_epoch]
    out = {"final_epoch": last_epoch, "n_seeds": len(finals), "metrics": {}}
    for key in ("train_loss", "test_acc", "test_acc_ba", "test_acc_bc", "beta"):
        vals = np.array([float(r[key]) for r in finals])
        stats = {"mean": vals.mean(), "std": vals.std(ddof=1) if len(vals) > 1 else 0.0}
        out["metrics"][key] = {k: float(v) if np.isfinite(v) else None for k, v in stats.items()}
    return out


def run_experiment(cfg: RunConfig) -> tuple[dict, list[list]]:
    """Train every seed, then write all artifacts; return the summary and metrics.csv rows."""
    runs = {run_seed: run_single(cfg, run_seed) for run_seed in cfg.seeds}
    out = Path(cfg.out_dir)
    write_json(out / "config.json", cfg.to_dict())
    csv_rows, timings = [], {}
    for run_seed, (result, aligned) in runs.items():
        csv_rows += [[run_seed, *row.csv_values()] for row in result.history]
        timings[str(run_seed)] = sum(r.seconds for r in result.history)
        write_weights_csv(out / f"weights_seed{run_seed}.csv", result.weights, aligned)
        save_model(result.params, out / f"checkpoint_seed{run_seed}",
                   extra={"optimizer": cfg.train.optimizer, "lr": cfg.train.lr,
                          "scheme": cfg.scheme, "method": cfg.method})
    write_csv(out / "metrics.csv", METRICS_HEADER, _metrics_columns(csv_rows))
    summary = summarize([dict(zip(METRICS_HEADER, r)) for r in csv_rows])
    summary["scheme"], summary["method"] = cfg.scheme, cfg.method
    write_json(out / "summary.json", summary)
    write_json(out / "timings.json", timings)
    return summary, csv_rows


SWEEP_AXES = ("gamma", "t_bias")


def run_sweep(cfg: RunConfig, axis: str, values: list[float],
              jobs: int = 1) -> Path:
    """One experiment per axis value plus a merged long-format CSV.

    Every point's config is built, and so checked, before any point runs.
    Each point creates ``out`` with its own directory. ``sweep.csv`` is
    built from the rows the points return, in point order. The pool
    starts no more workers than there are points.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if not values:
        raise ConfigError("sweep needs at least one axis value")
    if axis == "t_bias":  # integral floats such as 2.0 name an integer t_bias
        values = [int(v) if float(v).is_integer() else v for v in values]
    names = [f"{axis}={v:g}" for v in values]
    if len(set(names)) < len(names):
        raise ConfigError(f"sweep values {values} must name distinct directories, "
                          f"got {names}")
    out = Path(cfg.out_dir)
    points = [replace(cfg, **{axis: v}, out_dir=str(out / name))
              for v, name in zip(values, names)]
    if jobs > 1:  # imported here, so that a serial sweep loads no process pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(points))) as pool:
            results = list(pool.map(run_experiment, points))
    else:
        results = [run_experiment(point) for point in points]
    point_cells = [f"{value:g}" for value, (_, rows) in zip(values, results) for _ in rows]
    sweep_path = out / "sweep.csv"
    write_csv(sweep_path, ["axis", "value", *METRICS_HEADER],
              [[axis] * len(point_cells), point_cells,
               *_metrics_columns([row for _, rows in results for row in rows])])
    return sweep_path


def aggregate_report(out_dir: str | Path) -> dict:
    """Recompute the summary from metrics.csv (independent aggregation)."""
    out = Path(out_dir)
    path = out / "metrics.csv"
    with path.open() as fh:
        reader = csv.reader(fh)
        if (header := next(reader, None)) != METRICS_HEADER:
            raise ConfigError(f"{path}: header must be {METRICS_HEADER}, got {header}")
        rows = []
        for cells in filter(None, reader):  # a blank line holds no row
            if len(cells) != len(header):
                raise ConfigError(f"{path}: line {reader.line_num} has {len(cells)} cells, "
                                  f"the header {len(header)}")
            rows.append({k: (int(v) if k in ("seed", "epoch") else float(v))
                         for k, v in zip(header, cells)})
    if not rows:
        raise ConfigError("metrics.csv is empty")
    summary = summarize(rows)
    write_json(out / "summary_recomputed.json", summary)
    return summary
