"""The benchmark's workloads: inputs built from a seed, a job list, checks.

A workload's ``setup(seed, replica, workdir, scale, jobs)`` imports what it
uses, builds the inputs of one replica of the seed and returns a list of
``Job``. Each job's ``run`` is one
call into ``debiaskit``; its ``check`` looks at the result and returns the
problems found, an empty list when the output is correct. Only ``run`` is
timed. See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

GAMMA = 200.0
T_BIAS = 5
VCAE_CAP = 100.0
SWEEP_GAMMAS = (50.0, 200.0, 1000.0, 10000.0)
SWEEP_T_BIAS = 10
SWEEP_DIR = "sweep"  # cli-sweep's output directory inside the work directory

# Sizes. "full" is what the benchmark measures; "smoke" only shows that
# every job runs and passes its checks, for the benchmark's own tests.
SIZES = {
    "twofactor-zoo": {"full": dict(n=10000, n_test=5000, epochs=3),
                      "smoke": dict(n=10000, n_test=1000, epochs=3)},
    "glyphs-vcae": {"full": dict(n=2000, n_test=1000, epochs=10, vcae_epochs=30),
                    "smoke": dict(n=2000, n_test=300, epochs=1, vcae_epochs=30)},
    "cli-sweep": {"full": dict(n=10000, n_test=5000, epochs=2),
                  "smoke": dict(n=1000, n_test=300, epochs=1)},
}

ZOO_PAIRS = (("vanilla", "LW"), ("oracle-ub", "LW"), ("oracle-yb", "TBA"),
             ("biased-confidence", "LW"), ("biased-confidence", "ALW"),
             ("biased-confidence", "WS"), ("biased-confidence", "TBA"),
             ("pgd", "WS"), ("lff", "LW"))


@dataclass
class Job:
    name: str
    rows: int
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    accuracy: Callable[[object], tuple[float, float]] | None = None


@dataclass
class JobResult:
    name: str
    seconds: float
    cpu_s: float
    rows: int
    problems: list[str] = field(default_factory=list)
    acc: tuple[float, float] | None = None


def derive_seeds(seed: int, replica: int, count: int) -> list[int]:
    """Independent 31-bit seeds for data, training, ... of one replica of
    the workload seed."""
    import numpy as np
    state = np.random.SeedSequence([seed, replica]).generate_state(count)
    return [int(s) >> 1 for s in state]


def train_rows(scheme: str, method: str, n: int, epochs: int, batch_size: int,
               t_bias: int = 0, vcae_epochs: int = 0) -> int:
    """Training rows pushed through optimizer steps by one debiasing run.

    Weighted sampling draws a full batch at every step; the other methods
    see each row once per epoch. Amplification, both LfF models and the
    VCAE trained inside the vcae scheme count too.
    """
    per_epoch = math.ceil(n / batch_size) * batch_size if method == "WS" else n
    rows = epochs * per_epoch
    if scheme == "lff":
        rows *= 2
    if scheme in ("biased-confidence", "pgd"):
        rows += t_bias * n
    if scheme == "vcae":
        rows += vcae_epochs * n
    return rows


def weight_range(scheme: str, method: str, rho: float, classes: int):
    """Documented range of the weights a scheme/method pair produces."""
    if scheme == "vanilla":
        return 1.0, 1.0
    if scheme == "oracle-ub" and method != "TBA":
        return 1.0 / (1.0 - rho), (classes - 1) / rho
    if scheme == "biased-confidence" and method in ("LW", "ALW"):
        return 10.0 / GAMMA, 10.0
    if scheme in ("lff", "pgd"):
        return 0.0, 1.0
    if scheme == "vcae":
        return 1.0, VCAE_CAP
    return 1.0, GAMMA  # clamped inverse probabilities, and TBA's implied weights


def weight_problems(w, n: int, lo: float, hi: float) -> list[str]:
    import numpy as np
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (n,):
        return [f"weights have shape {w.shape}, expected ({n},)"]
    if not np.all(np.isfinite(w)):
        return ["non-finite weight"]
    if np.any(w <= 0):
        return ["non-positive weight"]
    if w.min() < lo - 1e-9 or w.max() > hi + 1e-9:
        return [f"weights span [{w.min():.6g}, {w.max():.6g}], outside [{lo:.6g}, {hi:.6g}]"]
    return []


def history_problems(history, epochs: int) -> list[str]:
    if [row.epoch for row in history] != list(range(epochs)):
        return [f"history epochs {[row.epoch for row in history]}, expected {epochs}"]
    for row in history:
        values = row.csv_values()
        if not all(math.isfinite(float(v)) for v in values):
            return [f"non-finite metrics row {values}"]
    return []


def _pipeline_job(run_debias_pipeline, train_ds, test_ds, scheme, method, *,
                  cfg, rho, vcae_cfg=None, vcae_train_cfg=None,
                  extra_check=None) -> Job:
    def run():
        return run_debias_pipeline(train_ds, test_ds, scheme, method,
                                   train_cfg=cfg, gamma=GAMMA, t_bias=T_BIAS,
                                   vcae_cfg=vcae_cfg,
                                   vcae_train_cfg=vcae_train_cfg,
                                   vcae_weight_cap=VCAE_CAP)

    def check(result):
        problems = history_problems(result.history, cfg.epochs)
        lo, hi = weight_range(scheme, method, rho, train_ds.num_classes)
        problems += weight_problems(result.weights.weights, len(train_ds), lo, hi)
        if extra_check is not None:
            problems += extra_check(result)
        return problems

    def accuracy(result):
        last = result.history[-1]
        return last.test_acc_bc, last.test_acc_ba

    rows = train_rows(scheme, method, len(train_ds), cfg.epochs, cfg.batch_size,
                      t_bias=T_BIAS,
                      vcae_epochs=vcae_train_cfg.epochs if vcae_train_cfg else 0)
    return Job(f"{scheme}-{method}", rows, run, check, accuracy)


def twofactor_zoo(seed: int, replica: int, workdir: Path, scale: str,
                  jobs: int) -> list[Job]:
    """Nine scheme/method pairs on two-factor data, D=20."""
    from debiaskit.classifier import TrainConfig
    from debiaskit.data import GenConfig, generate, unbiased_config
    from debiaskit.debias import run_debias_pipeline

    size = SIZES["twofactor-zoo"][scale]
    rho = 0.01
    data_seed, test_seed, train_seed = derive_seeds(seed, replica, 3)
    gen = GenConfig(num_classes=10, n=size["n"], bc_ratio=rho, seed=data_seed)
    train_ds = generate(gen)
    test_ds = generate(unbiased_config(gen, size["n_test"], test_seed))
    cfg = TrainConfig(epochs=size["epochs"], batch_size=128, optimizer="adam",
                      lr=1e-3, hidden=(64, 64), seed=train_seed)
    vanilla_bc = []  # vanilla/LW runs first

    def remember_vanilla(result):
        vanilla_bc.append(result.history[-1].test_acc_bc)
        return []

    def beats_vanilla(result):
        ours = result.history[-1].test_acc_bc
        if ours <= vanilla_bc[0]:
            return [f"oracle-ub/LW acc_bc {ours:.4f} <= vanilla/LW {vanilla_bc[0]:.4f}"]
        return []

    checks = {"vanilla": remember_vanilla, "oracle-ub": beats_vanilla}
    return [_pipeline_job(run_debias_pipeline, train_ds, test_ds, scheme, method,
                          cfg=cfg, rho=rho, extra_check=checks.get(scheme))
            for scheme, method in ZOO_PAIRS]


def glyphs_vcae(seed: int, replica: int, workdir: Path, scale: str,
                jobs: int) -> list[Job]:
    """vcae/LW (train_vcae + vcae_weights inside), biased-confidence/WS and
    vanilla/LW on colored glyphs, D=768."""
    from debiaskit.classifier import TrainConfig
    from debiaskit.data import GenConfig, generate, unbiased_config
    from debiaskit.debias import run_debias_pipeline
    from debiaskit.vcae import VcaeConfig

    size = SIZES["glyphs-vcae"][scale]
    rho = 0.05
    data_seed, test_seed, train_seed, vcae_seed = derive_seeds(seed, replica, 4)
    gen = GenConfig(num_classes=10, n=size["n"], bc_ratio=rho, seed=data_seed,
                    kind="colored-glyphs")
    train_ds = generate(gen)
    test_ds = generate(unbiased_config(gen, size["n_test"], test_seed))
    cfg = TrainConfig(epochs=size["epochs"], batch_size=128, optimizer="adam",
                      lr=1e-3, hidden=(64, 64), seed=train_seed)
    vcae_cfg = VcaeConfig(num_classes=10, dim_z=2, hidden=(32,))
    vcae_train_cfg = TrainConfig(epochs=size["vcae_epochs"], batch_size=128,
                                 lr=3e-3, seed=vcae_seed)

    def bc_over_ba(result):
        w = result.weights.weights
        w_bc, w_ba = w[~train_ds.aligned].mean(), w[train_ds.aligned].mean()
        return [] if w_bc > w_ba else [f"VCAE weights w_bc {w_bc:.4g} <= w_ba {w_ba:.4g}"]

    return [_pipeline_job(run_debias_pipeline, train_ds, test_ds, scheme, method,
                          cfg=cfg, rho=rho, vcae_cfg=vcae_cfg,
                          vcae_train_cfg=vcae_train_cfg,
                          extra_check=bc_over_ba if scheme == "vcae" else None)
            for scheme, method in (("vcae", "LW"), ("biased-confidence", "WS"),
                                   ("vanilla", "LW"))]


def _cli(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def cli_sweep(seed: int, replica: int, workdir: Path, scale: str,
              jobs: int) -> list[Job]:
    """generate, a four-point gamma sweep over two seeds, oracle-check."""
    from debiaskit.cli import main

    size = SIZES["cli-sweep"][scale]
    data_seed, seed_a, seed_b, oracle_seed = derive_seeds(seed, replica, 4)
    data_dir, sweep_dir, oracle_dir = (workdir / "data", workdir / SWEEP_DIR,
                                       workdir / "oracle")
    config = workdir / "config.json"
    seeds = [seed_a, seed_b]
    epochs = size["epochs"]
    config.write_text(json.dumps({
        "schema_version": 1, "scheme": "biased-confidence", "method": "LW",
        "dataset_path": str(data_dir), "test_n": size["n_test"],
        "t_bias": SWEEP_T_BIAS, "tau": 0.7,
        "train": {"epochs": epochs, "batch_size": 128, "optimizer": "adam",
                  "lr": 1e-3, "hidden": [64, 64]},
        "out_dir": str(sweep_dir), "seeds": seeds}))

    def exit_code(expected_files):
        def check(out):
            code, _ = out
            problems = [] if code == 0 else [f"exit code {code}"]
            return problems + [f"missing {p}" for p in expected_files if not p.exists()]
        return check

    def check_sweep(out):
        import numpy as np
        code, _ = out
        if code != 0:
            return [f"exit code {code}"]
        with (sweep_dir / "sweep.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        expected = len(SWEEP_GAMMAS) * len(seeds) * epochs
        problems = [] if len(rows) == expected else [
            f"sweep.csv has {len(rows)} rows, expected {expected}"]
        for row in rows:
            values = [float(v) for k, v in row.items() if k != "axis"]
            if not all(math.isfinite(v) for v in values):
                problems.append(f"non-finite sweep row {row}")
        for g in SWEEP_GAMMAS:
            for s in seeds:
                path = sweep_dir / f"gamma={g:g}" / f"weights_seed{s}.csv"
                with path.open() as fh:
                    w = [float(r["weight"]) for r in csv.DictReader(fh)]
                problems += weight_problems(np.array(w), size["n"], 10.0 / g, 10.0)
        return problems

    def sweep_accuracy(out):
        with (sweep_dir / "sweep.csv").open() as fh:
            last = [r for r in csv.DictReader(fh) if int(r["epoch"]) == epochs - 1]
        return (sum(float(r["test_acc_bc"]) for r in last) / len(last),
                sum(float(r["test_acc_ba"]) for r in last) / len(last))

    def check_oracle(out):
        code, _ = out
        report = json.loads((oracle_dir / "oracle_report.json").read_text())
        problems = [] if code == 0 else [f"exit code {code}"]
        return problems + ([] if report["all_pass"] is True else ["oracle checks failed"])

    gammas = ",".join(f"{g:g}" for g in SWEEP_GAMMAS)
    sweep_rows = len(SWEEP_GAMMAS) * len(seeds) * (SWEEP_T_BIAS + epochs) * size["n"]
    return [
        Job("generate", 0,
            lambda: _cli(main, ["generate", "--n", str(size["n"]), "--rho", "0.005",
                                "--seed", str(data_seed), "--out", str(data_dir)]),
            exit_code([data_dir / "meta.json", data_dir / "data.f64le"])),
        Job("sweep", sweep_rows,
            lambda: _cli(main, ["sweep", "--config", str(config), "--gamma", gammas,
                                "--jobs", str(jobs)]),
            check_sweep, sweep_accuracy),
        Job("oracle-check", 0,
            lambda: _cli(main, ["oracle-check", "--seed", str(oracle_seed),
                                "--out", str(oracle_dir)]),
            check_oracle),
    ]


WORKLOADS = {
    "twofactor-zoo": twofactor_zoo,
    "glyphs-vcae": glyphs_vcae,
    "cli-sweep": cli_sweep,
}


def bytes_under(path: Path) -> int:
    """Bytes in the files under ``path``; 0 when it does not exist."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
