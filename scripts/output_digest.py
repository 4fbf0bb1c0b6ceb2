"""Digest every file that a fixed ``debiaskit`` CLI job list writes.

A change that claims to keep the outputs byte-identical runs this on its
parent and on itself and compares the two listings:

    git archive <parent> | tar -x -C ../parent
    python scripts/output_digest.py ../work-parent --src ../parent/src > parent.txt
    python scripts/output_digest.py ../work-change > change.txt
    diff parent.txt change.txt && echo byte-identical

The jobs run in WORKDIR (created; it must hold no files yet) through
``python -m debiaskit.cli``, importing the package from ``--src`` (default:
the ``src/`` next to this script). Job paths are relative to WORKDIR, so
``config.json`` bytes compare across trees. One ``sha256  path`` line is
printed per file but ``timings.json`` (wall-clock seconds), sorted by path.
The jobs: two two-factor datasets, C=4 rho=0.049 and C=10 rho=0.007 (where
1/(rho/(C-1)) and (C-1)/rho differ in the last bit); every valid
scheme/method pair on both, seeds 0 and 1; ``sweep --gamma 20,200``;
``sweep --t-bias 1,2 --jobs 2``; ``vcae``; ``train-biased``; ``oracle-check``.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

PAIRS = [(s, m) for s in ("oracle-ub", "oracle-yb", "biased-confidence")
         for m in ("LW", "ALW", "WS", "TBA")]
PAIRS += [(s, m) for s in ("vanilla", "vcae") for m in ("LW", "ALW", "WS")]
PAIRS += [("lff", "LW"), ("pgd", "WS")]

DATASETS = {"d4": (4, 0.049, 800, 3), "d10": (10, 0.007, 2000, 4)}  # C, rho, n, seed


def run_config(data: str, classes: int) -> dict:
    return {"schema_version": 1, "test_n": 300, "gamma": 50.0, "t_bias": 2,
            "anneal": {"t_anneal": 5}, "seeds": [0, 1], "dataset_path": data,
            "train": {"epochs": 2, "batch_size": 64, "hidden": [16]},
            "vcae": {"num_classes": classes, "hidden": [16]}}


def jobs() -> list[list[str]]:
    out = []
    for data, (c, rho, n, seed) in DATASETS.items():
        out.append(["generate", "--classes", str(c), "--rho", str(rho), "--n", str(n),
                    "--seed", str(seed), "--out", data])
        out += [["debias", "--config", f"{data}.json", "--scheme", s, "--method", m,
                 "--out", f"runs/{data}/{s}-{m}"] for s, m in PAIRS]
    bc = ["--scheme", "biased-confidence", "--method", "LW"]
    return out + [
        ["sweep", "--config", "d10.json", *bc, "--gamma", "20,200", "--out", "sweep-gamma"],
        ["sweep", "--config", "d4.json", *bc, "--t-bias", "1,2", "--jobs", "2",
         "--out", "sweep-t-bias"],
        ["vcae", "--data", "d4", "--epochs", "2", "--hidden", "16", "--seed", "0",
         "--out", "vcae"],
        ["train-biased", "--data", "d10", "--t-bias", "2", "--out", "amplified"],
        ["oracle-check", "--seed", "0", "--out", "oracle"]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workdir", type=Path)
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    args = ap.parse_args()
    work = args.workdir
    work.mkdir(parents=True, exist_ok=True)
    if any(work.iterdir()):
        sys.exit(f"{work} is not empty")
    for data, (c, *_) in DATASETS.items():
        (work / f"{data}.json").write_text(json.dumps(run_config(data, c)) + "\n")
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve())}
    for argv in jobs():
        subprocess.run([sys.executable, "-m", "debiaskit.cli", *argv], cwd=work, env=env,
                       stdout=subprocess.DEVNULL, check=True)
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        if path.name != "timings.json":
            print(hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(work).as_posix(),
                  sep="  ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
