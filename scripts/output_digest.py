"""Digest every file that a fixed ``debiaskit`` CLI job list writes.

A change that claims to keep the outputs byte-identical compares the
listing of its parent with its own, in one command:

    python scripts/output_digest.py ../work --rev HEAD~1

``--rev`` extracts that git revision's ``src/`` into a temporary directory
(``git archive``), runs the job list once for it (in WORKDIR/rev) and once
for the working tree or ``--src`` (in WORKDIR/tree), prints the unified
diff of the two listings and exits 1 if they differ. Without ``--rev`` it
prints the listing of one tree:

    python scripts/output_digest.py ../work-parent --src ../parent/src > parent.txt

The jobs run in WORKDIR (created; it must hold no files yet) through
``block_recorder.py`` next to this script, which runs the command as
``python -m debiaskit.cli`` would, importing the package from ``--src``
(default: the ``src/`` next to this script). Job paths are relative to
WORKDIR, so ``config.json`` bytes compare across trees. One ``sha256  path``
line is printed per file but ``timings.json`` (wall-clock seconds), sorted
by path, then one ``sha256  stdout/NN-<command>`` line per job for what job
NN printed, then one ``paths/NN-<command>  n=size+size ...`` line per job
with the distinct row-block partitions (``classifier.row_blocks``) of its
full-data passes, ``-`` for none.
The jobs: two two-factor datasets, C=4 rho=0.049 and C=10 rho=0.007 (where
1/(rho/(C-1)) and (C-1)/rho differ in the last bit); every valid
scheme/method pair on both, seeds 0 and 1; ``sweep --gamma 20,200``;
``sweep --t-bias 1,2 --jobs 2``; ``vcae``; ``train-biased``; ``oracle-check``;
``report`` on oracle-ub/LW of C=4.
Then, for one seed and two epochs: biased-confidence/LW, pgd/WS and lff/LW
on a C=10 two-factor dataset of 5,000 rows, test_n 4,500 and hidden (64, 64),
whose 5,000-row passes run in three blocks of 1,666-1,667 rows and 4,500-row
passes in two of 2,250; and vcae/LW, oracle-ub/LW
and oracle-ub/TBA on a small colored-glyphs dataset, the only jobs that read
the exact p(y|b) table of glyph data. With two epochs, each evaluation
(the 4,500-row test pass, LfF's 5,000-row loss ratios, the glyph test
pass) runs twice through the workspace that epoch 0's end made. Then lff/LW
on a C=10 two-factor dataset of 2,000 rows (one block) with test_n 4,500
(two blocks), for one seed and two epochs through hidden (64, 64): its test
split is larger than its training split, so an evaluation workspace sized
for only one of them shows as an error or a byte difference. Then vcae/LW,
biased-confidence/WS and lff/LW on 720 colored glyphs (D=768) for one seed
and two epochs, at batch 128 through hidden (64,) for the classifiers and
(32,) for the VCAE: the jobs with the largest step products, 128 x 768 x 64
multiply-adds in the classifier's first layer (the small glyph jobs run 64
x 768 x 16), and a last batch of 80 rows each epoch. Then, on two
more C=4 datasets, the training options that no other job sets: lff/LW and
biased-confidence/ALW with SGD, momentum, weight decay and no shuffling,
and lff/LW with Adam and weight decay. Then
biased-confidence/LW on a C=4 dataset of 300 rows for one seed and one
epoch, at batch 32 through a hidden layer of 3000, where OpenBLAS's sums
depend on its thread count: its bytes show that training ran one thread.
Then pgd/WS on a C=4 dataset of 800 rows for one seed and two epochs with
no hidden layer (``"hidden": []``), whose gradient norms read the input
rows in place of a last hidden layer. Then vcae/LW on 300 colored glyphs
(C=6) for one seed and two epochs with a VCAE of two hidden layers
(``"hidden": [16, 8]``), the only job whose VCAE reverse sweep passes
through more than one ReLU mask. Last, two runs whose config holds
the dataset section itself, so that ``config.json`` carries it:
biased-confidence/LW on two-factor data, seeds 0 and 1, and vcae/LW on
colored glyphs at n=120 for one epoch, where the classifier and the VCAE
have no hidden layer (``"hidden": []``).
"""

import argparse
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PAIRS = [(s, m) for s in ("oracle-ub", "oracle-yb", "biased-confidence")
         for m in ("LW", "ALW", "WS", "TBA")]
PAIRS += [(s, m) for s in ("vanilla", "vcae") for m in ("LW", "ALW", "WS")]
PAIRS += [("lff", "LW"), ("pgd", "WS")]

# name: (kind, C, rho, n, seed, run config overrides, scheme/method pairs)
DATASETS = {
    "d4": ("two-factor", 4, 0.049, 800, 3, {}, PAIRS),
    "d10": ("two-factor", 10, 0.007, 2000, 4, {}, PAIRS),
    "b10": ("two-factor", 10, 0.01, 5000, 5,
            {"seeds": [0], "test_n": 4500,
             "train": {"epochs": 2, "batch_size": 64, "hidden": [64, 64]}},
            [("biased-confidence", "LW"), ("pgd", "WS"), ("lff", "LW")]),
    "g6": ("colored-glyphs", 6, 0.05, 300, 6,
           {"seeds": [0], "train": {"epochs": 2, "batch_size": 64, "hidden": [16]}},
           [("vcae", "LW"), ("oracle-ub", "LW"), ("oracle-ub", "TBA")]),
    "l10": ("two-factor", 10, 0.01, 2000, 13,
            {"seeds": [0], "test_n": 4500,
             "train": {"epochs": 2, "batch_size": 64, "hidden": [64, 64]}},
            [("lff", "LW")]),
    "gw": ("colored-glyphs", 10, 0.05, 720, 12,
           {"seeds": [0], "train": {"epochs": 2, "batch_size": 128, "hidden": [64]},
            "vcae": {"num_classes": 10, "hidden": [32]}},
           [("vcae", "LW"), ("biased-confidence", "WS"), ("lff", "LW")]),
    "s4": ("two-factor", 4, 0.049, 800, 7,
           {"train": {"epochs": 2, "batch_size": 64, "hidden": [16], "optimizer": "sgd",
                      "lr": 0.05, "momentum": 0.9, "weight_decay": 1e-4, "shuffle": False}},
           [("lff", "LW"), ("biased-confidence", "ALW")]),
    "w4": ("two-factor", 4, 0.049, 800, 8,
           {"train": {"epochs": 2, "batch_size": 64, "hidden": [16], "weight_decay": 1e-4}},
           [("lff", "LW")]),
    "h4": ("two-factor", 4, 0.1, 300, 11,
           {"seeds": [0], "test_n": 200,
            "train": {"epochs": 1, "batch_size": 32, "hidden": [3000]}},
           [("biased-confidence", "LW")]),
    "p4": ("two-factor", 4, 0.049, 800, 14,
           {"seeds": [0], "train": {"epochs": 2, "batch_size": 64, "hidden": []}},
           [("pgd", "WS")]),
    "v6": ("colored-glyphs", 6, 0.05, 300, 15,
           {"seeds": [0], "train": {"epochs": 2, "batch_size": 64, "hidden": [16]},
            "vcae": {"num_classes": 6, "hidden": [16, 8]}},
           [("vcae", "LW")]),
}

# name: (dataset section, run config overrides, scheme/method pair); each run
# generates its data from the section
INLINE = {
    "i4": ({"num_classes": 4, "n": 400, "bc_ratio": 0.05, "seed": 9}, {},
           ("biased-confidence", "LW")),
    "ig3": ({"num_classes": 3, "n": 120, "bc_ratio": 0.1, "seed": 10,
             "kind": "colored-glyphs"},
            {"seeds": [0], "test_n": 60, "train": {"epochs": 1, "batch_size": 64, "hidden": []},
             "vcae": {"num_classes": 3, "hidden": []}},
            ("vcae", "LW")),
}


def run_config(classes: int, overrides: dict) -> dict:
    return {"schema_version": 1, "test_n": 300, "gamma": 50.0, "t_bias": 2,
            "anneal": {"t_anneal": 5}, "seeds": [0, 1],
            "train": {"epochs": 2, "batch_size": 64, "hidden": [16]},
            "vcae": {"num_classes": classes, "hidden": [16]}, **overrides}


def jobs() -> list[list[str]]:
    out = []
    for data, (kind, c, rho, n, seed, _, pairs) in DATASETS.items():
        out.append(["generate", "--kind", kind, "--classes", str(c), "--rho", str(rho),
                    "--n", str(n), "--seed", str(seed), "--out", data])
        out += [["debias", "--config", f"{data}.json", "--scheme", s, "--method", m,
                 "--out", f"runs/{data}/{s}-{m}"] for s, m in pairs]
    bc = ["--scheme", "biased-confidence", "--method", "LW"]
    return out + [
        ["sweep", "--config", "d10.json", *bc, "--gamma", "20,200", "--out", "sweep-gamma"],
        ["sweep", "--config", "d4.json", *bc, "--t-bias", "1,2", "--jobs", "2",
         "--out", "sweep-t-bias"],
        ["vcae", "--data", "d4", "--epochs", "2", "--hidden", "16", "--seed", "0",
         "--out", "vcae"],
        ["train-biased", "--data", "d10", "--t-bias", "2", "--out", "amplified"],
        ["oracle-check", "--seed", "0", "--out", "oracle"],
        ["report", "--out", "runs/d4/oracle-ub-LW"]] + [
        ["debias", "--config", f"{name}.json", "--scheme", s, "--method", m,
         "--out", f"runs/{name}/{s}-{m}"] for name, (_, _, (s, m)) in INLINE.items()]


def digest(work: Path, src: Path) -> list[str]:
    """Run the job list in ``work`` against the package in ``src``; one
    ``sha256  path`` line per output file, then one per job's stdout."""
    work.mkdir(parents=True, exist_ok=True)
    if any(work.iterdir()):
        sys.exit(f"{work} is not empty")
    configs = {data: run_config(c, {"dataset_path": data, **overrides})
               for data, (_, c, _, _, _, overrides, _) in DATASETS.items()}
    configs |= {name: run_config(section["num_classes"], {"dataset": section, **overrides})
                for name, (section, overrides, _) in INLINE.items()}
    for name, config in configs.items():
        (work / f"{name}.json").write_text(json.dumps(config) + "\n")
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    printed, paths = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for k, argv in enumerate(jobs()):
            record = Path(tmp) / f"{k:02d}"
            stdout = subprocess.run([sys.executable, str(ROOT / "scripts" / "block_recorder.py"),
                                     str(record), *argv], cwd=work, env=env,
                                    stdout=subprocess.PIPE, check=True).stdout
            printed.append(f"{hashlib.sha256(stdout).hexdigest()}  stdout/{k:02d}-{argv[0]}")
            parts = (sorted(set(record.read_text().split()),  # by rows, then block sizes
                            key=lambda p: [int(x) for x in p.replace("+", "=").split("=")])
                     if record.exists() else ["-"])
            paths.append(f"paths/{k:02d}-{argv[0]}  " + "  ".join(parts))
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{path.relative_to(work).as_posix()}"
            for path in sorted(p for p in work.rglob("*") if p.is_file())
            if path.name != "timings.json"] + printed + paths


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workdir", type=Path)
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--rev", help="git revision whose src/ to compare against")
    args = ap.parse_args()
    if args.rev is None:
        print(*digest(args.workdir, args.src), sep="\n")
        return 0
    archive = subprocess.run(["git", "archive", args.rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        tarfile.open(fileobj=io.BytesIO(archive)).extractall(tmp, filter="data")
        old = digest(args.workdir / "rev", Path(tmp) / "src")
    new = digest(args.workdir / "tree", args.src)
    diff = list(difflib.unified_diff(old, new, args.rev, "tree", lineterm=""))
    if diff:
        print(*diff, sep="\n")
        return 1
    print(f"byte-identical: {len(new)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
