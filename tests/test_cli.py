import csv
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from debiaskit.cli import main
from debiaskit.data import LabeledDataset, load_dataset, save_dataset


def _gen(tmp_path, name="data", n=400, rho=0.1, classes=4, seed=5,
         kind="two-factor"):
    out = tmp_path / name
    rc = main(["generate", "--kind", kind, "--classes", str(classes),
               "--n", str(n), "--rho", str(rho), "--seed", str(seed),
               "--out", str(out)])
    assert rc == 0
    return out


def test_generate_and_reload(tmp_path):
    out = _gen(tmp_path)
    ds = load_dataset(out)
    assert len(ds) == 400 and ds.num_classes == 4


def test_generate_deterministic(tmp_path):
    a = _gen(tmp_path, "a")
    b = _gen(tmp_path, "b")
    assert (a / "data.f64le").read_bytes() == (b / "data.f64le").read_bytes()


def test_generate_invalid_rho_fails(tmp_path):
    rc = main(["generate", "--rho", "1.5", "--out", str(tmp_path / "x")])
    assert rc == 1


def test_train_biased_artifact(tmp_path):
    data = _gen(tmp_path)
    out = tmp_path / "artifact"
    rc = main(["train-biased", "--data", str(data), "--t-bias", "1",
               "--out", str(out)])
    assert rc == 0
    assert (out / "confidences.f64le").exists()
    assert (out / "class_probs.f64le").exists()
    meta = json.loads((out / "model.json").read_text())
    assert meta["t_bias"] == 1 and meta["tau"] == 0.7
    conf = np.frombuffer((out / "confidences.f64le").read_bytes(), dtype="<f8")
    assert len(conf) == 400 and conf.min() > 0


def _debias_config(tmp_path, data, **over):
    cfg = {
        "schema_version": 1,
        "scheme": "oracle-ub",
        "method": "LW",
        "dataset_path": str(data),
        "test_n": 300,
        "train": {"epochs": 2, "batch_size": 64, "hidden": [16]},
        "out_dir": str(tmp_path / "run"),
        "seeds": [0],
    }
    cfg.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_debias_from_config(tmp_path):
    data = _gen(tmp_path)
    cfg = _debias_config(tmp_path, data)
    rc = main(["debias", "--config", str(cfg)])
    assert rc == 0
    assert (tmp_path / "run" / "metrics.csv").exists()
    assert (tmp_path / "run" / "summary.json").exists()


def test_debias_flag_overrides(tmp_path):
    data = _gen(tmp_path)
    cfg = _debias_config(tmp_path, data)
    out = tmp_path / "override"
    rc = main(["debias", "--config", str(cfg), "--scheme", "biased-confidence",
               "--gamma", "20", "--t-bias", "1", "--out", str(out),
               "--seed", "3"])
    assert rc == 0
    saved = json.loads((out / "config.json").read_text())
    assert saved["scheme"] == "biased-confidence"
    assert saved["gamma"] == 20.0
    assert saved["seeds"] == [3]


def test_debias_byte_identical_reruns(tmp_path):
    data = _gen(tmp_path)
    cfg = _debias_config(tmp_path, data)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["debias", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_debias_unknown_config_key_fails(tmp_path):
    data = _gen(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "dataset_path": str(data),
                               "what_is_this": 1}))
    assert main(["debias", "--config", str(bad)]) == 1


@pytest.mark.parametrize("over", [{"out_dir": None}, {"seeds": [0, "1"]},
                                  {"test_n": "300"}, {"tau": "high"}])
def test_debias_bad_field_type_fails_with_a_message(tmp_path, capsys, over):
    data = _gen(tmp_path)
    cfg = _debias_config(tmp_path, data, **over)
    assert main(["debias", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("over", [{"scheme": "bogus"}, {"scheme": "lff", "method": "WS"}])
def test_bad_scheme_or_method_fails_before_any_output(tmp_path, capsys, over):
    data = _gen(tmp_path)
    cfg = _debias_config(tmp_path, data, **over)
    out = tmp_path / "o"
    assert main(["debias", "--config", str(cfg), "--out", str(out)]) == 1
    assert main(["sweep", "--config", str(cfg), "--gamma", "20,50",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() and not (tmp_path / "run").exists()


def test_oracle_check(tmp_path, capsys):
    rc = main(["oracle-check", "--seed", "0", "--out", str(tmp_path / "oc")])
    assert rc == 0
    report = json.loads((tmp_path / "oc" / "oracle_report.json").read_text())
    assert report["all_pass"]
    capsys.readouterr()


def test_vcae_command(tmp_path):
    data = _gen(tmp_path, kind="colored-glyphs", classes=6, n=300, rho=0.1)
    out = tmp_path / "vc"
    rc = main(["vcae", "--data", str(data), "--out", str(out), "--seed", "1",
               "--epochs", "2", "--hidden", "16"])
    assert rc == 0
    latents = (out / "latents.csv").read_text().splitlines()
    assert latents[0].startswith("index,z_0,z_1,label,aligned,p_y_given_z,weight")
    assert len(latents) == 301
    assert (out / "weights.csv").exists()
    assert (out / "vcae_history.csv").exists()


@pytest.mark.parametrize("flags", [["--dim-z", "0"], ["--lambda0", "nan"]])
def test_vcae_bad_flags_fail_with_a_message(tmp_path, capsys, flags):
    data = _gen(tmp_path, n=60)
    rc = main(["vcae", "--data", str(data), "--out", str(tmp_path / "vc"), *flags])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_training_divergence_fails_with_a_message(tmp_path, capsys):
    """Rows 8-11 overflow the VCAE reconstruction term; one batch of 12 rows
    holds them, so the first step diverges."""
    x = np.random.default_rng(1).normal(size=(12, 3))
    x[8:] *= 1e160
    save_dataset(LabeledDataset(x, np.arange(12) % 2, num_classes=2), tmp_path / "d")
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["vcae", "--data", str(tmp_path / "d"), "--out", str(tmp_path / "vc"),
                   "--epochs", "1", "--hidden", "4", "--dim-z", "1"])
    assert rc == 1
    assert re.match(r"error: non-finite loss (nan|inf) at epoch 0 step 0$",
                    capsys.readouterr().err)


def test_vcae_deterministic(tmp_path):
    data = _gen(tmp_path, kind="colored-glyphs", classes=6, n=200, rho=0.1)
    dumps = []
    for name in ("v1", "v2"):
        out = tmp_path / name
        assert main(["vcae", "--data", str(data), "--out", str(out),
                     "--seed", "1", "--epochs", "2", "--hidden", "8"]) == 0
        dumps.append((out / "latents.csv").read_bytes())
    assert dumps[0] == dumps[1]


def test_vcae_latents_are_plain_numbers(tmp_path):
    data = _gen(tmp_path, kind="colored-glyphs", classes=6, n=200, rho=0.1)
    out = tmp_path / "vc"
    assert main(["vcae", "--data", str(data), "--out", str(out), "--seed", "1",
                 "--epochs", "1", "--hidden", "8"]) == 0
    with (out / "latents.csv").open() as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 200
    for row in rows:
        for cell in (row[0], row[3], row[4]):  # index, label, aligned
            int(cell)
        for cell in (*row[1:3], *row[5:]):
            assert math.isfinite(float(cell)), row


def test_sweep_command(tmp_path):
    data = _gen(tmp_path)
    cfg = _debias_config(tmp_path, data, scheme="biased-confidence",
                         gamma=20.0, t_bias=1)
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", str(cfg), "--gamma", "10,20",
               "--out", str(out), "--jobs", "1"])
    assert rc == 0
    assert (out / "sweep.csv").exists()
    assert (out / "gamma=10" / "metrics.csv").exists()


def test_sweep_requires_exactly_one_axis(tmp_path):
    data = _gen(tmp_path)
    cfg = _debias_config(tmp_path, data)
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert main(["sweep", "--config", str(cfg), "--gamma", "10",
                 "--t-bias", "1,2"]) == 1


def test_sweep_gamma_axis_with_fixed_t_bias(tmp_path):
    data = _gen(tmp_path)
    cfg = _debias_config(tmp_path, data, scheme="biased-confidence")
    out = tmp_path / "sw"
    rc = main(["sweep", "--config", str(cfg), "--gamma", "10,20",
               "--t-bias", "1", "--out", str(out)])
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert {line.split(",")[0] for line in lines[1:]} == {"gamma"}
    for point in ("gamma=10", "gamma=20"):
        saved = json.loads((out / point / "config.json").read_text())
        assert saved["t_bias"] == 1


@pytest.mark.parametrize("flags", [["--t-bias", "1.5,2"],
                                   ["--gamma", "10", "--t-bias", "1.0"]])
def test_sweep_rejects_non_integer_t_bias(tmp_path, capsys, flags):
    data = _gen(tmp_path)
    cfg = _debias_config(tmp_path, data, scheme="biased-confidence")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), *flags,
                 "--out", str(out)]) == 1
    assert "--t-bias" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("values", ["5,0", "0"])
def test_sweep_checks_every_point_before_running_any(tmp_path, capsys, values):
    data = _gen(tmp_path)
    cfg = _debias_config(tmp_path, data, scheme="biased-confidence")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--t-bias", values,
                 "--out", str(out)]) == 1
    assert "t_bias" in capsys.readouterr().err
    assert not list(out.glob("t_bias=*"))


def test_report_command(tmp_path, capsys):
    data = _gen(tmp_path)
    cfg = _debias_config(tmp_path, data)
    assert main(["debias", "--config", str(cfg)]) == 0
    rc = main(["report", "--out", str(tmp_path / "run")])
    assert rc == 0
    recomputed = json.loads((tmp_path / "run" / "summary_recomputed.json").read_text())
    original = json.loads((tmp_path / "run" / "summary.json").read_text())
    for k, v in original["metrics"].items():
        assert abs(v["mean"] - recomputed["metrics"][k]["mean"]) < 1e-12
    capsys.readouterr()


def test_report_missing_dir_fails(tmp_path):
    assert main(["report", "--out", str(tmp_path / "nope")]) == 1


def test_production_paths_leave_autodiff_unimported():
    """The CLI, a VCAE/LW pipeline and the causal oracle run without the
    tape: ``debiaskit.autodiff`` is the tests' oracle only."""
    import debiaskit
    script = """
import sys
import debiaskit.cli
from debiaskit.causal import oracle_report
from debiaskit.classifier import TrainConfig
from debiaskit.data import GenConfig, generate, unbiased_config
from debiaskit.debias import run_debias_pipeline
from debiaskit.vcae import VcaeConfig
gen = GenConfig(num_classes=3, n=150, bc_ratio=0.1, seed=1)
tc = TrainConfig(epochs=1, batch_size=50, seed=0, hidden=(8,))
run_debias_pipeline(generate(gen), generate(unbiased_config(gen, 60, 2)), "vcae", "LW",
                    train_cfg=tc, vcae_cfg=VcaeConfig(num_classes=3, hidden=(6,)),
                    vcae_train_cfg=tc)
assert oracle_report(n_bound=3, n_backdoor=3, n_equiv=3)["all_pass"]
print(sorted(m for m in sys.modules if m.startswith("debiaskit")))
"""
    src = str(Path(debiaskit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env={"PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.strip()
    assert "debiaskit.vcae" in loaded and "debiaskit.causal" in loaded
    assert "debiaskit.autodiff" not in loaded
