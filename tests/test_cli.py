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
from debiaskit.runner import METRICS_HEADER


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


def test_train_biased_zero_t_bias_names_t_bias(tmp_path, capsys):
    data = _gen(tmp_path, n=60)
    out = tmp_path / "artifact"
    assert main(["train-biased", "--data", str(data), "--t-bias", "0",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: t_bias must be >= 1\n"
    assert not out.exists()


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


@pytest.mark.parametrize("scheme,method", [("oracle-ub", "LW"), ("biased-confidence", "LW"),
                                           ("pgd", "WS"), ("vcae", "LW")])
def test_a_split_without_conflicting_rows_fails_before_training(tmp_path, capsys,
                                                               monkeypatch, scheme, method):
    """No amplifier, VCAE or classifier trains for beta to fail after."""
    from debiaskit import classifier, vcae
    data, out = tmp_path / "data", tmp_path / "o"
    assert main(["generate", "--n", "50", "--rho", "0.001", "--seed", "1",
                 "--out", str(data)]) == 0
    trained, flags = [], []
    if scheme == "vcae":  # a vcae run needs a config's vcae section, which no flag gives
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "dataset_path": str(data),
                                   "vcae": {"num_classes": load_dataset(data).num_classes}}))
        flags = ["--config", str(cfg)]
    for module in (classifier, vcae):
        monkeypatch.setattr(module, "run_epochs", lambda *args: trained.append(args))
    assert main(["debias", *flags, "--data", str(data), "--scheme", scheme,
                 "--method", method, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: the training split has 50 bias-aligned and 0 bias-conflicting rows; "
        "beta needs at least one of each\n")
    assert not out.exists() and trained == []


# each of these once crashed with a traceback, wrote output first or ran silently
_BAD_CONFIGS = [
    {"train": {"epochs": "2"}}, {"train": {"hidden": 16}}, {"train": {"lr": "0.01"}},
    {"train": {"weight_decay": "0"}}, {"train": {"batch_size": 32.5}},
    {"train": {"shuffle": 0}}, {"train": {"seed": "x"}}, {"dataset": {"n": "200"}},
    {"dataset": {"num_classes": 3.0}}, {"dataset": {"bc_ratio": "0.1"}},
    {"anneal": {"t_anneal": 1.5}}, {"anneal": {"w_init": "1"}},
    {"vcae": {"hidden": "64"}}, {"vcae": {"lambda0": "1"}}, [1, 2], {"dataset": [1, 2]},
    {"dataset": {"seed": -1}}, {"dataset": {"sigma_u": -1.0}}, {"dataset": {"sigma_b": -1}},
    {"train": {"hidden": [0]}}, {"vcae": {"hidden": [0]}}, {"train": {"lr": -1}},
    {"train": {"optimizer": "sgd", "momentum": -3}}, {"train": {"weight_decay": -1}},
    {"train": {"seed": 7}}, {"vcae": {"num_classes": 6}}, {"vcae": {"num_classes": 2}},
    {"scheme": "vcae"}]


@pytest.mark.parametrize("raw", _BAD_CONFIGS, ids=json.dumps)
def test_bad_config_fails_with_a_message_before_any_output(tmp_path, capsys, monkeypatch,
                                                          raw):
    """Before any dataset is generated or loaded, too."""
    from debiaskit import runner
    out, read = tmp_path / "run", []
    for fn in (runner.generate, runner.load_dataset):
        monkeypatch.setattr(runner, fn.__name__,
                            lambda *args, fn=fn: read.append(fn.__name__) or fn(*args))
    if isinstance(raw, dict):  # merged into a valid config, section by section
        base = {"schema_version": 1, "dataset": {"num_classes": 3, "n": 60},
                "test_n": 30, "train": {"epochs": 1, "hidden": [4]}, "out_dir": str(out)}
        if "vcae" in raw:
            base["scheme"] = "vcae"
        for key, section in raw.items():
            base[key] = {**base.get(key, {}), **section} if isinstance(section, dict) else section
        raw = base
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["debias", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() and read == []


# every float field of a run config: JSON has no NaN or inf, so config.json could not hold one
_FLOAT_FIELDS = [("dataset", "GenConfig", "bc_ratio"), ("dataset", "GenConfig", "sigma_u"),
                 ("dataset", "GenConfig", "sigma_b"), ("train", "TrainConfig", "lr"),
                 ("train", "TrainConfig", "momentum"), ("train", "TrainConfig", "weight_decay"),
                 ("anneal", "AnnealConfig", "w_init"), ("vcae", "VcaeConfig", "lambda0"),
                 ("vcae", "VcaeConfig", "lambda1"), ("vcae", "VcaeConfig", "lambda2"),
                 (None, "RunConfig", "gamma"), (None, "RunConfig", "tau")]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("section,cls,name", _FLOAT_FIELDS,
                         ids=[f"{c}.{n}" for _, c, n in _FLOAT_FIELDS])
def test_non_finite_config_float_fails_naming_the_field(tmp_path, capsys, section, cls,
                                                        name, value):
    out = tmp_path / "run"
    raw = {"schema_version": 1, "scheme": "vcae" if section == "vcae" else "oracle-ub",
           "dataset": {"num_classes": 3, "n": 60}, "test_n": 30,
           "train": {"epochs": 1, "hidden": [4]}, "out_dir": str(out)}
    if section is None:
        raw[name] = value
    else:
        raw[section] = {**raw.get(section, {}), name: value}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))  # NaN, Infinity and -Infinity tokens
    assert main(["debias", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cls}.{name} must be a finite float, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["debias", "--scheme", "oracle-ub", "--method", "LW", "--gamma", "inf"],
    ["debias", "--scheme", "biased-confidence", "--method", "LW", "--gamma", "inf"],
    ["debias", "--scheme", "oracle-yb", "--method", "TBA", "--gamma", "inf"],
    ["sweep", "--scheme", "biased-confidence", "--method", "LW", "--gamma", "20,inf"]])
def test_infinite_gamma_flag_fails_before_any_work(tmp_path, capsys, argv):
    data = _gen(tmp_path, n=60)
    cfg = _debias_config(tmp_path, data, t_bias=1)
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: RunConfig.gamma must be a finite float, got inf\n"
    assert not out.exists() and not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [["vcae", "--hidden", "0"],
                                  ["sweep", "--gamma", "20,50", "--jobs", "0"],
                                  ["sweep", "--gamma", "20,50", "--jobs", "-3"]])
def test_bad_flags_fail_with_a_message_before_any_output(tmp_path, capsys, argv):
    data = _gen(tmp_path, n=60)
    out = tmp_path / "out"
    assert main([*argv, "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_stored_dataset_without_feature_dim_fails_with_a_message(tmp_path, capsys):
    data = _gen(tmp_path)
    meta = json.loads((data / "meta.json").read_text())
    del meta["feature_dim"]
    (data / "meta.json").write_text(json.dumps(meta))
    out = tmp_path / "amp"
    cfg = str(_debias_config(tmp_path, data))
    assert main(["train-biased", "--data", str(data), "--out", str(out)]) == 1
    assert main(["debias", "--config", cfg]) == 1
    assert main(["sweep", "--config", cfg, "--scheme", "biased-confidence", "--method", "LW",
                 "--gamma", "20,50", "--out", str(tmp_path / "sweep")]) == 1
    expected = f"error: {data / 'meta.json'}: missing key(s) ['feature_dim']\n"
    assert capsys.readouterr().err == expected * 3
    for path in (out, tmp_path / "run", tmp_path / "sweep"):  # no output at all
        assert not path.exists()


@pytest.mark.parametrize("edit,message", [
    (lambda m: [1], "expected a JSON object, got list"),
    (lambda m: {**m, "n": "50"}, "n must be int, got '50'"),
    (lambda m: {**m, "feature_dim": 6.0}, "feature_dim must be int, got 6.0"),
    (lambda m: {**m, "num_classes": True}, "num_classes must be int, got True"),
    (lambda m: {**m, "columns": "features,labels"}, "columns must be list"),
    (lambda m: "{not json", "Expecting property name"),
    (lambda m: {**m, "gen": 5}, "gen must be a JSON object, got 5"),
    (lambda m: {**m, "gen": list(m["gen"])}, "gen must be a JSON object, got ['num_classes'"),
    (lambda m: {**m, "gen": None}, "gen must be a JSON object, got None"),
    (lambda m: {**m, "gen": {**m["gen"], "rho": 0.1}}, "gen: unknown key(s) ['rho']")],
    ids=["list", "n-str", "feature_dim-float", "num_classes-bool", "columns-str", "not-json",
         "gen-int", "gen-list", "gen-null", "gen-unknown-key"])
def test_malformed_meta_json_fails_with_a_message(tmp_path, capsys, edit, message):
    """``edit`` returns the new meta object, or the file's raw text."""
    data = _gen(tmp_path)
    meta = edit(json.loads((data / "meta.json").read_text()))
    (data / "meta.json").write_text(meta if isinstance(meta, str) else json.dumps(meta))
    out = tmp_path / "amp"
    assert main(["train-biased", "--data", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data / 'meta.json'}: {message}")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_a_path_of_the_wrong_kind_fails_with_a_message(tmp_path, capsys):
    """A directory where a file belongs, and a file where a directory belongs."""
    a_dir, a_file = tmp_path / "dir", tmp_path / "file"
    a_dir.mkdir()
    a_file.write_text("")
    for argv, named in [(["debias", "--config", str(a_dir), "--out", str(tmp_path / "run")],
                         a_dir),
                        (["train-biased", "--data", str(a_file), "--out", str(tmp_path / "amp")],
                         a_file / "meta.json"),
                        (["report", "--out", str(a_file)], a_file / "metrics.csv")]:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(named) in err, argv
        assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]


@pytest.mark.parametrize("command", ["train-biased", "vcae"])
@pytest.mark.parametrize("over", [{"n": 0}, {"n": -1}, {"feature_dim": 0},
                                  {"feature_dim": -2}, {"num_classes": 1}],
                         ids=lambda d: "{}={}".format(*next(iter(d.items()))))
def test_stored_dataset_with_a_bad_size_fails_before_reading_its_data(tmp_path, capsys,
                                                                      command, over):
    """The sizes in meta.json are checked against GenConfig's bounds before
    data.f64le is read: no ZeroDivisionError, no negative byte count."""
    data = _gen(tmp_path, n=60)
    meta = json.loads((data / "meta.json").read_text())
    (data / "meta.json").write_text(json.dumps({**meta, **over}))
    out = tmp_path / "out"
    assert main([command, "--data", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data / 'meta.json'}: need n >= 1, feature_dim >= 1 "
                          f"and num_classes >= 2, got ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_stored_label_outside_the_classes_fails_with_a_message(tmp_path, capsys):
    data = _gen(tmp_path, classes=3)
    raw = np.frombuffer((data / "data.f64le").read_bytes(), dtype="<f8").copy()
    raw[400 * 6] = 3.0  # the first label; 400 rows of 6 features come first
    (data / "data.f64le").write_bytes(raw.tobytes())
    cfg = _debias_config(tmp_path, data, scheme="oracle-yb")
    assert main(["debias", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {data}: labels must be integers in [0, 3)\n"


def test_empty_dataset_fails_before_any_output(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["generate", "--n", "0", "--out", str(data)]) == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schema_version": 1, "dataset": {"n": 0},
                               "out_dir": str(tmp_path / "run")}))
    assert main(["debias", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: n must be >= 1") for line in err)
    assert not data.exists() and not (tmp_path / "run").exists()


def test_unknown_optimizer_fails_before_any_output(tmp_path, capsys):
    data = _gen(tmp_path)
    cfg = _debias_config(tmp_path, data, train={"epochs": 2, "optimizer": "lbfgs"})
    assert main(["debias", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: optimizer must be one of")
    assert not (tmp_path / "run").exists()


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


def test_vcae_without_bias_labels_writes_empty_aligned_cells(tmp_path):
    """weights.csv shares the run's weights writer; a dataset without bias
    columns has no aligned flags, so that cell stays empty."""
    rng = np.random.default_rng(3)
    save_dataset(LabeledDataset(rng.normal(size=(40, 3)), np.arange(40) % 2, num_classes=2),
                 tmp_path / "d")
    out = tmp_path / "vc"
    assert main(["vcae", "--data", str(tmp_path / "d"), "--out", str(out), "--epochs", "1",
                 "--hidden", "4", "--dim-z", "1", "--seed", "0"]) == 0
    with (out / "latents.csv").open(newline="") as fh:
        latents = list(csv.DictReader(fh))
    assert {row["aligned"] for row in latents} == {""}
    expected = "index,weight,aligned,provenance\r\n" + "".join(
        f"{row['index']},{row['weight']},,vcae\r\n" for row in latents)
    assert (out / "weights.csv").read_bytes() == expected.encode()


@pytest.mark.parametrize("flags", [["--dim-z", "0"], ["--lambda0", "nan"]])
def test_vcae_bad_flags_fail_with_a_message(tmp_path, capsys, flags):
    data = _gen(tmp_path, n=60)
    rc = main(["vcae", "--data", str(data), "--out", str(tmp_path / "vc"), *flags])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("cap", ["0", "-1", "nan"])
def test_vcae_bad_cap_fails_before_any_work(tmp_path, capsys, cap):
    """The cap is checked before the dataset is read: the directory given
    as --data does not exist, and the error still names --cap."""
    out = tmp_path / "vc"
    rc = main(["vcae", "--data", str(tmp_path / "absent"), "--out", str(out),
               "--cap", cap])
    assert rc == 1
    assert capsys.readouterr().err == f"error: --cap must be > 0, got {float(cap)}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("values", ["50,abc", "50,"])
def test_sweep_names_gamma_on_a_list_it_cannot_parse(tmp_path, capsys, values):
    data = _gen(tmp_path)
    cfg = _debias_config(tmp_path, data, scheme="biased-confidence")
    out = tmp_path / "sw"
    capsys.readouterr()  # what generating the dataset printed
    assert main(["sweep", "--config", str(cfg), "--gamma", values,
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --gamma takes comma-separated numbers, got {values!r}\n"
    assert captured.out == "" and not out.exists()


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


def test_empty_test_subset_writes_null_and_prints_nan(tmp_path, capsys):
    """One test row leaves the aligned or the conflicting subset empty. Its
    accuracy has no mean, which summary.json and the report write as null
    (strict JSON has no NaN) and the debias line prints as nan."""
    data = _gen(tmp_path, n=200)
    cfg = _debias_config(tmp_path, data, test_n=1, seeds=[0, 1])
    assert main(["debias", "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out
    assert main(["report", "--out", str(tmp_path / "run")]) == 0
    assert "NaN" not in capsys.readouterr().out

    def reject(name):
        raise ValueError(f"not strict JSON: {name}")

    for name in ("summary.json", "summary_recomputed.json"):
        stats = json.loads((tmp_path / "run" / name).read_text(), parse_constant=reject)
        empty = [k for k in ("test_acc_ba", "test_acc_bc")
                 if stats["metrics"][k] == {"mean": None, "std": None}]
        assert empty and stats["metrics"]["test_acc"]["mean"] is not None
    assert re.search(r"(bc|ba)=nan", printed)


def test_report_missing_dir_fails(tmp_path):
    assert main(["report", "--out", str(tmp_path / "nope")]) == 1


def test_report_on_a_metrics_file_without_a_column_fails_with_a_message(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    header = [k for k in METRICS_HEADER if k != "beta"]
    rows = [",".join(header), ",".join(["1"] * len(header))]
    (run / "metrics.csv").write_text("\n".join(rows) + "\n")
    assert main(["report", "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {run / 'metrics.csv'}: header must be ")
    assert "Traceback" not in err and not (run / "summary_recomputed.json").exists()


@pytest.mark.parametrize("cells", [["0", "1"], ["1"] * (len(METRICS_HEADER) + 1)],
                         ids=["short", "long"])
def test_report_on_a_ragged_metrics_file_fails_naming_the_line(tmp_path, capsys, cells):
    run = tmp_path / "run"
    run.mkdir()
    full = ",".join(["1"] * len(METRICS_HEADER))
    rows = [",".join(METRICS_HEADER), full, ",".join(cells), full]
    (run / "metrics.csv").write_text("\n".join(rows) + "\n")
    assert main(["report", "--out", str(run)]) == 1
    assert capsys.readouterr().err == (f"error: {run / 'metrics.csv'}: line 3 has "
                                       f"{len(cells)} cells, the header {len(METRICS_HEADER)}\n")
    assert not (run / "summary_recomputed.json").exists()


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
assert oracle_report()["all_pass"]
print(sorted(m for m in sys.modules if m.startswith("debiaskit")))
"""
    src = str(Path(debiaskit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env={"PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.strip()
    assert "debiaskit.vcae" in loaded and "debiaskit.causal" in loaded
    assert "debiaskit.autodiff" not in loaded


def test_serial_sweep_leaves_the_pool_and_colorsys_unimported(tmp_path):
    """Importing the CLI and running a ``--jobs 1`` sweep on two-factor data
    loads neither the process pool (``concurrent.futures``, and through it
    ``multiprocessing``) nor ``colorsys``, which only glyph data needs."""
    import debiaskit
    script = """
import sys
from debiaskit.cli import main
assert main(["generate", "--classes", "3", "--n", "120", "--rho", "0.2", "--out", "d"]) == 0
assert main(["sweep", "--data", "d", "--scheme", "biased-confidence", "--gamma", "20,50",
             "--t-bias", "1", "--jobs", "1", "--out", "sw"]) == 0
print(sorted(m for m in ("concurrent.futures", "colorsys") if m in sys.modules))
"""
    src = str(Path(debiaskit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={"PYTHONPATH": src}, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "sw" / "sweep.csv").exists()
