"""The BLAS thread policy: the rule, the restored count, the recorded
policy and identical outputs whatever count a run inherits."""

import json
from pathlib import Path

import numpy as np
import pytest

from debiaskit import blas, classifier, debias, vcae
from debiaskit.classifier import TrainConfig, TrainingDiverged, train
from debiaskit.data import GenConfig, LabeledDataset, generate
from debiaskit.debias import run_debias_pipeline
from debiaskit.runner import RunConfig, run_experiment
from debiaskit.vcae import VcaeConfig, train_vcae

needs_openblas = pytest.mark.skipif(blas.threads() is None,
                                    reason="no OpenBLAS thread functions in numpy.libs")

# a batch of 64 rows through a hidden layer this wide is above the crossover
WIDE = blas.CROSSOVER // 64 + 1


@pytest.fixture
def inherit():
    """``inherit(n)`` sets the thread count a call inherits (skips the test
    when OpenBLAS cannot run n threads); the count is restored afterwards."""
    before = blas.threads()

    def set_count(n):
        blas.set_threads(n)
        if blas.threads() != n:
            pytest.skip(f"OpenBLAS cannot run {n} threads here")

    yield set_count
    blas.set_threads(before)


def _two_factor(n=128, seed=3):
    return generate(GenConfig(num_classes=4, n=n, bc_ratio=0.1, seed=seed))


def _record_threads(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that notes the thread count of
    every call; returns the list of counts."""
    seen = []
    fn = getattr(module, name)

    def wrapped(*args, **kwargs):
        seen.append(blas.threads())
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return seen


def test_threads_for_rule():
    assert blas.threads_for(128, [20, 64, 64], 2) == 1
    assert blas.threads_for(512, [20, 64, 64], 2) == 1
    assert blas.threads_for(128, [768, 64], 2) == 2  # the glyphs step
    assert blas.threads_for(1, [blas.CROSSOVER], 4) == 1  # at the crossover
    assert blas.threads_for(1, [blas.CROSSOVER + 1], 4) == 4
    assert blas.threads_for(512, [768, 64], 2) == 2
    assert blas.threads_for(512, [768, 64], 1) == 1  # never above the inherited


def test_limit_without_openblas_changes_nothing(monkeypatch):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    assert blas.threads() is None
    blas.set_threads(1)
    with blas.limit(128, [20]) as policy:
        assert policy is None


@needs_openblas
def test_small_step_runs_one_thread_and_wide_step_the_inherited(monkeypatch, inherit):
    inherit(2)
    seen = _record_threads(monkeypatch, classifier, "mlp_loss_forward")
    ds = _two_factor(n=64)
    train(ds, TrainConfig(epochs=1, batch_size=64, hidden=(16,)))
    train(ds, TrainConfig(epochs=1, batch_size=64, hidden=(WIDE,)))
    assert seen == [1, 2]
    assert blas.threads() == 2


@needs_openblas
def test_vcae_step_runs_one_thread(monkeypatch, inherit):
    inherit(2)
    seen = _record_threads(monkeypatch, vcae, "vcae_loss_and_grads")
    ds = _two_factor(n=64)
    train_vcae(ds, VcaeConfig(num_classes=4, hidden=(8,)),
               TrainConfig(epochs=1, batch_size=64))
    assert seen == [1] and blas.threads() == 2


@needs_openblas
def test_pipeline_evaluates_and_amplifies_under_its_policy(monkeypatch, inherit):
    """The per-epoch evaluation and the amplified classifier's full-data
    pass run inside the pipeline's limit, not only the training steps."""
    inherit(2)
    seen = _record_threads(monkeypatch, debias, "evaluate_accuracy")
    seen_fwd = _record_threads(monkeypatch, debias, "mlp_forward")
    train_ds, test_ds = _two_factor(), _two_factor(n=100, seed=4)
    cfg = TrainConfig(epochs=2, batch_size=64, hidden=(16,), seed=11)
    result = run_debias_pipeline(train_ds, test_ds, "biased-confidence", "LW",
                                 train_cfg=cfg, gamma=20.0, t_bias=1)
    assert seen == [1, 1] and seen_fwd == [1]
    assert result.blas_threads == {"inherited": 2, "training": 1}
    assert blas.threads() == 2


@needs_openblas
def test_count_restored_after_divergence(monkeypatch, inherit):
    inherit(2)
    ds = _two_factor(n=64)

    def diverge(*args, **kwargs):
        raise TrainingDiverged("evaluation diverged")

    with pytest.raises(TrainingDiverged):
        train(ds, TrainConfig(epochs=1, batch_size=64, hidden=(16,)), eval_fn=diverge)
    assert blas.threads() == 2
    x = np.random.default_rng(1).normal(size=(12, 3))
    x[8:] *= 1e160  # overflows the reconstruction term on the first step
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged):
        train_vcae(LabeledDataset(x, np.arange(12) % 2, num_classes=2),
                   VcaeConfig(num_classes=2, dim_z=1, hidden=(4,)),
                   TrainConfig(epochs=1, hidden=(4,)))
    assert blas.threads() == 2
    monkeypatch.setattr(debias, "evaluate_accuracy", diverge)
    with pytest.raises(TrainingDiverged):
        run_debias_pipeline(ds, ds, "vanilla", "LW",
                            train_cfg=TrainConfig(epochs=1, batch_size=64, hidden=(16,)))
    assert blas.threads() == 2


def _run_bytes(tmp_path, name, batch_size, hidden):
    cfg = RunConfig.from_dict({
        "schema_version": 1, "scheme": "biased-confidence", "method": "LW",
        "dataset": {"num_classes": 4, "n": 300, "bc_ratio": 0.1, "seed": 5},
        "test_n": 200, "gamma": 20.0, "t_bias": 1,
        "train": {"epochs": 2, "batch_size": batch_size, "hidden": hidden},
        "out_dir": str(tmp_path / name), "seeds": [0]})
    run_experiment(cfg)
    out = Path(cfg.out_dir)
    timings = json.loads((out / "timings.json").read_text())
    files = ("metrics.csv", "weights_seed0.csv", "checkpoint_seed0/params.f64le")
    return [(out / f).read_bytes() for f in files], timings["blas_threads"]


@needs_openblas
def test_outputs_identical_from_one_or_two_inherited_threads(tmp_path, inherit,
                                                             monkeypatch):
    """Through a hidden layer of 3000, OpenBLAS's sums depend on its thread
    count: run at the count each inherits, the two runs write other bytes.
    With the crossover at 32 x 3000, both train on one thread."""
    monkeypatch.setattr(blas, "CROSSOVER", 32 * 3000)
    inherit(1)
    one, policy_one = _run_bytes(tmp_path, "one", 32, [3000])
    inherit(2)
    two, policy_two = _run_bytes(tmp_path, "two", 32, [3000])
    assert one == two
    assert policy_one == {"inherited": 1, "training": 1}
    assert policy_two == {"inherited": 2, "training": 1}
    assert blas.threads() == 2


@needs_openblas
def test_timings_record_the_inherited_count_above_the_crossover(tmp_path, inherit):
    inherit(2)
    _, policy = _run_bytes(tmp_path, "wide", 32, [blas.CROSSOVER // 32 + 1])
    assert policy == {"inherited": 2, "training": 2}


def test_timings_record_no_policy_without_openblas(tmp_path, monkeypatch):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    _, policy = _run_bytes(tmp_path, "none", 32, [16])
    assert policy is None
