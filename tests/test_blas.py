"""The BLAS thread policy: one thread inside training, the restored count,
identical outputs whatever count a run inherits, and no thread started."""

import subprocess
import sys
import threading
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from debiaskit import blas, classifier, cli, debias, vcae
from debiaskit.classifier import GradientError, TrainConfig, TrainingDiverged, train
from debiaskit.data import GenConfig, LabeledDataset, generate, unbiased_config
from debiaskit.debias import run_debias_pipeline
from debiaskit.runner import RunConfig, run_experiment
from debiaskit.vcae import VcaeConfig, train_vcae

needs_openblas = pytest.mark.skipif(blas.threads() is None,
                                    reason="no OpenBLAS thread functions in numpy.libs")

# the glyph workload's models: batch 128 over 208 rows, so every epoch also
# takes an 80-row step
GLYPH_CFG = TrainConfig(epochs=2, batch_size=128, hidden=(64, 64), seed=5)
VCAE_CFG = VcaeConfig(num_classes=10, hidden=(32,))


@pytest.fixture(scope="module")
def glyphs():
    gen = GenConfig(num_classes=10, n=208, bc_ratio=0.05, seed=21, kind="colored-glyphs")
    return generate(gen), generate(unbiased_config(gen, n=60, seed=22))


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


def test_limit_without_openblas_changes_nothing(monkeypatch):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    assert blas.threads() is None
    blas.set_threads(1)
    with blas.limit():
        assert blas.threads() is None


@needs_openblas
def test_small_and_wide_steps_run_one_thread(monkeypatch, inherit):
    inherit(2)
    seen = _record_threads(monkeypatch, classifier, "mlp_loss_forward")
    ds = _two_factor(n=64)
    train(ds, TrainConfig(epochs=1, batch_size=64, hidden=(16,)))
    # a width at which OpenBLAS's sums depend on its thread count
    train(ds, TrainConfig(epochs=1, batch_size=64, hidden=(3000,)))
    assert seen == [1, 1]
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
    """Every forward pass of the pipeline runs at one thread, seen at each
    ``forward_block``: over n=128 rows at batch 64, the amplifier's 2 steps
    (t_bias 1 epoch), its full-data pass (one block), the classifier's 2 x 2
    steps (2 epochs) and its 2 evaluations (one block each)."""
    inherit(2)
    seen, forward_block = [], classifier.forward_block

    def block(*args):
        seen.append(blas.threads())
        return forward_block(*args)

    monkeypatch.setattr(classifier, "forward_block", block)
    train_ds, test_ds = _two_factor(), _two_factor(n=100, seed=4)
    cfg = TrainConfig(epochs=2, batch_size=64, hidden=(16,), seed=11)
    run_debias_pipeline(train_ds, test_ds, "biased-confidence", "LW",
                        train_cfg=cfg, gamma=20.0, t_bias=1)
    assert seen == [1] * (2 + 1 + 2 * 2 + 2)
    assert blas.threads() == 2


class _BlockFailed(Exception):
    pass


@needs_openblas
@pytest.mark.parametrize("b_raises", [False, True])
def test_blocks_on_two_threads_share_one_count(inherit, b_raises):
    """Thread B opens a block inside the main thread's and closes it after
    the main thread's has closed: one thread until B's closes, also when it
    raises, then the count in force before the first opened."""
    inherit(2)
    b_open, a_closed, seen = threading.Event(), threading.Event(), []

    def thread_b():
        try:
            with blas.limit():
                b_open.set()
                assert a_closed.wait(30)
                seen.append(blas.threads())
                if b_raises:
                    raise _BlockFailed
        except _BlockFailed:
            seen.append("raised")
        seen.append(blas.threads())

    b = threading.Thread(target=thread_b)
    with blas.limit():
        b.start()
        assert b_open.wait(30)
        seen.append(blas.threads())
    seen.append(blas.threads())
    a_closed.set()
    b.join(30)
    assert not b.is_alive()
    assert seen == [1, 1, 1, *(["raised"] if b_raises else []), 2]


@needs_openblas
def test_many_threads_opening_blocks_lose_no_count(inherit):
    """Four threads (more than the cores) open and close blocks with
    frequent switches: one thread inside every block, and the inherited
    count once all have closed, which a lost update of the open count
    would break."""
    inherit(2)
    outside, start = [], threading.Barrier(4)

    def opener():
        start.wait(30)
        for _ in range(500):
            with blas.limit():
                if blas.threads() != 1:
                    outside.append(blas.threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=opener) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert outside == [] and blas._open == 0 and blas.threads() == 2


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


def _run_bytes(tmp_path, name, batch_size, hidden, monkeypatch):
    # a fresh memo: each run amplifies at the count it inherits
    monkeypatch.setattr(debias, "_amplify_memo", OrderedDict())
    cfg = RunConfig.from_dict({
        "schema_version": 1, "scheme": "biased-confidence", "method": "LW",
        "dataset": {"num_classes": 4, "n": 300, "bc_ratio": 0.1, "seed": 5},
        "test_n": 200, "gamma": 20.0, "t_bias": 1,
        "train": {"epochs": 2, "batch_size": batch_size, "hidden": hidden},
        "out_dir": str(tmp_path / name), "seeds": [0]})
    run_experiment(cfg)
    out = Path(cfg.out_dir)
    files = ("metrics.csv", "weights_seed0.csv", "checkpoint_seed0/params.f64le")
    return [(out / f).read_bytes() for f in files]


@needs_openblas
def test_outputs_identical_from_one_or_two_inherited_threads(tmp_path, inherit,
                                                             monkeypatch):
    """Through a hidden layer of 3000, OpenBLAS's sums depend on its thread
    count: run at the count each inherits, the two runs would write other
    bytes. Both train on one thread."""
    inherit(1)
    one = _run_bytes(tmp_path, "one", 32, [3000], monkeypatch)
    inherit(2)
    two = _run_bytes(tmp_path, "two", 32, [3000], monkeypatch)
    assert one == two
    assert blas.threads() == 2


@needs_openblas
def test_vcae_command_writes_the_same_bytes_from_one_or_two_inherited_threads(tmp_path,
                                                                               inherit):
    """The latent pass after training runs the hidden layer of 3000 too."""
    data = str(tmp_path / "data")
    assert cli.main(["generate", "--kind", "colored-glyphs", "--classes", "4", "--n", "300",
                     "--rho", "0.1", "--seed", "3", "--out", data]) == 0
    out = []
    for n in (1, 2):
        inherit(n)
        assert cli.main(["vcae", "--data", data, "--out", str(tmp_path / str(n)),
                         "--seed", "0", "--hidden", "3000", "--batch-size", "32",
                         "--epochs", "1"]) == 0
        out.append([(tmp_path / str(n) / f).read_bytes()
                    for f in ("latents.csv", "weights.csv")])
    assert out[0] == out[1]
    assert blas.threads() == 2


def test_wide_steps_start_no_thread(glyphs, monkeypatch):
    """Every step of a 768-wide classifier and VCAE, and of two pipelines
    that evaluate each epoch, runs with the threads that were alive before
    the call: products, updates and evaluations run whole."""
    before, seen = threading.active_count(), []
    for module in (classifier, vcae):
        def counting(*args, check=module.check_finite_gradient):
            seen.append(threading.active_count())
            return check(*args)

        monkeypatch.setattr(module, "check_finite_gradient", counting)
    train(glyphs[0], GLYPH_CFG)
    train_vcae(glyphs[0], VCAE_CFG, GLYPH_CFG)
    run_debias_pipeline(*glyphs, "vanilla", "LW", train_cfg=GLYPH_CFG)
    run_debias_pipeline(*glyphs, "lff", "LW", train_cfg=GLYPH_CFG)
    # 2 epochs of 2 steps: the classifier, the VCAE, vanilla's theta, LfF's theta and psi
    assert len(seen) == 5 * 2 * 2 and set(seen) == {before}


def test_no_thread_outlives_a_wide_run(glyphs):
    before = threading.active_count()
    train(glyphs[0], GLYPH_CFG)
    train_vcae(glyphs[0], VCAE_CFG, replace(GLYPH_CFG, epochs=1))
    run_debias_pipeline(*glyphs, "vanilla", "LW", train_cfg=GLYPH_CFG)
    assert threading.active_count() == before


@pytest.mark.parametrize("error", [TrainingDiverged, GradientError])
def test_no_thread_outlives_an_error_mid_epoch(error, glyphs, monkeypatch):
    """Raised in the second step of the classifier and of the VCAE."""
    before = threading.active_count()
    for module in (classifier, vcae):
        calls, check = [], module.check_finite_gradient

        def failing(*args):
            calls.append(None)
            if len(calls) == 2:
                raise error("stop")
            return check(*args)

        with monkeypatch.context() as m:
            m.setattr(module, "check_finite_gradient", failing)
            with pytest.raises(error, match="^stop"):
                if module is classifier:
                    train(glyphs[0], GLYPH_CFG)
                else:
                    train_vcae(glyphs[0], VCAE_CFG, GLYPH_CFG)
        assert threading.active_count() == before


def test_serial_sweep_on_glyphs_leaves_the_pool_unimported(tmp_path):
    """A ``--jobs 1`` sweep of wide steps starts no thread and imports no
    ``concurrent.futures``."""
    import debiaskit
    script = """
import json, sys, threading
from debiaskit.cli import main
names, start = [], threading.Thread.start
def noting(self):
    names.append(self.name)
    start(self)
threading.Thread.start = noting
assert main(["generate", "--kind", "colored-glyphs", "--classes", "3", "--n", "150",
             "--rho", "0.2", "--out", "d"]) == 0
with open("c.json", "w") as fh:
    json.dump({"schema_version": 1, "dataset_path": "d", "test_n": 60,
               "train": {"epochs": 1, "batch_size": 128, "hidden": [64]}}, fh)
assert main(["sweep", "--config", "c.json", "--scheme", "biased-confidence",
             "--gamma", "20", "--t-bias", "1", "--jobs", "1", "--out", "sw"]) == 0
print(names, "concurrent.futures" in sys.modules)
"""
    src = str(Path(debiaskit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={"PYTHONPATH": src}, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[] False"
