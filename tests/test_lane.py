"""The lane of ``blas.halves``: which products and updates it splits, that
the halves write the bits of the whole, and that its thread starts only
where a step is wide, never outlives its block and hands errors back."""

import contextlib
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from debiaskit import blas, classifier, debias, vcae
from debiaskit.classifier import (BLOCK_MACS, GradientError, TrainConfig, TrainingDiverged,
                                  train)
from debiaskit.data import GenConfig, generate, unbiased_config
from debiaskit.debias import run_debias_pipeline
from debiaskit.optim import LANE_MIN_SIZE, Adam
from debiaskit.vcae import VcaeConfig, train_vcae

LANE = "debiaskit-lane"

# the glyph workload's models: batch 128 over 208 rows, so every epoch also
# takes an 80-row step
GLYPH_CFG = TrainConfig(epochs=2, batch_size=128, hidden=(64, 64), seed=5)
VCAE_CFG = VcaeConfig(num_classes=10, hidden=(32,))


@pytest.fixture(scope="module")
def glyphs():
    gen = GenConfig(num_classes=10, n=208, bc_ratio=0.05, seed=21, kind="colored-glyphs")
    return generate(gen), generate(unbiased_config(gen, n=60, seed=22))


def _inline(fn, first, second):
    fn(*first)
    fn(*second)


def _lane_names():
    return [t.name for t in threading.enumerate() if t.name == LANE]


def _record_products(monkeypatch):
    """Wrap ``blas.halves`` to note the (a, b) shapes and C-contiguity of
    every product it splits; returns the list."""
    seen, halves = [], blas.halves

    def recording(fn, first, second):
        if fn is np.matmul:
            (a0, b, _), (a1, _, _) = first, second
            seen.append(((len(a0) + len(a1), a0.shape[1]), b.shape,
                         a0.flags.c_contiguous, b.flags.c_contiguous))
        halves(fn, first, second)

    monkeypatch.setattr(blas, "halves", recording)
    return seen


# (a shape, b shape, a C-contiguous, b C-contiguous): the classifier's
# x @ W0 and x.T @ g0; the VCAE's x @ W0 and x.T @ g0 of the encoder, and
# h @ W1, h.T @ g1 and g1 @ W1.T of the decoder, whose 80-row halves would
# fall below BLOCK_MACS
MLP_SPLITS = {((128, 768), (768, 64), True, True), ((768, 128), (128, 64), False, True),
              ((80, 768), (768, 64), True, True), ((768, 80), (80, 64), False, True)}
VCAE_SPLITS = {((128, 768), (768, 32), True, True), ((768, 128), (128, 32), False, True),
               ((128, 32), (32, 768), True, True), ((32, 128), (128, 768), False, True),
               ((128, 768), (768, 32), True, False)}


def test_glyph_steps_split_the_listed_products(glyphs, monkeypatch):
    seen = _record_products(monkeypatch)
    train(glyphs[0], GLYPH_CFG)
    assert set(seen) == MLP_SPLITS
    seen.clear()
    train_vcae(glyphs[0], VCAE_CFG, replace(GLYPH_CFG, epochs=1))
    assert set(seen) == VCAE_SPLITS
    assert len(seen) == 5  # the one 128-row step; the 80-row step splits none
    assert all(a[0] // 2 * a[1] * b[1] >= BLOCK_MACS for a, b, _, _ in seen)


@pytest.mark.parametrize("shapes", sorted(MLP_SPLITS | VCAE_SPLITS))
def test_halves_have_the_bits_of_the_whole_product(shapes):
    (m, k), (_, n), a_c, b_c = shapes
    rng = np.random.default_rng(m * k * n)
    a = rng.normal(size=(m, k)) if a_c else rng.normal(size=(k, m)).T
    b = rng.normal(size=(k, n)) if b_c else rng.normal(size=(n, k)).T
    with blas.limit():
        whole = np.matmul(a, b)
        halves = classifier._matmul(a, b, np.empty((m, n)))
    assert halves.tobytes() == whole.tobytes()


@pytest.mark.parametrize("scheme,method", [("vcae", "LW"), ("biased-confidence", "WS"),
                                           ("vanilla", "LW"), ("lff", "LW")])
def test_glyph_pipelines_write_the_inline_bytes(scheme, method, glyphs, monkeypatch):
    def run():
        return run_debias_pipeline(*glyphs, scheme, method, train_cfg=GLYPH_CFG,
                                   gamma=50.0, t_bias=1, vcae_cfg=VCAE_CFG)

    lanes, halves = [], blas.halves

    def noting(fn, first, second):
        halves(fn, first, second)
        lanes.append(blas._local.lane._thread is not None)

    with monkeypatch.context() as m:
        m.setattr(blas, "halves", noting)
        split = run()
    assert lanes and all(lanes)  # every split ran on the lane
    monkeypatch.setattr(blas, "halves", _inline)
    inline = run()

    def table(res):
        return np.array([row.csv_values() for row in res.history], dtype=float).tobytes()

    assert table(split) == table(inline)
    assert split.weights.weights.tobytes() == inline.weights.weights.tobytes()
    assert split.params.flat.tobytes() == inline.params.flat.tobytes()


def test_adam_by_halves_writes_the_whole_update():
    rng = np.random.default_rng(3)
    p0, g = rng.normal(size=(2, LANE_MIN_SIZE + 3))
    out = []
    for halves in (True, False):
        opt, p = Adam(lr=1e-2, weight_decay=1e-3), p0.copy()
        with blas.limit() if halves else contextlib.nullcontext():
            for _ in range(3):
                opt.step(p, g)
        out.append(p.tobytes())
    assert out[0] == out[1]


def test_no_thread_outlives_a_wide_run(glyphs):
    before = threading.active_count()
    train(glyphs[0], GLYPH_CFG)
    train_vcae(glyphs[0], VCAE_CFG, replace(GLYPH_CFG, epochs=1))
    run_debias_pipeline(*glyphs, "vanilla", "LW", train_cfg=GLYPH_CFG)
    assert threading.active_count() == before


@pytest.mark.parametrize("error", [TrainingDiverged, GradientError])
def test_no_thread_outlives_an_error_mid_epoch(error, glyphs, monkeypatch):
    """Raised in the second step of the classifier and of the VCAE, after the
    first step has started the lane."""
    before = threading.active_count()
    for module in (classifier, vcae):
        calls, lanes, check = [], [], module.check_finite_gradient

        def failing(*args):
            calls.append(None)
            if len(calls) == 2:
                lanes.append(_lane_names())
                raise error("stop")
            return check(*args)

        with monkeypatch.context() as m:
            m.setattr(module, "check_finite_gradient", failing)
            with pytest.raises(error, match="^stop"):
                if module is classifier:
                    train(glyphs[0], GLYPH_CFG)
                else:
                    train_vcae(glyphs[0], VCAE_CFG, GLYPH_CFG)
        assert lanes == [[LANE]]
        assert threading.active_count() == before


class _HalfFailed(Exception):
    pass


@pytest.mark.parametrize("failing", [0, 1])
def test_a_halfs_error_is_raised_after_both_halves(failing):
    """The exception raised as it was, by the training thread, once the
    other half has finished; the lane serves the next split."""
    done, error = [], _HalfFailed("half")

    def half(k):
        if k != failing:
            time.sleep(0.05)
        done.append((k, threading.current_thread().name))
        if k == failing:
            raise error

    with blas.limit():
        with pytest.raises(_HalfFailed) as info:
            blas.halves(half, (0,), (1,))
        assert info.value is error
        assert sorted(done) == [(0, threading.current_thread().name), (1, LANE)]
        done.clear()
        blas.halves(done.append, (0,), (1,))
        assert sorted(done) == [0, 1]


def test_halves_outside_the_owner_run_inline():
    names = []

    def half(k):
        names.append(threading.current_thread().name)

    blas.halves(half, (0,), (1,))  # no block open
    with blas.limit():
        worker = threading.Thread(target=blas.halves, args=(half, (0,), (1,)), name="other")
        worker.start()
        worker.join()
        assert blas._local.lane._thread is None
    assert names == [threading.current_thread().name] * 2 + ["other"] * 2


def test_caller_errstate_reaches_the_lanes_adam_half():
    """Only the second half overflows: ((1 - beta2) g) g of 1e200."""
    p, g = np.zeros(LANE_MIN_SIZE), np.ones(LANE_MIN_SIZE)
    g[-1] = 1e200
    with blas.limit():
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            Adam(lr=1e-3).step(p, g)
        assert _lane_names() == [LANE]
        with np.errstate(over="ignore"):
            Adam(lr=1e-3).step(p, g)


def test_two_factor_pipelines_never_start_the_lane(monkeypatch):
    """D=20: no product half reaches BLOCK_MACS and no Adam vector
    LANE_MIN_SIZE, so no step hands work to a second thread."""
    seen, train_ = [], debias.train

    def watching(ds, cfg, *, weight_fn=None, **kwargs):
        def weights(idx, step, fwd):
            seen.append(_lane_names())
            return np.ones(len(idx)) if weight_fn is None else weight_fn(idx, step, fwd)
        return train_(ds, cfg, weight_fn=weights, **kwargs)

    monkeypatch.setattr(debias, "train", watching)
    gen = GenConfig(num_classes=10, n=600, bc_ratio=0.01, seed=8)
    data = generate(gen), generate(unbiased_config(gen, n=200, seed=9))
    cfg = TrainConfig(epochs=1, batch_size=128, hidden=(64, 64))
    for scheme, method in (("vanilla", "LW"), ("biased-confidence", "WS"), ("lff", "LW")):
        run_debias_pipeline(*data, scheme, method, train_cfg=cfg, gamma=200.0, t_bias=1)
    assert len(seen) >= 3 * 5 and not any(seen)


def test_serial_sweep_on_glyphs_leaves_the_pool_unimported(tmp_path):
    """A ``--jobs 1`` sweep whose steps run on the lane imports no
    ``concurrent.futures``."""
    import debiaskit
    script = """
import json, sys
from debiaskit import blas
from debiaskit.cli import main
names, start = set(), blas.Helper.start
def noting(self, *args):
    names.add(self.name)
    start(self, *args)
blas.Helper.start = noting
assert main(["generate", "--kind", "colored-glyphs", "--classes", "3", "--n", "150",
             "--rho", "0.2", "--out", "d"]) == 0
with open("c.json", "w") as fh:
    json.dump({"schema_version": 1, "dataset_path": "d", "test_n": 60,
               "train": {"epochs": 1, "batch_size": 128, "hidden": [64]}}, fh)
assert main(["sweep", "--config", "c.json", "--scheme", "biased-confidence",
             "--gamma", "20", "--t-bias", "1", "--jobs", "1", "--out", "sw"]) == 0
print(sorted(names), "concurrent.futures" in sys.modules)
"""
    src = str(Path(debiaskit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={"PYTHONPATH": src}, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "['debiaskit-eval', 'debiaskit-lane'] False"
