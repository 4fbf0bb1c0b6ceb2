import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from debiaskit import autodiff as ad
from debiaskit import classifier
from debiaskit.classifier import (XENT_MAX, BlockWorkspace, MlpParams, TrainConfig,
                                  init_mlp, load_model, logit_blocks, mlp_backward,
                                  mlp_forward, mlp_loss_forward,
                                  row_blocks, save_model, shuffle_batches, softmax_numpy,
                                  train, TrainingDiverged)
from debiaskit.data import GenConfig, LabeledDataset, generate_two_factor, unbiased_config
from debiaskit.debias import weighted_sampler
from debiaskit.metrics import evaluate_accuracy

from conftest import (_forward_graph, assert_views_of_flat, central_diff, gce_loss,
                      kill_unit, params_of, ref_optimizer, rel_err, softmax_xent,
                      tape_loss_and_grads, weighted_mean_loss)


# --- forward pass -----------------------------------------------------------

def test_zero_weights_give_uniform_softmax():
    p = init_mlp([4, 3], seed=0)
    for a in p.arrays:
        a[:] = 0.0
    probs = softmax_numpy(mlp_forward(p, np.ones(4)))
    np.testing.assert_allclose(probs, 1.0 / 3.0, atol=1e-15)


def test_single_row_matches_batch_row(rng):
    # BLAS picks different kernels for (1,k) and (n,k); agreement is to the ulp
    p = init_mlp([5, 8, 4], seed=1)
    batch = rng.normal(size=(6, 5))
    full = mlp_forward(p, batch)
    np.testing.assert_allclose(mlp_forward(p, batch[3]), full[3], atol=1e-14)


def test_forward_of_a_large_batch_equals_the_plain_layer_chain(rng):
    """The row-blocked, in-place full-data forward gives the bytes of the
    plain chain max(x @ W + b, 0), one fresh array per operation, for one
    block of the largest size (3,277 rows at 1,639-row blocks) and several
    of uneven (4,919 rows) and of equal size."""
    for sizes, blocks in [([20, 64, 64, 10], (1, 3, 3, 6)),
                          ([768, 64, 64, 10], (1, 3, 3, 6)),  # glyph classifier
                          ([768, 32, 4], (1, 1, 1, 1))]:     # VCAE encoder, 8192-row blocks
        p = init_mlp(sizes, seed=2)
        for a in p.arrays:
            a += rng.normal(scale=0.1, size=a.shape)
        for n, n_blocks in zip((3277, 4919, 5000, 10000), blocks):
            assert len(row_blocks(p, n)) == n_blocks
            x = rng.normal(size=(n, sizes[0]))
            h = x
            for w, b in zip(p.arrays[:-2:2], p.arrays[1:-2:2]):
                h = np.maximum(h @ w + b, 0.0)
            ws = BlockWorkspace(p, n)
            for rows, _ in logit_blocks(p, x, ws):
                last = ws.hidden[-1][:rows.stop - rows.start]
                assert last.tobytes() == h[rows].tobytes(), (sizes, n, rows)
            assert mlp_forward(p, x).tobytes() == (h @ p.arrays[-2] + p.arrays[-1]).tobytes(), (sizes, n)
    x = rng.normal(size=(20000, 768))  # two VCAE encoder blocks of 10,000 rows
    assert len(row_blocks(p, len(x))) == 2
    h = np.maximum(x @ p.arrays[0] + p.arrays[1], 0.0)
    assert mlp_forward(p, x).tobytes() == (h @ p.arrays[2] + p.arrays[3]).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1024, 3000), st.lists(st.integers(1, 32), min_size=1, max_size=3),
       st.integers(0, 50000))
@example(1024, [1], 0).via("no rows: one empty block")
@example(1024, [1], 2047).via("the floor: one block of 2 * 1,024 - 1 rows")
def test_row_blocks_are_equal_and_keep_every_layer_at_block_macs(wide, rest, n):
    """For an input 1,024 to 3,000 wide and small layers after it, the blocks
    tile [0, n) in order and differ by at most one row; once n reaches the
    block size, each has at least 1,024 rows and BLOCK_MACS multiply-adds in
    every layer, and fewer than twice that size. The workspace holds the
    largest."""
    p = init_mlp([wide, *rest], seed=0)
    blocks = row_blocks(p, n)
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == n and all(b.step is None for b in blocks)
    sizes = [b.stop - b.start for b in blocks]
    assert max(sizes) - min(sizes) <= 1
    rows = max(1024, math.ceil(classifier.BLOCK_MACS / min(w.size for w in p.arrays[::2])))
    if n >= rows:
        assert 1024 <= rows <= min(sizes) and max(sizes) < 2 * rows
        assert min(sizes) * min(w.size for w in p.arrays[::2]) >= classifier.BLOCK_MACS
    else:
        assert sizes == [n]
    assert BlockWorkspace(p, n).logits.shape[0] == max(sizes)


def test_full_data_forward_memory_does_not_grow_with_the_rows(rng):
    """A 20,000-row forward through hidden (64, 64) holds a few blocks of
    1,666-1,667 rows, not two (20,000 x 64) activations (20.5 MB when
    unblocked)."""
    p = init_mlp([20, 64, 64, 10], seed=2)
    x = rng.normal(size=(20000, 20))
    tracemalloc.start()
    try:
        mlp_forward(p, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6


def test_forward_dim_mismatch():
    p = init_mlp([5, 4], seed=0)
    with pytest.raises(ValueError):
        mlp_forward(p, np.ones(6))


def test_forward_gradient_vs_finite_differences(rng):
    from debiaskit.classifier import log_softmax_numpy
    sizes = [3, 5, 4]
    params = init_mlp(sizes, seed=2)
    x = rng.normal(size=(4, 3))
    y = rng.integers(0, 4, size=4)

    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in params.arrays]
    loss = softmax_xent(_forward_graph(tape, leaves, x), y).mean()
    grads = tape.backward(loss, wrt=leaves)

    def f(arrays):
        lp = log_softmax_numpy(mlp_forward(params_of(sizes, arrays), x))
        return float(-lp[np.arange(4), y].mean())

    fd = central_diff(f, params.arrays)
    for g, fg in zip(grads, fd):
        assert rel_err(g, fg, floor=1e-4) < 1e-6


# --- losses -----------------------------------------------------------------

def test_xent_uniform_logits():
    assert abs(softmax_xent(np.zeros((1, 10)), [0])[0] - math.log(10)) < 1e-12


def test_xent_confident_correct():
    logits = np.zeros((1, 5))
    logits[0, 2] = 50.0
    assert softmax_xent(logits, [2])[0] < 1e-9


def test_xent_frozen_value():
    # high-precision evaluation: log(1 + e^-1 + e^-2)
    got = softmax_xent(np.array([[1.0, 2.0, 3.0]]), [2])[0]
    assert abs(got - 0.40760596444438067) < 1e-12


def test_xent_label_out_of_range():
    with pytest.raises(ValueError):
        softmax_xent(np.zeros((1, 3)), [3])


def test_gce_values():
    assert gce_loss(1.0, 0.3) == 0.0
    assert abs(gce_loss(0.5, 1.0) - 0.5) < 1e-15
    assert abs(gce_loss(0.5, 0.5) - 0.5857864376269049) < 1e-12


def test_gce_invalid_tau():
    with pytest.raises(ValueError):
        gce_loss(0.5, 0.0)
    with pytest.raises(ValueError):
        gce_loss(0.5, 1.5)


def test_gce_gradient_matches_closed_form_and_fd():
    # d/dp (1-p^tau)/tau = -p^(tau-1)
    for p0, tau in [(0.3, 0.7), (0.9, 0.2), (0.5, 1.0)]:
        t = ad.Tape()
        p = t.leaf(p0)
        (g,) = t.backward(gce_loss(p, tau), wrt=[p])
        assert abs(g - (-p0 ** (tau - 1.0))) < 1e-12
        h = 1e-6
        fd = (gce_loss(p0 + h, tau) - gce_loss(p0 - h, tau)) / (2 * h)
        assert rel_err(g, fd) < 1e-6


@pytest.mark.parametrize("p", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_gce_approaches_xent_as_tau_vanishes(p):
    assert abs(gce_loss(p, 1e-6) - (-math.log(p))) < 1e-4


def test_weighted_mean_values():
    assert weighted_mean_loss([1.0, 1.0], [1.0, 1.0]) == 1.0
    assert weighted_mean_loss([3.0, 7.0], [2.0, 0.0]) == 3.0
    assert abs(weighted_mean_loss([1.0, 1.0], [10.0, 0.05]) - 5.025) < 1e-15


def test_weighted_mean_rejects_negative():
    with pytest.raises(ValueError):
        weighted_mean_loss([1.0], [-0.5])


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=8))
@settings(max_examples=100, deadline=None)
def test_softmax_sums_to_one(logits):
    p = softmax_numpy(np.array([logits]))
    assert abs(p.sum() - 1.0) < 1e-12


# --- training loop ----------------------------------------------------------

def _blobs(n=120, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    x = rng.normal(scale=0.3, size=(n, 2)) + np.where(y[:, None] == 1, 1.0, -1.0)
    from debiaskit.data import LabeledDataset
    return LabeledDataset(x, y, num_classes=2)


def test_softmax_regression_separates_blobs():
    ds = _blobs()
    cfg = TrainConfig(epochs=60, batch_size=32, hidden=(), seed=0, lr=0.05,
                      optimizer="sgd")
    params, _ = train(ds, cfg)
    acc = (mlp_forward(params, ds.features).argmax(axis=1) == ds.labels).mean()
    assert acc == 1.0


def test_constant_weight_rescales_gradient():
    ds = _blobs(n=32)
    c = 3.7

    def one_step(weight, lr):
        cfg = TrainConfig(epochs=1, batch_size=32, hidden=(4,), seed=5,
                          optimizer="sgd", lr=lr, shuffle=False)
        params, _ = train(ds, cfg, weight_fn=lambda idx, t, fwd: np.full(len(idx), weight))
        return params

    a = one_step(c, 0.01)
    b = one_step(1.0, 0.01 * c)
    for pa, pb in zip(a.arrays, b.arrays):
        np.testing.assert_allclose(pa, pb, rtol=1e-12, atol=1e-12)


def test_training_deterministic():
    ds = _blobs()
    cfg = TrainConfig(epochs=3, batch_size=16, hidden=(8,), seed=3)
    p1, h1 = train(ds, cfg)
    p2, h2 = train(ds, cfg)
    for a, b in zip(p1.arrays, p2.arrays):
        assert a.tobytes() == b.tobytes()
    assert [r["train_loss"] for r in h1] == [r["train_loss"] for r in h2]


def test_vanilla_shortcuts_to_bias():
    """With the bias block much cleaner than the class block, plain training
    scores worse on conflicting test samples than on aligned ones."""
    gen = GenConfig(num_classes=10, n=4000, bc_ratio=0.01, seed=21)
    train_ds = generate_two_factor(gen)
    test_ds = generate_two_factor(unbiased_config(gen, n=2000, seed=22))
    cfg = TrainConfig(epochs=8, batch_size=128, seed=1)
    params, _ = train(train_ds, cfg)
    _, acc_ba, acc_bc = evaluate_accuracy(params, test_ds)
    assert acc_bc < acc_ba


def test_nan_loss_aborts():
    ds = _blobs(n=16)
    ds.features[:] = 1e308  # overflows the matmul into inf -> NaN logits
    cfg = TrainConfig(epochs=2, batch_size=16, hidden=(4,), seed=0, lr=10.0,
                      optimizer="sgd", shuffle=False)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged):
            train(ds, cfg)


def test_checkpoint_roundtrip(tmp_path):
    params = init_mlp([6, 4, 3], seed=9)
    save_model(params, tmp_path / "m", extra={"optimizer": "adam", "lr": 1e-3})
    back, meta = load_model(tmp_path / "m")
    assert meta["layer_sizes"] == [6, 4, 3]
    assert meta["optimizer"] == "adam"
    for a, b in zip(params.arrays, back.arrays):
        assert a.tobytes() == b.tobytes()
    save_model(back, tmp_path / "again")
    raw = (tmp_path / "m" / "params.f64le").read_bytes()
    assert raw == (tmp_path / "again" / "params.f64le").read_bytes() == params.flat.tobytes()


def test_params_arrays_are_views_of_one_vector(tmp_path):
    params = init_mlp([6, 4, 5, 3], seed=9)
    assert_views_of_flat(params.flat, params.arrays)
    assert [a.shape for a in params.arrays] == [(6, 4), (4,), (4, 5), (5,), (5, 3), (3,)]
    save_model(params, tmp_path / "m")
    back, _ = load_model(tmp_path / "m")
    assert_views_of_flat(back.flat, back.arrays)
    back.flat[:] = 1.0  # a loaded checkpoint is writable
    trained, _ = train(_blobs(n=40), TrainConfig(epochs=1, batch_size=16, hidden=(5,)))
    assert_views_of_flat(trained.flat, trained.arrays)


def test_params_reject_arrays_that_do_not_fit():
    with pytest.raises(ValueError, match="vector of 8 values"):
        MlpParams([3, 2], flat=np.zeros(9))
    with pytest.raises(ValueError, match="float64"):
        MlpParams([3, 2], flat=np.zeros(8, dtype=np.float32))


def test_load_model_rejects_truncated_params(tmp_path):
    save_model(init_mlp([6, 4, 3], seed=9), tmp_path / "m")
    path = tmp_path / "m" / "params.f64le"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match=r"params\.f64le.*expected 344 bytes.*found 336"):
        load_model(tmp_path / "m")


@pytest.mark.parametrize("meta,message", [
    ([1], "expected a JSON object, got list"),
    ({"schema_version": 1}, "missing key(s) ['layer_sizes']"),
    ({"schema_version": 1, "layer_sizes": "6,4,3"}, "layer_sizes must be list"),
    ({"schema_version": 1, "layer_sizes": ["6", 4, 3]}, "layer_sizes must be ints >= 1"),
    ({"schema_version": 1, "layer_sizes": [3]},
     "layer_sizes must be ints >= 1, at least two of them, got [3]"),
    ({"schema_version": 1, "layer_sizes": []},
     "layer_sizes must be ints >= 1, at least two of them, got []")],
    ids=["list", "no-layer_sizes", "layer_sizes-str", "layer_size-str", "one-layer",
         "no-layers"])
def test_load_model_rejects_a_malformed_model_json(tmp_path, meta, message):
    save_model(init_mlp([6, 4, 3], seed=9), tmp_path / "m")
    (tmp_path / "m" / "model.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=re.escape(f"model.json: {message}")):
        load_model(tmp_path / "m")


def test_load_model_rejects_wrong_schema_version(tmp_path):
    save_model(init_mlp([6, 4, 3], seed=9), tmp_path / "m")
    meta_path = tmp_path / "m" / "model.json"
    meta = json.loads(meta_path.read_text())
    meta["schema_version"] = 2
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=r"model\.json.*schema_version"):
        load_model(tmp_path / "m")


# --- closed-form step against the tape ---------------------------------------

def _grad_buffer(params):
    return MlpParams(params.layer_sizes, flat=np.empty_like(params.flat))


@st.composite
def _step_cases(draw):
    dim = draw(st.sampled_from([1, 3, 20, 768]))
    hidden = draw(st.lists(st.integers(1, 12), max_size=3))
    classes = draw(st.integers(2, 10))
    batch = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return dict(dim=dim, hidden=hidden, classes=classes, batch=batch, seed=seed,
                loss=draw(st.sampled_from(["xent", "gce"])),
                tau=draw(st.sampled_from([0.05, 0.3, 0.5, 0.7, 1.0])),
                offset=draw(st.booleans()), extreme=draw(st.booleans()))


@given(_step_cases())
@settings(max_examples=150, deadline=None)
def test_closed_form_step_matches_tape_bitwise(case):
    """Loss and every gradient equal the tape's to the bit, including samples
    whose xent hits the cap and whose GCE probability hits the floor."""
    rng = np.random.default_rng(case["seed"])
    params = init_mlp([case["dim"], *case["hidden"], case["classes"]], case["seed"])
    for a in params.arrays:
        a += rng.normal(scale=0.3, size=a.shape)
    x = rng.normal(size=(case["batch"], case["dim"]))
    y = rng.integers(0, case["classes"], size=case["batch"])
    w = rng.uniform(0.05, 20.0, size=case["batch"])
    offset = rng.normal(scale=3.0, size=(case["batch"], case["classes"])) \
        if case["offset"] or case["extreme"] else None
    if case["extreme"]:  # push half the true classes 80 below every other logit
        spread = np.ptp(mlp_forward(params, x) + offset, axis=1)
        offset[::2][np.arange(len(y[::2])), y[::2]] -= 80.0 + spread[::2]

    want_loss, want = tape_loss_and_grads(params.arrays, x, y, w, loss=case["loss"],
                                          tau=case["tau"], logit_offset=offset)
    fwd = mlp_loss_forward(params, x, y, loss=case["loss"], tau=case["tau"],
                           logit_offset=offset)
    got_loss, got = mlp_backward(fwd, w, _grad_buffer(params))
    if case["extreme"]:
        assert np.any(fwd.xent() == XENT_MAX)
        assert np.any(np.exp(-fwd.nll) < 1e-12)
    assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()
    assert len(got) == len(want)
    for g, t in zip(got, want):
        assert g.shape == t.shape and g.tobytes() == t.tobytes()


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "minus-zero"])
@pytest.mark.parametrize("loss", ["xent", "gce"])
def test_closed_form_step_matches_tape_at_a_dead_unit(loss, zero):
    """A hidden unit whose pre-activation is exactly +-0.0 on every row, in
    both hidden layers: the mask read from the activations is the tape's
    ``pre > 0`` there too, so the loss and every gradient match to the bit."""
    rng = np.random.default_rng(5)
    params = init_mlp([6, 5, 4, 3], seed=5)
    params.flat += rng.normal(scale=0.3, size=params.flat.shape)
    kill_unit(params, 2, zero)
    x = rng.normal(size=(9, 6))
    y = rng.integers(0, 3, size=9)
    w = rng.uniform(0.05, 20.0, size=9)

    want_loss, want = tape_loss_and_grads(params.arrays, x, y, w, loss=loss)
    fwd = mlp_loss_forward(params, x, y, loss=loss)
    assert not fwd.acts[1][:, 2].any() and not fwd.acts[2][:, 2].any()
    got_loss, got = mlp_backward(fwd, w, _grad_buffer(params))
    assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()
    for g, t in zip(got, want, strict=True):
        assert g.shape == t.shape and g.tobytes() == t.tobytes()
    assert not got[0][:, 2].any()  # no adjoint flows back through the dead unit


def test_closed_form_step_keeps_the_tape_checks():
    params = init_mlp([3, 4, 2], seed=0)
    x, y = np.ones((2, 3)), np.array([0, 1])
    with pytest.raises(ValueError, match="label out of range"):
        mlp_loss_forward(params, x, np.array([0, 2]))
    with pytest.raises(ValueError, match="unknown loss"):
        mlp_loss_forward(params, x, y, loss="hinge")
    with pytest.raises(ValueError, match="tau"):
        mlp_loss_forward(params, x, y, loss="gce", tau=0.0)
    fwd, out = mlp_loss_forward(params, x, y), _grad_buffer(params)
    with pytest.raises(ValueError, match="negative weight"):
        mlp_backward(fwd, np.array([1.0, -1.0]), out)
    with pytest.raises(ValueError, match="length mismatch"):
        mlp_backward(fwd, np.ones(3), out)
    with pytest.raises(ValueError, match="layouts differ"):
        mlp_backward(fwd, np.ones(2), _grad_buffer(init_mlp([3, 2], seed=0)))


def test_finite_loss_with_overflowing_gradient_raises(monkeypatch):
    """Huge finite weights give a finite loss, but x.T @ g overflows to inf
    in the backward matmul only: both routes must refuse the step."""
    params = init_mlp([2, 2], seed=0)
    params.arrays[0][:] = [[1e-10, -1e-10], [-1e-10, 1e-10]]
    x = np.full((4, 2), 1e10)
    x[1::2] *= -1.0
    y = np.array([0, 1, 1, 0])
    w = np.full(4, 1e300)
    fwd = mlp_loss_forward(params, x, y)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isfinite(float((fwd.xent() * w).sum() * 0.25))
        with pytest.raises(ad.GradientError):
            mlp_backward(fwd, w, _grad_buffer(params))
        with pytest.raises(ad.GradientError):
            tape_loss_and_grads(params.arrays, x, y, w)
        ds = LabeledDataset(x, y, num_classes=2)
        cfg = TrainConfig(epochs=1, batch_size=4, hidden=(), seed=0)
        monkeypatch.setattr(classifier, "init_mlp",
                            lambda sizes, seed: params_of(sizes, params.arrays))
        with pytest.raises(ad.GradientError):
            train(ds, cfg, weight_fn=lambda idx, t, fwd: w[idx])


def test_non_finite_gradient_names_its_array():
    """Only the last weight matrix overflows: huge hidden activations times a
    large weighted adjoint. The error names array 2, as the tape route did."""
    params = init_mlp([2, 2, 2], seed=0)
    params.arrays[0][:] = [[1e300, 0.0], [0.0, 1e300]]
    params.arrays[2][:] = [[1e-300, -1e-300], [-1e-300, 1e-300]]
    x = np.array([[1.0, 0.5], [0.5, 1.0]])
    y = np.array([0, 1])
    w = np.full(2, 1e12)
    fwd = mlp_loss_forward(params, x, y)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ad.GradientError, match="parameter array 2$"):
            mlp_backward(fwd, w, _grad_buffer(params))
        with pytest.raises(ad.GradientError):
            tape_loss_and_grads(params.arrays, x, y, w)


def _tape_train(ds, cfg, *, loss="xent", tau=0.7, weight_fn=None, logit_offset=None,
                sampler=None):
    """Reference loop: ``train`` as it was with a tape per step."""
    init_seed, shuffle_seed = np.random.SeedSequence(cfg.seed).generate_state(2)
    params = init_mlp([ds.dim, *cfg.hidden, ds.num_classes], int(init_seed))
    if sampler is None:
        sampler = shuffle_batches(len(ds), cfg.batch_size, int(shuffle_seed), cfg.shuffle)
    opt = ref_optimizer(cfg.optimizer, cfg.lr, cfg.momentum, cfg.weight_decay)
    losses = []
    for step in range(cfg.epochs * math.ceil(len(ds) / cfg.batch_size)):
        idx = next(sampler)
        # the tape's loop forms no closed-form pass, so its weight_fn gets None
        w = np.ones(len(idx)) if weight_fn is None else weight_fn(idx, step, None)
        lval, grads = tape_loss_and_grads(
            params.arrays, ds.features[idx], ds.labels[idx], w, loss=loss, tau=tau,
            logit_offset=None if logit_offset is None else logit_offset[idx])
        opt.step(params.arrays, grads)
        losses.append(lval)
    return params, losses


def _choice_batches(w, batch_size, seed):
    """Weighted sampling as numpy's own ``choice`` draws it."""
    rng = np.random.default_rng(seed)
    while True:
        yield rng.choice(len(w), size=batch_size, p=w / w.sum())


@pytest.mark.parametrize("loss,optimizer,weighted", [
    ("xent", "adam", False), ("xent", "adam", True), ("gce", "adam", False),
    ("xent", "sgd", True), ("xent", "adam", "ws"), ("xent", "adam", "params")])
def test_train_matches_tape_reference_bitwise(loss, optimizer, weighted):
    """``weighted``: per-sample loss weights and a logit offset (True),
    batches drawn by ``weighted_sampler``, which the reference draws with
    ``rng.choice`` ("ws"), or weights and a model passed as ``params``,
    which ``train`` steps in place ("params")."""
    gen = GenConfig(num_classes=4, n=300, bc_ratio=0.05, seed=8)
    ds = generate_two_factor(gen)
    cfg = TrainConfig(epochs=2, batch_size=64, hidden=(16, 8), seed=4,
                      optimizer=optimizer, lr=1e-2, momentum=0.9, weight_decay=1e-3)
    rng = np.random.default_rng(3)
    w_all = rng.uniform(0.1, 10.0, size=len(ds))
    weight_fn = (lambda idx, t, fwd: w_all[idx]) if weighted is True else None
    offset = np.log(rng.dirichlet(np.ones(4), size=len(ds))) if weighted is True else None
    ws = weighted == "ws"
    model = None
    if weighted == "params":
        init_seed = np.random.SeedSequence(cfg.seed).generate_state(2)[0]
        model = init_mlp([ds.dim, *cfg.hidden, ds.num_classes], int(init_seed))
        flat, drawn = model.flat, []

        def weight_fn(idx, t, fwd):  # the forward pass of the drawn batch
            if fwd is not None:
                assert fwd.params is model and fwd.labels.tobytes() == ds.labels[idx].tobytes()
                drawn.append(idx)
            return w_all[idx]

    params, history = train(ds, cfg, params=model, loss=loss, weight_fn=weight_fn,
                            logit_offset=offset,
                            sampler=weighted_sampler(w_all, 64, 7) if ws else None)
    ref, ref_losses = _tape_train(ds, cfg, loss=loss, weight_fn=weight_fn,
                                  logit_offset=offset,
                                  sampler=_choice_batches(w_all, 64, 7) if ws else None)
    if model is not None:
        assert params is model and params.flat is flat and len(drawn) == len(ref_losses)
    for a, b in zip(params.arrays, ref.arrays):
        assert a.tobytes() == b.tobytes()
    steps = math.ceil(len(ds) / cfg.batch_size)
    for epoch, row in enumerate(history):
        chunk = ref_losses[epoch * steps:(epoch + 1) * steps]
        sizes = [64] * steps if ws else [64] * (steps - 1) + [len(ds) - 64 * (steps - 1)]
        assert row["train_loss"] == sum(v * k for v, k in zip(chunk, sizes)) / sum(sizes)


def test_each_step_pass_keeps_its_own_arrays():
    """A ``weight_fn`` may keep its step's pass: no later step writes into it."""
    ds = generate_two_factor(GenConfig(num_classes=4, n=300, bc_ratio=0.05, seed=8))
    kept = []

    def weight_fn(idx, step, fwd):
        kept.append((fwd, fwd.log_probs.copy(), [a.copy() for a in fwd.acts], fwd.nll.copy()))
        return np.ones(len(idx))

    train(ds, TrainConfig(epochs=2, batch_size=64, hidden=(8, 8), seed=4), weight_fn=weight_fn)
    assert len(kept) == 10
    for fwd, log_probs, acts, nll in kept:
        assert fwd.log_probs.tobytes() == log_probs.tobytes()
        assert [a.tobytes() for a in fwd.acts] == [a.tobytes() for a in acts]
        assert fwd.nll.tobytes() == nll.tobytes()


@pytest.mark.parametrize("over", [
    {"hidden": (0,)}, {"hidden": [16, 0]}, {"lr": -1.0}, {"lr": 0}, {"lr": float("inf")},
    {"lr": float("nan")}, {"weight_decay": -1e-4}, {"momentum": -3.0}, {"momentum": 1.0},
    {"optimizer": "sgd", "momentum": float("nan")}])
def test_train_config_rejects_out_of_range_values(over):
    with pytest.raises(ValueError, match="hidden widths|lr|weight_decay|momentum"):
        TrainConfig(**over)
