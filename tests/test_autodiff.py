import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debiaskit import autodiff as ad
from debiaskit.classifier import init_mlp

from conftest import (_forward_graph, central_diff, log, logsumexp, params_of, rel_err,
                      softmax_xent)


def test_square_identity():
    t = ad.Tape()
    x = t.leaf(3.0)
    (g,) = t.backward(x * x, wrt=[x])
    assert g == 6.0


def test_product_symmetry():
    t = ad.Tape()
    x, y = t.leaf(2.0), t.leaf(5.0)
    gx, gy = t.backward(x * y, wrt=[x, y])
    assert (gx, gy) == (5.0, 2.0)


def test_non_scalar_output_rejected():
    t = ad.Tape()
    x = t.leaf(np.ones(3))
    with pytest.raises(ValueError):
        t.backward(x * 2.0)


def test_nan_adjoint_raises():
    with np.errstate(divide="ignore"):
        t = ad.Tape()
        x = t.leaf(0.0)
        bad = log(x)  # -inf forward; reverse sweep must refuse
        with pytest.raises(ad.GradientError):
            t.backward(bad, wrt=[x])


def test_used_tape_is_freed_without_the_cycle_collector():
    """No backward closure holds a node, so a tape is freed by reference
    counting alone once its last handle is dropped."""
    gc.disable()
    try:
        t = ad.Tape()
        x = t.leaf(np.arange(12.0).reshape(3, 4))
        picked = ad.take_per_row(ad.rows(x, np.array([2, 0, 0])), np.array([1, 3, 0]))
        out = (picked * ad.slice_cols(x, 1, 2).reshape((3,))).sum()
        t.backward(out, wrt=[x])
        ref = weakref.ref(t)
        del t, x, picked, out
        assert ref() is None
    finally:
        gc.enable()


def test_values_unchanged_by_backward():
    t = ad.Tape()
    x = t.leaf(np.array([1.0, 2.0]))
    y = (x * x).sum()
    before = [v.copy() for v in t.values]
    t.backward(y)
    for old, new in zip(before, t.values):
        np.testing.assert_array_equal(old, new)


def _mlp_loss(arrays, sizes, x, y):
    from debiaskit.classifier import mlp_forward, log_softmax_numpy
    p = params_of(sizes, arrays)
    lp = log_softmax_numpy(mlp_forward(p, x))
    return float(-lp[np.arange(len(y)), y].mean())


def test_mlp_gradient_vs_finite_differences(rng):
    """Two-layer MLP + softmax cross-entropy against the central-difference oracle."""
    sizes = [4, 6, 5, 3]
    params = init_mlp(sizes, seed=7)
    x = rng.normal(size=(8, 4))
    y = rng.integers(0, 3, size=8)

    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in params.arrays]
    logits = _forward_graph(tape, leaves, x)
    loss = softmax_xent(logits, y).mean()
    grads = tape.backward(loss, wrt=leaves)

    fd = central_diff(lambda arrs: _mlp_loss(arrs, sizes, x, y), params.arrays)
    for g, f in zip(grads, fd):
        assert rel_err(g, f, floor=1e-4) < 1e-6


def _random_graph_value_and_grads(leaf_vals, ops):
    tape = ad.Tape()
    leaves = [tape.leaf(v) for v in leaf_vals]
    pool = list(leaves)
    for kind, i, j in ops:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        if kind == 0:
            pool.append(a + b)
        elif kind == 1:
            pool.append(a * b)
        elif kind == 2:
            pool.append(a - b)
        elif kind == 3:
            pool.append(ad.exp(a * 0.3))
        elif kind == 4:
            pool.append(log(ad.clamp_min(a * a + 1.0, 1e-6)))
        else:
            pool.append(ad.relu(a))
    out = pool[-1]
    loss = (out * out).sum() if out.value.ndim else out * out
    return tape, leaves, loss


def test_gradient_check_100_random_graphs(rng):
    """100 random small graphs vs central differences, rel err < 1e-6."""
    for trial in range(100):
        n_leaves = int(rng.integers(1, 4))
        leaf_vals = [rng.normal(size=(2,)) for _ in range(n_leaves)]
        ops = [(int(rng.integers(0, 6)), int(rng.integers(0, 8)),
                int(rng.integers(0, 8))) for _ in range(int(rng.integers(1, 6)))]

        tape, leaves, loss = _random_graph_value_and_grads(leaf_vals, ops)
        grads = tape.backward(loss, wrt=leaves)

        def f(arrs, ops=ops):
            t2, _, l2 = _random_graph_value_and_grads(arrs, ops)
            return float(l2.value)

        fd = central_diff(f, [v.copy() for v in leaf_vals])
        for g, fg in zip(grads, fd):
            assert rel_err(g, fg, floor=1e-3) < 1e-6, f"trial {trial}"


def test_backward_linearity(rng):
    """grad(a*f + b*g) == a*grad(f) + b*grad(g) to 1e-12."""
    x0 = rng.normal(size=(3,))
    a, b = 1.7, -0.6

    def build(which):
        t = ad.Tape()
        x = t.leaf(x0)
        f = (x * x).sum()
        g = ad.exp(x * 0.5).sum()
        if which == "f":
            return t, x, f
        if which == "g":
            return t, x, g
        return t, x, f * a + g * b

    t1, x1, f = build("f")
    (gf,) = t1.backward(f, wrt=[x1])
    t2, x2, g = build("g")
    (gg,) = t2.backward(g, wrt=[x2])
    t3, x3, combo = build("combo")
    (gc,) = t3.backward(combo, wrt=[x3])
    np.testing.assert_allclose(gc, a * gf + b * gg, atol=1e-12)


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(99)
        t = ad.Tape()
        x = t.leaf(rng.normal(size=(4, 3)))
        w = t.leaf(rng.normal(size=(3, 2)))
        loss = (ad.relu(x @ w)).sum()
        return t.backward(loss, wrt=[w])[0].tobytes()

    assert run() == run()


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_log_softmax_normalizes(vals):
    t = ad.Tape()
    x = t.leaf(np.array([vals]))
    p = np.exp(ad.log_softmax(x).value)
    assert abs(p.sum() - 1.0) < 1e-12


def test_broadcast_gradients(rng):
    x0 = rng.normal(size=(4, 3))
    b0 = rng.normal(size=(3,))
    t = ad.Tape()
    x, b = t.leaf(x0), t.leaf(b0)
    loss = ((x + b) * (x + b)).sum()
    gx, gb = t.backward(loss, wrt=[x, b])
    np.testing.assert_allclose(gx, 2 * (x0 + b0), atol=1e-12)
    np.testing.assert_allclose(gb, 2 * (x0 + b0).sum(axis=0), atol=1e-12)


def test_rows_and_take_per_row(rng):
    m0 = rng.normal(size=(5, 3))
    idx = np.array([1, 1, 4])
    t = ad.Tape()
    m = t.leaf(m0)
    picked = ad.rows(m, idx)
    loss = picked.sum()
    (gm,) = t.backward(loss, wrt=[m])
    expect = np.zeros_like(m0)
    np.add.at(expect, idx, 1.0)
    np.testing.assert_array_equal(gm, expect)

    t2 = ad.Tape()
    m2 = t2.leaf(m0)
    lab = np.array([0, 2, 1, 0, 2])
    val = ad.take_per_row(m2, lab)
    np.testing.assert_array_equal(val.value, m0[np.arange(5), lab])


def test_logsumexp_matches_numpy(rng):
    x0 = rng.normal(size=(4, 6)) * 30
    t = ad.Tape()
    x = t.leaf(x0)
    got = logsumexp(x, axis=1).value
    m = x0.max(axis=1, keepdims=True)
    want = (np.log(np.exp(x0 - m).sum(axis=1, keepdims=True)) + m).squeeze(1)
    np.testing.assert_allclose(got, want, atol=1e-12)
