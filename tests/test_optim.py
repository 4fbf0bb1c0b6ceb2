import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debiaskit.classifier import TrainConfig
from debiaskit.optim import OPTIMIZERS, Adam, Sgd, make_optimizer

from conftest import ref_optimizer


def test_sgd_plain_step():
    p = np.array([0.0])
    Sgd(lr=0.1).step(p, np.array([1.0]))
    np.testing.assert_allclose(p, [-0.1])


def test_sgd_momentum_two_steps_hand_unrolled():
    # buf1 = 1 -> p = -0.1; buf2 = 0.9 + 1 = 1.9 -> p = -0.1 - 0.19 = -0.29
    p = np.array([0.0])
    opt = Sgd(lr=0.1, momentum=0.9)
    opt.step(p, np.array([1.0]))
    opt.step(p, np.array([1.0]))
    np.testing.assert_allclose(p, [-0.29], atol=1e-15)


def test_sgd_zero_grad_no_decay_leaves_params():
    p = np.array([1.5, -2.0])
    Sgd(lr=0.1).step(p, np.zeros(2))
    np.testing.assert_array_equal(p, [1.5, -2.0])


def test_sgd_shape_mismatch():
    with pytest.raises(ValueError):
        Sgd(lr=0.1).step(np.zeros(2), np.zeros(3))


def test_adam_zero_grad_zero_moments_noop():
    p = np.array([1.0, 2.0])
    Adam(lr=1e-3).step(p, np.zeros(2))
    np.testing.assert_array_equal(p, [1.0, 2.0])


@pytest.mark.parametrize("g", [0.5, -3.0, 1e-4])
def test_adam_first_step_magnitude(g):
    # bias correction makes m_hat = g, v_hat = g^2, so |dp| = lr*|g|/(|g|+eps)
    p = np.array([0.0])
    Adam(lr=1e-3).step(p, np.array([g]))
    expect = 1e-3 * abs(g) / (abs(g) + 1e-8)
    assert abs(abs(p[0]) - expect) < 1e-12
    assert np.sign(p[0]) == -np.sign(g)


def test_adam_monotone_on_quadratic():
    # f(x) = x^2 from x=1: simulate and require monotone decrease over two steps
    x = np.array([1.0])
    opt = Adam(lr=1e-3)
    vals = [x[0] ** 2]
    for _ in range(2):
        opt.step(x, 2.0 * x)
        vals.append(x[0] ** 2)
    assert vals[0] > vals[1] > vals[2]


def test_make_optimizer_rejects_unknown():
    with pytest.raises(ValueError):
        make_optimizer("lbfgs", 0.1)


def test_train_config_takes_the_names_make_optimizer_builds():
    for name in OPTIMIZERS:
        assert make_optimizer(TrainConfig(optimizer=name).optimizer, 0.1) is not None
    with pytest.raises(ValueError, match="optimizer must be one of"):
        TrainConfig(optimizer="lbfgs")


# --- the flat-vector step against the per-array reference --------------------

@st.composite
def _step_runs(draw):
    shapes = draw(st.lists(
        st.lists(st.integers(1, 7), min_size=1, max_size=3).map(tuple),
        min_size=1, max_size=5))
    return dict(shapes=shapes,
                optimizer=draw(st.sampled_from(["sgd", "adam"])),
                steps=draw(st.integers(1, 20)),
                lr=draw(st.sampled_from([1e-3, 0.05, 0.3])),
                momentum=draw(st.sampled_from([0.0, 0.9])),
                weight_decay=draw(st.sampled_from([0.0, 1e-4, 0.01])),
                seed=draw(st.integers(0, 2 ** 32 - 1)))


@given(_step_runs())
@settings(max_examples=120, deadline=None)
def test_flat_step_matches_per_array_reference_bitwise(run):
    """Stepping one flat vector in place gives the bits of the per-array
    update, for both optimizers, with momentum and weight decay."""
    rng = np.random.default_rng(run["seed"])
    ref_arrays = [rng.normal(size=shape) for shape in run["shapes"]]
    flat = np.concatenate([a.ravel() for a in ref_arrays])
    hyper = (run["lr"], run["momentum"], run["weight_decay"])
    ref = ref_optimizer(run["optimizer"], *hyper)
    opt = make_optimizer(run["optimizer"], *hyper)
    for _ in range(run["steps"]):
        grads = [rng.normal(scale=rng.choice([1e-6, 1.0, 1e3]), size=a.shape)
                 for a in ref_arrays]
        grads[0].ravel()[0] = 0.0  # zero gradients, too
        ref.step(ref_arrays, grads)
        grad_flat = np.concatenate([g.ravel() for g in grads])
        opt.step(flat, grad_flat)
        # the step leaves the gradient as it was
        assert grad_flat.tobytes() == np.concatenate([g.ravel() for g in grads]).tobytes()
    assert flat.tobytes() == np.concatenate([a.ravel() for a in ref_arrays]).tobytes()
