import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from debiaskit.classifier import GradientError, TrainConfig, TrainingDiverged
from debiaskit.data import (GenConfig, LabeledDataset, generate_colored_glyphs,
                            generate_two_factor, unbiased_config)
from debiaskit.debias import run_debias_pipeline
from debiaskit.vcae import (LatentGaussian, VcaeConfig, VcaeParams, encode,
                            init_vcae, kl_diag_gauss, latent_dump,
                            log_p_z_given_y, p_y_given_z, train_vcae,
                            vcae_loss_and_grads, vcae_weights)

from conftest import (assert_views_of_flat, central_diff, kill_unit, params_of, ref_optimizer,
                      rel_err, tape_vcae_loss_and_grads, vcae_loss)


def _zeroed(params: VcaeParams) -> VcaeParams:
    for a in params.encoder.arrays:
        a[:] = 0.0
    return params


def test_encode_zero_encoder_gives_standard_gaussian():
    cfg = VcaeConfig(num_classes=3, dim_z=2, hidden=(4,))
    params = _zeroed(init_vcae(cfg, input_dim=5, seed=0))
    lat = encode(params, np.ones((4, 5)))
    np.testing.assert_array_equal(lat.mu, np.zeros((4, 2)))
    np.testing.assert_array_equal(lat.sigma, np.ones((4, 2)))


def test_encode_row_matches_batch(rng):
    cfg = VcaeConfig(num_classes=3, dim_z=2, hidden=(6,))
    params = init_vcae(cfg, input_dim=5, seed=1)
    x = rng.normal(size=(7, 5))
    full = encode(params, x)
    one = encode(params, x[4])
    np.testing.assert_allclose(one.mu, full.mu[4], atol=1e-14)
    np.testing.assert_allclose(one.sigma, full.sigma[4], atol=1e-14)


def test_latent_gaussian_requires_positive_sigma():
    with pytest.raises(ValueError):
        LatentGaussian(np.zeros(2), np.array([1.0, 0.0]))


def test_kl_identical_is_zero(rng):
    mu = rng.normal(size=3)
    sig = np.exp(rng.normal(size=3))
    g = LatentGaussian(mu, sig)
    assert kl_diag_gauss(g, LatentGaussian(mu.copy(), sig.copy())) == 0.0


def test_kl_unit_shift():
    q = LatentGaussian(np.array([1.0]), np.array([1.0]))
    p = LatentGaussian(np.array([0.0]), np.array([1.0]))
    assert abs(kl_diag_gauss(q, p) - 0.5) < 1e-15


def test_kl_nonnegative_random(rng):
    for _ in range(20):
        q = LatentGaussian(rng.normal(size=4), np.exp(rng.normal(size=4)))
        p = LatentGaussian(rng.normal(size=4), np.exp(rng.normal(size=4)))
        assert kl_diag_gauss(q, p) >= 0.0


def test_kl_matches_monte_carlo(rng):
    for _ in range(20):
        d = int(rng.integers(1, 5))
        q = LatentGaussian(rng.normal(size=d), np.exp(0.5 * rng.normal(size=d)))
        p = LatentGaussian(rng.normal(size=d), np.exp(0.5 * rng.normal(size=d)))
        exact = kl_diag_gauss(q, p)
        n = 1_000_000
        z = q.mu + q.sigma * rng.normal(size=(n, d))

        def logpdf(z, g):
            return (-0.5 * ((z - g.mu) / g.sigma) ** 2
                    - np.log(g.sigma) - 0.5 * math.log(2 * math.pi)).sum(axis=1)

        samples = logpdf(z, q) - logpdf(z, p)
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - exact) <= 3 * se


def _two_cluster_params(spread=100.0):
    cfg = VcaeConfig(num_classes=2, dim_z=2, hidden=(4,))
    params = _zeroed(init_vcae(cfg, input_dim=3, seed=0))
    params.mu_y[:] = [[0.0, 0.0], [spread, 0.0]]
    params.log_sigma_y[:] = 0.0
    return cfg, params


def test_posterior_argmax_at_cluster_mean():
    cfg, params = _two_cluster_params(spread=4.0)
    prior = np.array([0.5, 0.5])
    assert p_y_given_z(params, params.mu_y[0], prior).argmax() == 0
    assert p_y_given_z(params, params.mu_y[1], prior).argmax() == 1


def test_posterior_symmetric_midpoint():
    cfg, params = _two_cluster_params(spread=6.0)
    params.mu_y[:] = [[-3.0, 0.0], [3.0, 0.0]]
    post = p_y_given_z(params, np.zeros(2), np.array([0.5, 0.5]))
    np.testing.assert_allclose(post, [0.5, 0.5], atol=1e-15)


def test_posterior_matches_direct_density_ratio(rng):
    cfg = VcaeConfig(num_classes=4, dim_z=3, hidden=(4,))
    params = init_vcae(cfg, input_dim=5, seed=3)
    params.mu_y[:] = rng.normal(size=(4, 3))
    params.log_sigma_y[:] = 0.3 * rng.normal(size=(4, 3))
    prior = rng.dirichlet(np.ones(4))
    z = rng.normal(size=3)
    sigma = np.exp(params.log_sigma_y)
    dens = np.array([
        np.prod(np.exp(-0.5 * ((z - params.mu_y[c]) / sigma[c]) ** 2)
                / (sigma[c] * math.sqrt(2 * math.pi)))
        for c in range(4)
    ])
    expect = dens * prior / (dens * prior).sum()
    np.testing.assert_allclose(p_y_given_z(params, z, prior), expect, atol=1e-12)


def test_posterior_normalized_at_extreme_z(rng):
    cfg = VcaeConfig(num_classes=5, dim_z=2, hidden=(4,))
    params = init_vcae(cfg, input_dim=4, seed=4)
    z = np.array([100.0, 0.0])
    assert abs(np.linalg.norm(z) - 100.0) < 1e-12
    post = p_y_given_z(params, z, np.full(5, 0.2))
    assert abs(post.sum() - 1.0) < 1e-12
    assert np.all(post >= 0)


def test_loss_kl_only_zero_when_encoder_matches_class_gaussian():
    cfg, params = _two_cluster_params()
    cfg = VcaeConfig(num_classes=2, dim_z=2, hidden=(4,),
                     lambda0=0.0, lambda1=1.0, lambda2=0.0)
    params.mu_y[:] = 0.0  # class Gaussian == N(0, I) == zero-weight encoder output
    params.log_sigma_y[:] = 0.0
    eps = np.zeros((1, 2))
    loss = vcae_loss(params, np.ones((1, 3)), np.array([0]), cfg, eps)
    assert loss == 0.0


def test_loss_xent_only_zero_for_certain_posterior():
    cfg = VcaeConfig(num_classes=2, dim_z=2, hidden=(4,),
                     lambda0=0.0, lambda1=0.0, lambda2=1.0)
    _, params = _two_cluster_params(spread=100.0)
    eps = np.zeros((1, 2))
    # zero-weight encoder puts z at the class-0 mean; the other cluster is 100 sigmas away
    loss = vcae_loss(params, np.ones((1, 3)), np.array([0]), cfg, eps)
    assert loss < 1e-12


def test_loss_equals_sum_of_independent_terms(rng):
    cfg = VcaeConfig(num_classes=3, dim_z=2, hidden=(5,))
    params = init_vcae(cfg, input_dim=4, seed=5)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    eps = rng.normal(size=(6, 2))

    lat = encode(params, x)
    z = lat.mu + lat.sigma * eps
    from debiaskit.classifier import mlp_forward
    x_hat = mlp_forward(params.decoder, z)
    rec = 0.5 * ((x_hat - x) ** 2).sum(axis=1)
    kl = kl_diag_gauss(lat, LatentGaussian(params.mu_y[y], np.exp(params.log_sigma_y[y])))
    post = p_y_given_z(params, z, np.full(3, 1.0 / 3.0))
    xent = -np.log(post[np.arange(6), y])
    expect = (rec + kl + xent).mean()

    got = vcae_loss(params, x, y, cfg, eps)
    assert abs(got - expect) < 1e-12


def test_loss_gradient_vs_finite_differences(rng):
    from debiaskit import autodiff as ad
    from conftest import _loss_graph, _make_leaves, _flat_leaves

    cfg = VcaeConfig(num_classes=2, dim_z=2, hidden=(3,))
    params = init_vcae(cfg, input_dim=3, seed=6)
    x = rng.normal(size=(3, 3))
    y = np.array([0, 1, 0])
    eps = rng.normal(size=(3, 2))

    tape, leaves = _make_leaves(params)
    loss = _loss_graph(tape, leaves, x, y, cfg, eps)
    grads = tape.backward(loss, wrt=_flat_leaves(leaves))

    enc_sizes, dec_sizes = params.encoder.layer_sizes, params.decoder.layer_sizes
    n_enc, n_dec = len(params.encoder.arrays), len(params.decoder.arrays)

    def f(arrays):
        p2 = VcaeParams(params_of(enc_sizes, arrays[:n_enc]),
                        params_of(dec_sizes, arrays[n_enc:n_enc + n_dec]),
                        arrays[-2], arrays[-1], dim_z=2)
        return vcae_loss(p2, x, y, cfg, eps)

    all_arrays = [*params.encoder.arrays, *params.decoder.arrays,
                  params.mu_y, params.log_sigma_y]
    fd = central_diff(f, all_arrays)
    for g, fg in zip(grads, fd):
        assert rel_err(g, fg, floor=1e-4) < 1e-5


def test_weights_examples_and_cap():
    cfg, params = _two_cluster_params(spread=100.0)
    from debiaskit.data import LabeledDataset
    ds = LabeledDataset(np.zeros((2, 3)), np.array([0, 1]), num_classes=2,
                        bias=np.array([0, 0]))
    w = vcae_weights(params, ds, cap=100.0)
    # zero-weight encoder puts every z at the class-0 mean
    assert abs(w[0] - 1.0) < 1e-9   # p(y=0|z) == 1
    assert w[1] == 100.0            # p(y=1|z) astronomically small -> capped
    assert w.shape == (2,) and w.dtype == np.float64


def test_train_vcae_loss_decreases():
    ds = generate_two_factor(GenConfig(num_classes=4, n=600, bc_ratio=0.1, seed=51))
    cfg = VcaeConfig(num_classes=4, dim_z=2, hidden=(16,))
    params, history = train_vcae(ds, cfg, TrainConfig(epochs=10, batch_size=64, seed=0))
    assert history[9]["loss"] < history[0]["loss"]


def test_train_vcae_deterministic():
    ds = generate_two_factor(GenConfig(num_classes=3, n=200, bc_ratio=0.1, seed=52))
    cfg = VcaeConfig(num_classes=3, dim_z=2, hidden=(8,))
    tc = TrainConfig(epochs=2, batch_size=32, seed=7)
    p1, h1 = train_vcae(ds, cfg, tc)
    p2, h2 = train_vcae(ds, cfg, tc)
    for a, b in zip(p1.arrays(), p2.arrays()):
        assert a.tobytes() == b.tobytes()
    assert h1[-1]["loss"] == h2[-1]["loss"]


def test_conflicting_samples_get_larger_weights():
    """Bottlenecked latent captures the background color, so conflicting
    samples land in the wrong cluster and earn large weights."""
    gen = GenConfig(num_classes=10, n=2000, bc_ratio=0.05, seed=53,
                    kind="colored-glyphs")
    ds = generate_colored_glyphs(gen)
    cfg = VcaeConfig(num_classes=10, dim_z=2, hidden=(32,))
    params, _ = train_vcae(ds, cfg,
                           TrainConfig(epochs=30, batch_size=128, seed=1, lr=3e-3))
    w = vcae_weights(params, ds, cap=100.0)
    assert w[~ds.aligned].mean() > w[ds.aligned].mean()


def test_jensen_direction_on_matched_samples(rng):
    """log E_q[p(y|z)] >= E_q[log p(y|z)] on the same z draws."""
    cfg = VcaeConfig(num_classes=3, dim_z=2, hidden=(4,))
    params = init_vcae(cfg, input_dim=4, seed=8)
    params.mu_y[:] = rng.normal(size=(3, 2))
    lat = LatentGaussian(rng.normal(size=2), np.exp(0.2 * rng.normal(size=2)))
    z = lat.mu + lat.sigma * rng.normal(size=(20000, 2))
    p = p_y_given_z(params, z, np.full(3, 1.0 / 3.0))[:, 1]
    lhs = math.log(p.mean())
    rhs = np.log(p).mean()
    assert lhs >= rhs - 1e-12


def test_latent_dump_columns():
    cfg, params = _two_cluster_params()
    from debiaskit.data import LabeledDataset
    ds = LabeledDataset(np.zeros((3, 3)), np.array([0, 1, 0]), num_classes=2,
                        bias=np.array([0, 1, 1]))
    rows = latent_dump(params, ds)
    assert set(rows[0]) == {"index", "z_0", "z_1", "label", "aligned",
                            "p_y_given_z", "weight", "log_p_z_given_y"}
    assert rows[2]["aligned"] == 0


# --- one parameter vector ----------------------------------------------------

def test_vcae_arrays_are_views_of_one_vector():
    cfg = VcaeConfig(num_classes=3, dim_z=2, hidden=(5,))
    params = init_vcae(cfg, input_dim=4, seed=1)
    assert_views_of_flat(params.flat, params.arrays())
    assert_views_of_flat(params.flat, [params.encoder.flat, params.decoder.flat,
                                       params.mu_y, params.log_sigma_y])
    ds = generate_two_factor(GenConfig(num_classes=3, n=60, bc_ratio=0.1, seed=2))
    trained, _ = train_vcae(ds, cfg, TrainConfig(epochs=1, batch_size=32, seed=0))
    assert_views_of_flat(trained.flat, trained.arrays())
    assert_views_of_flat(trained.encoder.flat, trained.encoder.arrays)


def _ref_train_vcae(ds, cfg, t_cfg):
    """Reference loop: ``train_vcae`` as it was, stepping array by array."""
    from conftest import _flat_leaves, _loss_graph, _make_leaves
    seeds = np.random.SeedSequence(t_cfg.seed).generate_state(3)
    params = init_vcae(cfg, ds.dim, int(seeds[0]))
    arrays = [a.copy() for a in params.arrays()]
    opt = ref_optimizer(t_cfg.optimizer, t_cfg.lr, t_cfg.momentum, t_cfg.weight_decay)
    shuffle_rng = np.random.default_rng(int(seeds[1]))
    eps_rng = np.random.default_rng(int(seeds[2]))
    n_enc, n_dec = len(params.encoder.arrays), len(params.decoder.arrays)
    for _ in range(t_cfg.epochs):
        order = shuffle_rng.permutation(len(ds))
        for start in range(0, len(ds), t_cfg.batch_size):
            idx = order[start:start + t_cfg.batch_size]
            eps = eps_rng.normal(size=(len(idx), cfg.dim_z))
            view = VcaeParams(params_of(params.encoder.layer_sizes, arrays[:n_enc]),
                              params_of(params.decoder.layer_sizes,
                                        arrays[n_enc:n_enc + n_dec]),
                              arrays[-2], arrays[-1], dim_z=cfg.dim_z)
            tape, leaves = _make_leaves(view)
            loss = _loss_graph(tape, leaves, ds.features[idx], ds.labels[idx], cfg, eps)
            opt.step(arrays, tape.backward(loss, wrt=_flat_leaves(leaves)))
    return arrays


@pytest.mark.parametrize("optimizer,weight_decay,glyphs", [
    pytest.param("adam", 0.0, False, id="adam-0.0"),
    pytest.param("adam", 1e-3, False, id="adam-0.001"),
    pytest.param("sgd", 1e-3, False, id="sgd-0.001"),
    pytest.param("adam", 0.0, True, id="adam-0.0-glyphs")])
def test_train_vcae_matches_per_array_reference_bitwise(optimizer, weight_decay, glyphs):
    """``glyphs``: D=768 inputs with criterion 8's model (dim_z 2, hidden (32,))."""
    if glyphs:
        ds = generate_colored_glyphs(GenConfig(num_classes=10, n=300, bc_ratio=0.05,
                                               seed=57, kind="colored-glyphs"))
        cfg = VcaeConfig(num_classes=10, dim_z=2, hidden=(32,))
        epochs, lr = 3, 3e-3
    else:
        ds = generate_two_factor(GenConfig(num_classes=3, n=100, bc_ratio=0.1, seed=54))
        cfg = VcaeConfig(num_classes=3, dim_z=2, hidden=(6,))
        epochs, lr = 2, 1e-2
    tc = TrainConfig(epochs=epochs, batch_size=48, seed=5, optimizer=optimizer, lr=lr,
                     momentum=0.9, weight_decay=weight_decay)
    params, _ = train_vcae(ds, cfg, tc)
    ref = _ref_train_vcae(ds, cfg, tc)
    assert params.flat.tobytes() == np.concatenate([a.ravel() for a in ref]).tobytes()


# --- closed-form step against the tape ---------------------------------------

@st.composite
def _vcae_cases(draw):
    classes = draw(st.integers(2, 6))
    return dict(dim=draw(st.sampled_from([1, 3, 20, 768])),
                dim_z=draw(st.integers(1, 3)),
                hidden=draw(st.lists(st.integers(1, 10), max_size=2)),
                classes=classes,
                batch=draw(st.integers(1, 24)),
                # labels drawn from the first ``labels`` classes only, so a
                # batch repeats labels in the per-class gathers
                labels=draw(st.integers(1, classes)),
                lambdas=draw(st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 3.0])] * 3)),
                seed=draw(st.integers(0, 2 ** 32 - 1)))


@given(_vcae_cases())
@example(dict(dim=768, dim_z=2, hidden=[32], classes=10, batch=1, labels=10,
              lambdas=(1.0, 1.0, 1.0), seed=1))
@example(dict(dim=20, dim_z=3, hidden=[], classes=4, batch=24, labels=1,
              lambdas=(0.0, 1.0, 0.5), seed=2))
@settings(max_examples=150, deadline=None)
def test_closed_form_vcae_step_matches_tape_bitwise(case):
    """Loss and the gradient of every array equal the tape's to the bit."""
    rng = np.random.default_rng(case["seed"])
    c, dz, n = case["classes"], case["dim_z"], case["batch"]
    lam0, lam1, lam2 = case["lambdas"]
    cfg = VcaeConfig(num_classes=c, dim_z=dz, hidden=case["hidden"],
                     lambda0=lam0, lambda1=lam1, lambda2=lam2)
    params = init_vcae(cfg, case["dim"], case["seed"])
    params.flat += rng.normal(scale=0.3, size=params.flat.shape)
    x = rng.normal(size=(n, case["dim"]))
    y = rng.integers(0, case["labels"], size=n)
    eps = rng.normal(size=(n, dz))

    want_loss, want = tape_vcae_loss_and_grads(params, x, y, cfg, eps)
    got_loss, got = vcae_loss_and_grads(params, x, y, cfg, eps,
                                        np.empty_like(params.flat))
    assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()
    assert len(got) == len(want) == len(params.arrays())
    for g, t in zip(got, want):
        assert g.shape == t.shape and g.tobytes() == t.tobytes()


@pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "minus-zero"])
def test_closed_form_vcae_step_matches_tape_at_a_dead_unit(zero):
    """A hidden unit of the encoder and of the decoder whose pre-activation
    is exactly +-0.0 on every row, in both hidden layers of each: the loss
    and the gradient of every array equal the tape's to the bit."""
    rng = np.random.default_rng(8)
    cfg = VcaeConfig(num_classes=3, dim_z=2, hidden=(5, 4))
    params = init_vcae(cfg, input_dim=6, seed=8)
    params.flat += rng.normal(scale=0.3, size=params.flat.shape)
    kill_unit(params.encoder, 1, zero)
    kill_unit(params.decoder, 1, zero)
    x, y, eps = rng.normal(size=(7, 6)), rng.integers(0, 3, size=7), rng.normal(size=(7, 2))

    want_loss, want = tape_vcae_loss_and_grads(params, x, y, cfg, eps)
    got_loss, got = vcae_loss_and_grads(params, x, y, cfg, eps, np.empty_like(params.flat))
    assert np.float64(got_loss).tobytes() == np.float64(want_loss).tobytes()
    for g, t in zip(got, want, strict=True):
        assert g.shape == t.shape and g.tobytes() == t.tobytes()
    n_enc = len(params.encoder.arrays)
    assert not got[0][:, 1].any() and not got[n_enc][:, 1].any()


def test_closed_form_vcae_step_writes_into_out():
    cfg = VcaeConfig(num_classes=3, dim_z=2, hidden=(5,))
    params = init_vcae(cfg, input_dim=4, seed=3)
    rng = np.random.default_rng(0)
    x, y, eps = rng.normal(size=(6, 4)), rng.integers(0, 3, size=6), rng.normal(size=(6, 2))
    out = np.full_like(params.flat, np.nan)
    _, grads = vcae_loss_and_grads(params, x, y, cfg, eps, out)
    assert_views_of_flat(out, grads)
    _, want = tape_vcae_loss_and_grads(params, x, y, cfg, eps)
    assert out.tobytes() == np.concatenate([g.ravel() for g in want]).tobytes()
    out[:] = np.nan
    with pytest.raises(ValueError, match="label out of range"):
        vcae_loss_and_grads(params, x, np.array([0, 1, 2, 3, 0, 1]), cfg, eps, out)
    assert np.isnan(out).all()


def test_train_vcae_names_the_step_of_a_non_finite_loss():
    """Rows 8-11 overflow the reconstruction term; without shuffling they
    form the third batch of the first epoch."""
    x = np.random.default_rng(1).normal(size=(12, 3))
    x[8:] *= 1e160
    ds = LabeledDataset(x, np.arange(12) % 2, num_classes=2)
    cfg = VcaeConfig(num_classes=2, dim_z=1, hidden=(4,))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match=r"non-finite loss (nan|inf) at epoch 0 step 2$"):
            train_vcae(ds, cfg, TrainConfig(epochs=2, batch_size=4, shuffle=False))
    assert issubclass(TrainingDiverged, RuntimeError)


def test_vcae_step_writes_no_gradient_on_a_non_finite_loss():
    """The loss is checked before the reverse sweep: a batch whose
    reconstruction term overflows leaves every entry of ``out`` untouched."""
    x = np.random.default_rng(1).normal(size=(4, 3)) * 1e160
    cfg = VcaeConfig(num_classes=2, dim_z=1, hidden=(4,))
    params = init_vcae(cfg, input_dim=3, seed=0)
    out = np.full_like(params.flat, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match="^non-finite loss (nan|inf)$"):
            vcae_loss_and_grads(params, x, np.arange(4) % 2, cfg, np.ones((4, 1)), out)
    assert np.isnan(out).all()


@pytest.mark.parametrize("over", [
    {"dim_z": 0}, {"dim_z": 1.5}, {"dim_z": True}, {"lambda0": float("nan")},
    {"lambda1": float("inf")}, {"lambda2": -1.0}])
def test_vcae_config_rejects_bad_dim_z_and_lambdas(over):
    with pytest.raises(ValueError, match="dim_z|lambda"):
        VcaeConfig(num_classes=3, **over)


@pytest.mark.parametrize("over", [{"hidden": (0,)}, {"hidden": [8, 0]}, {"num_classes": 1},
                                  {"num_classes": 0}])
def test_vcae_config_rejects_empty_layers_and_classes(over):
    with pytest.raises(ValueError, match="hidden widths|num_classes"):
        VcaeConfig(**{"num_classes": 3, **over})


def test_non_finite_vcae_gradient_names_its_array():
    """Huge decoder hidden activations times a tiny output layer keep x_hat,
    and so the loss, finite; only the gradient of the decoder's output
    weights (decoder array 2) overflows."""
    cfg = VcaeConfig(num_classes=2, dim_z=1, hidden=(2,))
    params = init_vcae(cfg, input_dim=2, seed=0)
    for a in params.encoder.arrays:
        a[...] = 0.0
    dec = params.decoder.arrays
    dec[0][...] = 1e300
    dec[2][...] = 1e-300
    x = np.full((3, 2), 1e10)
    y = np.array([0, 1, 0])
    eps = np.array([[0.5], [1.0], [2.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isfinite(vcae_loss(params, x, y, cfg, eps))
        with pytest.raises(GradientError, match="decoder array 2$"):
            vcae_loss_and_grads(params, x, y, cfg, eps, np.empty_like(params.flat))
        with pytest.raises(GradientError):
            tape_vcae_loss_and_grads(params, x, y, cfg, eps)


# --- the posterior weights --------------------------------------------------

def _weights_setup():
    gen = GenConfig(num_classes=3, n=150, bc_ratio=0.1, seed=55)
    train_ds = generate_two_factor(gen)
    test_ds = generate_two_factor(unbiased_config(gen, n=60, seed=56))
    cfg = VcaeConfig(num_classes=3, dim_z=2, hidden=(6,))
    return train_ds, test_ds, cfg, TrainConfig(epochs=2, batch_size=50, seed=1)


def test_pipeline_weights_are_vcae_weights_of_its_vcae():
    train_ds, test_ds, cfg, tc = _weights_setup()
    res = run_debias_pipeline(train_ds, test_ds, "vcae", "LW", train_cfg=tc,
                              vcae_cfg=cfg, vcae_train_cfg=tc)
    vparams, _ = train_vcae(train_ds, cfg, tc)
    want = vcae_weights(vparams, train_ds)
    assert res.weights.weights.tobytes() == want.tobytes()
    assert res.weights.provenance == "vcae"


def test_latent_dump_shares_the_weights_posterior():
    """Both use p(y | z) under the uniform class prior."""
    train_ds, _, cfg, tc = _weights_setup()
    vparams, _ = train_vcae(train_ds, cfg, tc)
    rows = latent_dump(vparams, train_ds, cap=50.0)
    w = vcae_weights(vparams, train_ds, cap=50.0)
    post = p_y_given_z(vparams, encode(vparams, train_ds.features).mu, np.full(3, 1.0 / 3.0))
    p_true = post[np.arange(len(train_ds)), train_ds.labels]
    assert np.array([r["weight"] for r in rows]).tobytes() == w.tobytes()
    assert np.array([r["p_y_given_z"] for r in rows]).tobytes() == p_true.tobytes()


def test_weights_leave_debias_unimported():
    """The model layer holds no scheme: training a VCAE and weighing by it
    loads neither ``debiaskit.debias`` nor its schemes."""
    import debiaskit
    script = """
import sys
from debiaskit.classifier import TrainConfig
from debiaskit.data import GenConfig, generate
from debiaskit.vcae import VcaeConfig, train_vcae, vcae_weights
ds = generate(GenConfig(num_classes=3, n=60, bc_ratio=0.1, seed=1))
params, _ = train_vcae(ds, VcaeConfig(num_classes=3, hidden=(4,)),
                       TrainConfig(epochs=1, batch_size=30, hidden=(4,)))
vcae_weights(params, ds)
print(sorted(m for m in sys.modules if m.startswith("debiaskit")))
"""
    src = str(Path(debiaskit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env={"PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert "debiaskit.vcae" in done.stdout and "debiaskit.debias" not in done.stdout
