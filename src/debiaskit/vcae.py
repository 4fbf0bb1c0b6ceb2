"""Clustering variational autoencoder with class-conditional Gaussian latents.

The latent prior of class c is an isotropic Gaussian N(mu_c, sigma_c^2 I)
with learnable mean and scale. Training combines reconstruction,
per-class KL, and the latent class posterior p(y|z) obtained from the
class Gaussians by Bayes' rule. Sample weights are 1 / p(y_n | z_n)
capped at a constant, with z_n the posterior mean.

``train_vcae`` runs the shared epoch loop ``classifier.run_epochs`` with a
step through the closed-form ``vcae_loss_and_grads``. It replays, op for
op, the loss graph that the tests build on ``debiaskit.autodiff`` (the test
oracle), and the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classifier import (MlpParams, TrainConfig, TrainingDiverged,
                         check_finite_gradient, flat_views, init_mlp,
                         log_softmax_numpy, mlp_forward, mlp_layers,
                         mlp_layers_backward, run_epochs, shuffle_batches)
from .data import ConfigError, LabeledDataset, check_fields
from .optim import make_optimizer

LOG_2PI = math.log(2.0 * math.pi)

# default ceiling of the VCAE weights 1 / p(y_n | z_n)
VCAE_WEIGHT_CAP = 100.0


@dataclass
class VcaeConfig:
    num_classes: int
    dim_z: int = 2
    lambda0: float = 1.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    hidden: tuple[int, ...] = (64,)

    def __post_init__(self):
        check_fields(self)
        if self.num_classes < 2 or self.dim_z < 1:
            raise ConfigError(f"need num_classes >= 2 and dim_z >= 1, "
                              f"got {self.num_classes} and {self.dim_z}")
        lambdas = (self.lambda0, self.lambda1, self.lambda2)
        if not all(v >= 0 for v in lambdas):
            raise ConfigError(f"lambda coefficients must be nonnegative, got {lambdas}")
        if not all(w >= 1 for w in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {self.hidden}")
        self.hidden = tuple(self.hidden)


@dataclass
class LatentGaussian:
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if np.any(self.sigma <= 0):
            raise ValueError("sigma must be positive")


@dataclass
class VcaeParams:
    """All VCAE parameters in one contiguous float64 vector ``flat``.

    ``flat`` holds the encoder's vector, the decoder's, then ``mu_y`` and
    ``log_sigma_y`` row-major; ``encoder.flat``, ``decoder.flat`` and the
    arrays of ``arrays()`` are views into it, so an optimizer steps the
    whole model as one array. Building one copies the given parts into a
    new vector.
    """

    encoder: MlpParams                 # x -> [mu_x | log sigma_x]
    decoder: MlpParams                 # z -> x_hat
    mu_y: np.ndarray = field(repr=False)         # (C, dim_z)
    log_sigma_y: np.ndarray = field(repr=False)  # (C, dim_z)
    dim_z: int = 2
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        parts = [self.encoder.flat, self.decoder.flat,
                 np.asarray(self.mu_y), np.asarray(self.log_sigma_y)]
        self.flat = np.concatenate([np.ravel(a) for a in parts], dtype=np.float64)
        enc, dec, self.mu_y, self.log_sigma_y = flat_views(
            self.flat, [a.shape for a in parts])
        self.encoder = MlpParams(self.encoder.layer_sizes, flat=enc)
        self.decoder = MlpParams(self.decoder.layer_sizes, flat=dec)

    def arrays(self) -> list[np.ndarray]:
        return [*self.encoder.arrays, *self.decoder.arrays,
                self.mu_y, self.log_sigma_y]


def init_vcae(cfg: VcaeConfig, input_dim: int, seed: int) -> VcaeParams:
    s_enc, s_dec, s_mu = np.random.SeedSequence(seed).generate_state(3)
    enc = init_mlp([input_dim, *cfg.hidden, 2 * cfg.dim_z], int(s_enc))
    dec = init_mlp([cfg.dim_z, *cfg.hidden, input_dim], int(s_dec))
    mu_y = np.random.default_rng(int(s_mu)).normal(
        0.0, 0.5, size=(cfg.num_classes, cfg.dim_z))
    log_sigma_y = np.zeros((cfg.num_classes, cfg.dim_z))
    return VcaeParams(enc, dec, mu_y, log_sigma_y, dim_z=cfg.dim_z)


def encode(params: VcaeParams, x: np.ndarray) -> LatentGaussian:
    out = mlp_forward(params.encoder, x)
    dz = params.dim_z
    mu, log_sigma = out[..., :dz], out[..., dz:]
    return LatentGaussian(mu, np.exp(log_sigma))


def kl_diag_gauss(q: LatentGaussian, p: LatentGaussian) -> float | np.ndarray:
    """KL(q || p) for diagonal Gaussians, summed over dimensions."""
    lq, lp = np.log(q.sigma), np.log(p.sigma)
    terms = lp - lq + (q.sigma ** 2 + (q.mu - p.mu) ** 2) / (2.0 * p.sigma ** 2) - 0.5
    return terms.sum(axis=-1)


def log_p_z_given_y(params: VcaeParams, z: np.ndarray) -> np.ndarray:
    """(n, C) log densities of z under every class Gaussian (diagnostic)."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    sigma = np.exp(params.log_sigma_y)
    diff = z[:, None, :] - params.mu_y[None, :, :]
    quad = ((diff / sigma[None, :, :]) ** 2).sum(axis=2)
    logdet = params.log_sigma_y.sum(axis=1)
    return -0.5 * quad - logdet[None, :] - 0.5 * params.dim_z * LOG_2PI


def p_y_given_z(params: VcaeParams, z: np.ndarray,
                prior: np.ndarray) -> np.ndarray:
    """Bayes posterior over classes at z, computed in log space."""
    logits = log_p_z_given_y(params, z) + np.log(np.asarray(prior, dtype=np.float64))
    m = logits.max(axis=1, keepdims=True)
    p = np.exp(logits - m)
    p /= p.sum(axis=1, keepdims=True)
    return p[0] if np.ndim(z) == 1 else p


def _scatter_rows(like: np.ndarray, idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Adjoint of ``like[idx]``: rows of ``g`` summed into a zero array
    (``np.add.at``, because labels repeat within a batch)."""
    out = np.zeros_like(like)
    np.add.at(out, idx, g)
    return out


def vcae_loss_and_grads(params: VcaeParams, x: np.ndarray, y: np.ndarray,
                        cfg: VcaeConfig, eps: np.ndarray,
                        out: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Mean VCAE loss of a batch for the reparameterisation draw ``eps``, and
    its gradients for every array of ``params.arrays()``.

    Per sample: lambda0 * reconstruction (unit-variance Gaussian, constants
    dropped) + lambda1 * KL(q(z|x) || N(mu_y, sigma_y^2)) + lambda2 *
    -log p(y | z) under the uniform class prior. Performs the numpy
    operations of the tape graph in ``tests/conftest.py`` in the same order,
    so every value matches the tape bit for bit, but forms no adjoint for the
    batch, for ``eps`` or for the log-prior constant. A value with several
    consumers sums their adjoints last consumer first, as the tape does.
    Gradients go through views into ``out``, laid out like ``params.flat``.
    Raises ``TrainingDiverged`` on a non-finite loss before any gradient is
    written, and ``GradientError`` on a non-finite gradient.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    eps = np.atleast_2d(np.asarray(eps, dtype=np.float64))
    n, dz, c = x.shape[0], cfg.dim_z, cfg.num_classes
    if np.any(y < 0) or np.any(y >= c):
        raise ValueError("label out of range")
    enc_out, enc_acts = mlp_layers(params.encoder, x)
    mu_x, log_sigma_x = enc_out[:, :dz], enc_out[:, dz:2 * dz]
    sigma_x = np.exp(log_sigma_x)
    z = mu_x + sigma_x * eps

    x_hat, dec_acts = mlp_layers(params.decoder, z)
    diff = np.subtract(x_hat, x, out=x_hat)
    rec = (diff * diff).sum(axis=1) * 0.5

    log_sigma_p = params.log_sigma_y[y]
    sigma_sq_p = np.exp(log_sigma_p * 2.0)
    dmu = mu_x - params.mu_y[y]
    kl_num = sigma_x * sigma_x + dmu ** 2.0
    kl_den = sigma_sq_p * 2.0
    kl = ((log_sigma_p - log_sigma_x) + kl_num / kl_den - 0.5).sum(axis=1)

    z_dev = z.reshape(n, 1, dz) - params.mu_y.reshape(1, c, dz)
    ls3 = params.log_sigma_y.reshape(1, c, dz)
    inv_sigma = np.exp(-ls3)
    scaled = z_dev * inv_sigma
    quad = (scaled ** 2.0).sum(axis=2)
    log_pdf = quad * -0.5 - ls3.sum(axis=2) - 0.5 * dz * LOG_2PI
    log_post = log_softmax_numpy(log_pdf + np.log(np.full(c, 1.0 / c)))
    xent = -log_post[np.arange(n), y]

    total = rec * cfg.lambda0 + kl * cfg.lambda1 + xent * cfg.lambda2
    loss = float(total.sum() * (1.0 / n))
    if not math.isfinite(loss):
        raise TrainingDiverged(f"non-finite loss {loss}")

    grads = flat_views(out, [a.shape for a in params.arrays()])
    n_enc, n_dec = len(params.encoder.arrays), len(params.decoder.arrays)
    g_mu_y, g_log_sigma_y = grads[-2], grads[-1]
    g = np.full(n, 1.0 / n)  # adjoint of each sample's total

    # -lambda2 log p(y|z): log-softmax, log-density, quadratic form, log-det
    g_lp = np.zeros_like(log_post)
    g_lp[np.arange(n), y] = -(g * cfg.lambda2)
    g_logits = g_lp - np.exp(log_post) * g_lp.sum(axis=-1, keepdims=True)
    g_logdet = (-g_logits).sum(axis=0, keepdims=True)  # summed to its (1, C) shape
    g_scaled = (g_logits * -0.5)[:, :, None] * 2.0 * scaled
    g_z_dev = g_scaled * inv_sigma
    g_neg_ls3 = (g_scaled * z_dev).sum(axis=0, keepdims=True) * inv_sigma
    g_ls3 = np.broadcast_to(g_logdet[:, :, None], inv_sigma.shape) + -g_neg_ls3
    g_log_sigma_y[...] = g_ls3.reshape(g_log_sigma_y.shape)
    g_mu_y[...] = (-g_z_dev).sum(axis=0, keepdims=True).reshape(g_mu_y.shape)
    g_z = g_z_dev.sum(axis=1, keepdims=True).reshape(n, dz)

    # lambda1 KL: log_sigma_p - log_sigma_x + kl_num / kl_den - 0.5
    g_kl = (g * cfg.lambda1)[:, None]
    g_num = g_kl / kl_den
    g_den = -g_kl * kl_num / (kl_den * kl_den)
    g_dmu = g_num * 2.0 * dmu
    g_sigma_x = g_num * sigma_x
    g_sigma_x = g_sigma_x + g_sigma_x
    g_log_sigma_p = g_kl + g_den * 2.0 * sigma_sq_p * 2.0
    g_log_sigma_y += _scatter_rows(g_log_sigma_y, y, g_log_sigma_p)
    g_mu_y += _scatter_rows(g_mu_y, y, -g_dmu)

    # lambda0 reconstruction, through the decoder into z
    g_diff = (g * cfg.lambda0 * 0.5)[:, None] * diff
    g_diff += g_diff
    g_z = g_z + mlp_layers_backward(params.decoder.arrays, dec_acts, g_diff,
                                    grads[n_enc:n_enc + n_dec], input_grad=True)

    # z = mu_x + sigma_x * eps, sigma_x = exp(log_sigma_x), into the encoder
    g_mu_x = g_dmu + g_z
    g_sigma_x = g_sigma_x + g_z * eps
    g_log_sigma_x = -g_kl + g_sigma_x * sigma_x
    g_enc = np.concatenate((g_mu_x, g_log_sigma_x), axis=1)
    mlp_layers_backward(params.encoder.arrays, enc_acts, g_enc, grads[:n_enc])
    check_finite_gradient(out, grads, lambda k: _array_name(k, n_enc, n_dec))
    return loss, grads


def _array_name(k: int, n_enc: int, n_dec: int) -> str:
    if k < n_enc:
        return f"encoder array {k}"
    if k < n_enc + n_dec:
        return f"decoder array {k - n_enc}"
    return "mu_y" if k == n_enc + n_dec else "log_sigma_y"


def train_vcae(ds: LabeledDataset, cfg: VcaeConfig, t_cfg: TrainConfig):
    """Minimize the mean loss over the dataset by ``run_epochs``;
    deterministic given seeds.

    Raises ``ConfigError`` before the first step when ``cfg`` and ``ds``
    count different classes, ``TrainingDiverged`` naming the epoch and step
    of a non-finite loss, and ``GradientError`` naming the array of a
    non-finite gradient.
    """
    if cfg.num_classes != ds.num_classes:
        raise ConfigError(f"vcae.num_classes is {cfg.num_classes} but the dataset "
                          f"has {ds.num_classes} classes")
    init_seed, shuffle_seed, eps_seed = np.random.SeedSequence(t_cfg.seed).generate_state(3)
    params = init_vcae(cfg, ds.dim, int(init_seed))
    opt = make_optimizer(t_cfg.optimizer, t_cfg.lr, t_cfg.momentum,
                         t_cfg.weight_decay)
    eps_rng = np.random.default_rng(int(eps_seed))
    grad = np.empty_like(params.flat)

    def step_fn(idx, step):
        eps = eps_rng.normal(size=(len(idx), cfg.dim_z))
        lval, _ = vcae_loss_and_grads(params, ds.features[idx], ds.labels[idx],
                                      cfg, eps, grad)
        opt.step(params.flat, grad)
        return lval

    sampler = shuffle_batches(len(ds), t_cfg.batch_size, int(shuffle_seed), t_cfg.shuffle)
    history = run_epochs(len(ds), t_cfg, sampler, step_fn, lambda epoch, stats: {
        "epoch": epoch, "loss": stats["train_loss"], "seconds": stats["seconds"]})
    return params, history


def _posterior_weights(params: VcaeParams, ds: LabeledDataset, cap: float):
    """Posterior means z_n, p(y_n | z_n) under the uniform class prior and
    the weights min(1 / p(y_n | z_n), cap)."""
    z = encode(params, ds.features).mu
    post = p_y_given_z(params, z, np.full(ds.num_classes, 1.0 / ds.num_classes))
    p_true = np.maximum(post[np.arange(len(ds)), ds.labels], 1e-300)
    return z, p_true, np.minimum(1.0 / p_true, cap)


def vcae_weights(params: VcaeParams, ds: LabeledDataset,
                 cap: float = VCAE_WEIGHT_CAP) -> np.ndarray:
    """(N,) weights w_n = min(1 / p(y_n | z_n), cap), z_n the posterior mean."""
    return _posterior_weights(params, ds, cap)[2]


def latent_dump(params: VcaeParams, ds: LabeledDataset,
                cap: float = VCAE_WEIGHT_CAP) -> list[dict]:
    """Rows for the latent CSV: coordinates, posterior, weight, and the
    (unnormalized) class-conditional log density as a diagnostic."""
    z, p_true, weights = _posterior_weights(params, ds, cap)
    z_rows, p, w = z.tolist(), p_true.tolist(), weights.tolist()
    log_pdf = log_p_z_given_y(params, z)[np.arange(len(ds)), ds.labels].tolist()
    return [{"index": i, **{f"z_{d}": v for d, v in enumerate(z_rows[i])},
             "label": int(ds.labels[i]),
             "aligned": int(ds.aligned[i]) if ds.aligned is not None else "",
             "p_y_given_z": p[i], "weight": w[i], "log_p_z_given_y": log_pdf[i]}
            for i in range(len(ds))]
