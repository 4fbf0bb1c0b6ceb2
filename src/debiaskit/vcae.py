"""Clustering variational autoencoder with class-conditional Gaussian latents.

The latent prior of class c is an isotropic Gaussian N(mu_c, sigma_c^2 I)
with learnable mean and scale. Training combines reconstruction,
per-class KL, and the latent class posterior p(y|z) obtained from the
class Gaussians by Bayes' rule. Sample weights are 1 / p(y_n | z_n)
capped at a constant, with z_n the posterior mean.

``train_vcae`` runs the shared epoch loop ``classifier.run_epochs`` with a
step through the closed-form pair ``vcae_loss_forward`` / ``vcae_backward``.
That pair replays, op for op, the loss graph that the tests build on
``debiaskit.autodiff`` (the test oracle), and the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import blas
from .classifier import (MlpParams, TrainConfig, TrainingDiverged,
                         check_finite_gradient, flat_views, init_mlp,
                         log_softmax_numpy, mlp_forward, mlp_layers,
                         mlp_layers_backward, run_epochs, shuffle_batches)
from .data import LabeledDataset
from .optim import make_optimizer

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class VcaeConfig:
    num_classes: int
    dim_z: int = 2
    lambda0: float = 1.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    hidden: tuple[int, ...] = (64,)
    # p(y); uniform when omitted. Not part of a run's config.json
    prior: np.ndarray | None = field(default=None, metadata={"serialise": False})

    def __post_init__(self):
        if (not isinstance(self.dim_z, (int, np.integer)) or isinstance(self.dim_z, bool)
                or self.dim_z < 1):
            raise ValueError(f"dim_z must be an integer >= 1, got {self.dim_z!r}")
        lambdas = (self.lambda0, self.lambda1, self.lambda2)
        if not all(math.isfinite(v) and v >= 0 for v in lambdas):
            raise ValueError(f"lambda coefficients must be finite and nonnegative, "
                             f"got {lambdas}")
        if self.prior is None:
            self.prior = np.full(self.num_classes, 1.0 / self.num_classes)
        else:
            self.prior = np.asarray(self.prior, dtype=np.float64)
            if abs(self.prior.sum() - 1.0) > 1e-12 or np.any(self.prior <= 0):
                raise ValueError("prior must be positive and sum to 1")
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


@dataclass
class VcaePass:
    """One batch through the VCAE loss, kept for ``vcae_backward``.

    Names follow ``vcae_loss_forward``: the encoder and decoder layer passes
    of ``mlp_layers``, then the intermediates whose values the reverse sweep
    reads.
    """

    params: VcaeParams
    cfg: VcaeConfig
    labels: np.ndarray
    eps: np.ndarray
    enc_acts: list[np.ndarray]
    enc_pre: list[np.ndarray]
    dec_acts: list[np.ndarray]
    dec_pre: list[np.ndarray]
    sigma_x: np.ndarray      # (B, dz)
    diff: np.ndarray         # (B, D) x_hat - x
    sigma_sq_p: np.ndarray   # (B, dz) class variance of each row's label
    dmu: np.ndarray          # (B, dz) mu_x - mu_y[y]
    kl_num: np.ndarray       # (B, dz) sigma_x^2 + dmu^2
    kl_den: np.ndarray       # (B, dz) 2 sigma_sq_p
    z_dev: np.ndarray        # (B, C, dz) z - mu_y
    inv_sigma: np.ndarray    # (1, C, dz) exp(-log_sigma_y)
    scaled: np.ndarray       # (B, C, dz) z_dev * inv_sigma
    log_post: np.ndarray     # (B, C) log p(y | z)
    loss: float


def vcae_loss_forward(params: VcaeParams, x: np.ndarray, y: np.ndarray,
                      cfg: VcaeConfig, eps: np.ndarray) -> VcaePass:
    """Mean VCAE loss of a batch for the reparameterisation draw ``eps``.

    Per sample: lambda0 * reconstruction (unit-variance Gaussian, constants
    dropped) + lambda1 * KL(q(z|x) || N(mu_y, sigma_y^2)) + lambda2 *
    -log p(y | z) under ``cfg.prior``. Performs the numpy operations of the
    tape graph in ``tests/conftest.py`` in the same order, so every value
    matches the tape bit for bit.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    eps = np.atleast_2d(np.asarray(eps, dtype=np.float64))
    n, dz, c = x.shape[0], cfg.dim_z, cfg.num_classes
    if np.any(y < 0) or np.any(y >= c):
        raise ValueError("label out of range")
    enc_out, enc_acts, enc_pre = mlp_layers(params.encoder.arrays, x)
    mu_x, log_sigma_x = enc_out[:, :dz], enc_out[:, dz:2 * dz]
    sigma_x = np.exp(log_sigma_x)
    z = mu_x + sigma_x * eps

    x_hat, dec_acts, dec_pre = mlp_layers(params.decoder.arrays, z)
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
    log_post = log_softmax_numpy(log_pdf + np.log(cfg.prior))
    xent = -log_post[np.arange(n), y]

    total = rec * cfg.lambda0 + kl * cfg.lambda1 + xent * cfg.lambda2
    return VcaePass(params, cfg, y, eps, enc_acts, enc_pre, dec_acts, dec_pre,
                    sigma_x, diff, sigma_sq_p, dmu, kl_num, kl_den, z_dev,
                    inv_sigma, scaled, log_post, float(total.sum() * (1.0 / n)))


def _scatter_rows(like: np.ndarray, idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Adjoint of ``like[idx]``: rows of ``g`` summed into a zero array
    (``np.add.at``, because labels repeat within a batch)."""
    out = np.zeros_like(like)
    np.add.at(out, idx, g)
    return out


def vcae_backward(fwd: VcaePass,
                  out: np.ndarray | None = None) -> tuple[float, list[np.ndarray]]:
    """The batch loss and its gradients for every array of ``params.arrays()``.

    Replays the tape's reverse sweep op for op, forming no adjoint for the
    batch, for ``eps`` or for the log-prior constant. Where a value has
    several consumers, its adjoint sums their contributions in the tape's
    order: last consumer first. The gradients are written through views
    into the flat vector ``out`` (a new one when omitted), laid out like
    ``params.flat``. Raises ``TrainingDiverged`` on a non-finite loss before
    any gradient is formed, and ``GradientError`` on a non-finite gradient.
    """
    if not math.isfinite(fwd.loss):
        raise TrainingDiverged(f"non-finite loss {fwd.loss}")
    params, cfg, y = fwd.params, fwd.cfg, fwd.labels
    n, dz = fwd.sigma_x.shape
    if out is None:
        out = np.empty_like(params.flat)
    grads = flat_views(out, [a.shape for a in params.arrays()])
    n_enc, n_dec = len(params.encoder.arrays), len(params.decoder.arrays)
    g_mu_y, g_log_sigma_y = grads[-2], grads[-1]
    g = np.full(n, 1.0 / n)  # adjoint of each sample's total

    # -lambda2 log p(y|z): log-softmax, log-density, quadratic form, log-det
    g_lp = np.zeros_like(fwd.log_post)
    g_lp[np.arange(n), y] = -(g * cfg.lambda2)
    g_logits = g_lp - np.exp(fwd.log_post) * g_lp.sum(axis=-1, keepdims=True)
    g_logdet = (-g_logits).sum(axis=0, keepdims=True)  # summed to its (1, C) shape
    g_scaled = (g_logits * -0.5)[:, :, None] * 2.0 * fwd.scaled
    g_z_dev = g_scaled * fwd.inv_sigma
    g_neg_ls3 = (g_scaled * fwd.z_dev).sum(axis=0, keepdims=True) * fwd.inv_sigma
    g_ls3 = np.broadcast_to(g_logdet[:, :, None], fwd.inv_sigma.shape) + -g_neg_ls3
    g_log_sigma_y[...] = g_ls3.reshape(g_log_sigma_y.shape)
    g_mu_y[...] = (-g_z_dev).sum(axis=0, keepdims=True).reshape(g_mu_y.shape)
    g_z = g_z_dev.sum(axis=1, keepdims=True).reshape(n, dz)

    # lambda1 KL: log_sigma_p - log_sigma_x + kl_num / kl_den - 0.5
    g_kl = (g * cfg.lambda1)[:, None]
    g_num = g_kl / fwd.kl_den
    g_den = -g_kl * fwd.kl_num / (fwd.kl_den * fwd.kl_den)
    g_dmu = g_num * 2.0 * fwd.dmu
    g_sigma_x = g_num * fwd.sigma_x
    g_sigma_x = g_sigma_x + g_sigma_x
    g_log_sigma_p = g_kl + g_den * 2.0 * fwd.sigma_sq_p * 2.0
    g_log_sigma_y += _scatter_rows(g_log_sigma_y, y, g_log_sigma_p)
    g_mu_y += _scatter_rows(g_mu_y, y, -g_dmu)

    # lambda0 reconstruction, through the decoder into z
    g_diff = (g * cfg.lambda0 * 0.5)[:, None] * fwd.diff
    g_diff += g_diff
    dec = params.decoder.arrays
    g_z = g_z + mlp_layers_backward(dec, fwd.dec_acts, fwd.dec_pre, g_diff,
                                    grads[n_enc:n_enc + n_dec], input_grad=True)

    # z = mu_x + sigma_x * eps, sigma_x = exp(log_sigma_x), into the encoder
    g_mu_x = g_dmu + g_z
    g_sigma_x = g_sigma_x + g_z * fwd.eps
    g_log_sigma_x = -g_kl + g_sigma_x * fwd.sigma_x
    g_enc = np.concatenate((g_mu_x, g_log_sigma_x), axis=1)
    mlp_layers_backward(params.encoder.arrays, fwd.enc_acts, fwd.enc_pre, g_enc,
                        grads[:n_enc])
    check_finite_gradient(out, grads, lambda k: _array_name(k, n_enc, n_dec))
    return fwd.loss, grads


def _array_name(k: int, n_enc: int, n_dec: int) -> str:
    if k < n_enc:
        return f"encoder array {k}"
    if k < n_enc + n_dec:
        return f"decoder array {k - n_enc}"
    return "mu_y" if k == n_enc + n_dec else "log_sigma_y"


def train_vcae(ds: LabeledDataset, cfg: VcaeConfig, t_cfg: TrainConfig):
    """Minimize the mean loss over the dataset by ``run_epochs``;
    deterministic given seeds.

    Raises ``TrainingDiverged`` naming the epoch and step of a non-finite
    loss, and ``GradientError`` naming the array of a non-finite gradient.
    Runs under the BLAS thread policy of ``blas.limit``.
    """
    init_seed, shuffle_seed, eps_seed = np.random.SeedSequence(t_cfg.seed).generate_state(3)
    params = init_vcae(cfg, ds.dim, int(init_seed))
    opt = make_optimizer(t_cfg.optimizer, t_cfg.lr, t_cfg.momentum,
                         t_cfg.weight_decay)
    eps_rng = np.random.default_rng(int(eps_seed))
    grad = np.empty_like(params.flat)

    def step_fn(idx, step):
        eps = eps_rng.normal(size=(len(idx), cfg.dim_z))
        fwd = vcae_loss_forward(params, ds.features[idx], ds.labels[idx], cfg, eps)
        lval, _ = vcae_backward(fwd, out=grad)
        opt.step([params.flat], [grad])
        return lval

    sampler = shuffle_batches(len(ds), t_cfg.batch_size, int(shuffle_seed), t_cfg.shuffle)
    with blas.limit(t_cfg.batch_size, [ds.dim, *cfg.hidden]):
        history = run_epochs(len(ds), t_cfg, sampler, step_fn, lambda epoch, stats: {
            "epoch": epoch, "loss": stats["train_loss"], "seconds": stats["seconds"]})
    return params, history


def _posterior_weights(params: VcaeParams, ds: LabeledDataset, cap: float,
                       prior: np.ndarray | None):
    """Posterior means z_n, p(y_n | z_n) under ``prior`` (uniform when None)
    and the checked ``SampleWeights`` min(1 / p(y_n | z_n), cap)."""
    from .debias import SampleWeights
    if prior is None:
        prior = np.full(ds.num_classes, 1.0 / ds.num_classes)
    z = encode(params, ds.features).mu
    post = p_y_given_z(params, z, prior)
    p_true = np.maximum(post[np.arange(len(ds)), ds.labels], 1e-300)
    return z, p_true, SampleWeights(np.minimum(1.0 / p_true, cap), provenance="vcae")


def vcae_weights(params: VcaeParams, ds: LabeledDataset,
                 cap: float = 100.0,
                 prior: np.ndarray | None = None):
    """w_n = min(1 / p(y_n | z_n), cap), z_n the posterior mean."""
    return _posterior_weights(params, ds, cap, prior)[2]


def latent_dump(params: VcaeParams, ds: LabeledDataset,
                cap: float = 100.0,
                prior: np.ndarray | None = None) -> list[dict]:
    """Rows for the latent CSV: coordinates, posterior, weight, and the
    (unnormalized) class-conditional log density as a diagnostic."""
    z, p_true, weights = _posterior_weights(params, ds, cap, prior)
    log_pdf = log_p_z_given_y(params, z)
    rows = []
    for i in range(len(ds)):
        row = {"index": i}
        for d in range(params.dim_z):
            row[f"z_{d}"] = z[i, d]
        row["label"] = int(ds.labels[i])
        row["aligned"] = int(ds.aligned[i]) if ds.aligned is not None else ""
        row["p_y_given_z"] = p_true[i]
        row["weight"] = weights.weights[i]
        row["log_p_z_given_y"] = log_pdf[i, ds.labels[i]]
        rows.append(row)
    return rows
