"""Clustering variational autoencoder with class-conditional Gaussian latents.

The latent prior of class c is an isotropic Gaussian N(mu_c, sigma_c^2 I)
with learnable mean and scale. Training combines reconstruction,
per-class KL, and the latent class posterior p(y|z) obtained from the
class Gaussians by Bayes' rule. Sample weights are 1 / p(y_n | z_n)
capped at a constant, with z_n the posterior mean.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .classifier import (MlpParams, TrainConfig, _forward_graph, flat_views,
                         init_mlp, mlp_forward)
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
    prior: np.ndarray | None = None  # p(y); uniform when omitted

    def __post_init__(self):
        if min(self.lambda0, self.lambda1, self.lambda2) < 0:
            raise ValueError("lambda coefficients must be nonnegative")
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


def _loss_graph(tape: ad.Tape, leaves: dict, x: np.ndarray, y: np.ndarray,
                cfg: VcaeConfig, eps: np.ndarray):
    """Per-batch loss node. ``leaves``: enc (list), dec (list), mu_y, log_sigma_y."""
    n, dz = x.shape[0], cfg.dim_z
    enc_out = _forward_graph(tape, leaves["enc"], x)
    mu_x = ad.slice_cols(enc_out, 0, dz)
    log_sigma_x = ad.slice_cols(enc_out, dz, 2 * dz)
    sigma_x = ad.exp(log_sigma_x)
    z = mu_x + sigma_x * eps

    x_hat = _forward_graph(tape, leaves["dec"], z)
    diff = x_hat - tape.const(x)
    rec = (diff * diff).sum(axis=1) * 0.5  # unit-variance Gaussian, constants dropped

    mu_p = ad.rows(leaves["mu_y"], y)
    log_sigma_p = ad.rows(leaves["log_sigma_y"], y)
    sigma_sq_p = ad.exp(log_sigma_p * 2.0)
    kl_terms = (log_sigma_p - log_sigma_x
                + (sigma_x * sigma_x + (mu_x - mu_p) ** 2.0) / (sigma_sq_p * 2.0)
                - 0.5)
    kl = kl_terms.sum(axis=1)

    z3 = ad.reshape(z, (n, 1, dz))
    mu3 = ad.reshape(leaves["mu_y"], (1, cfg.num_classes, dz))
    ls3 = ad.reshape(leaves["log_sigma_y"], (1, cfg.num_classes, dz))
    quad = (((z3 - mu3) * ad.exp(-ls3)) ** 2.0).sum(axis=2)
    logdet = ad.vsum(ls3, axis=2)
    log_pdf = quad * -0.5 - logdet - 0.5 * dz * LOG_2PI
    class_logits = log_pdf + tape.const(np.log(cfg.prior))
    log_post = ad.log_softmax(class_logits)
    xent = -ad.take_per_row(log_post, y)

    total = rec * cfg.lambda0 + kl * cfg.lambda1 + xent * cfg.lambda2
    return total.mean()


def _make_leaves(params: VcaeParams):
    tape = ad.Tape()
    leaves = {
        "enc": [tape.leaf(a) for a in params.encoder.arrays],
        "dec": [tape.leaf(a) for a in params.decoder.arrays],
        "mu_y": tape.leaf(params.mu_y),
        "log_sigma_y": tape.leaf(params.log_sigma_y),
    }
    return tape, leaves


def _flat_leaves(leaves: dict) -> list:
    return [*leaves["enc"], *leaves["dec"], leaves["mu_y"], leaves["log_sigma_y"]]


def train_vcae(ds: LabeledDataset, cfg: VcaeConfig, t_cfg: TrainConfig):
    """Minimize the mean loss over the dataset; deterministic given seeds."""
    init_seed, shuffle_seed, eps_seed = np.random.SeedSequence(t_cfg.seed).generate_state(3)
    params = init_vcae(cfg, ds.dim, int(init_seed))
    opt = make_optimizer(t_cfg.optimizer, t_cfg.lr, t_cfg.momentum,
                         t_cfg.weight_decay)
    shuffle_rng = np.random.default_rng(int(shuffle_seed))
    eps_rng = np.random.default_rng(int(eps_seed))
    grad = np.empty_like(params.flat)
    grad_views = flat_views(grad, [a.shape for a in params.arrays()])
    n = len(ds)
    history = []
    for epoch in range(t_cfg.epochs):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(n) if t_cfg.shuffle else np.arange(n)
        total = 0.0
        for start in range(0, n, t_cfg.batch_size):
            idx = order[start:start + t_cfg.batch_size]
            xb, yb = ds.features[idx], ds.labels[idx]
            eps = eps_rng.normal(size=(len(idx), cfg.dim_z))
            tape, leaves = _make_leaves(params)
            loss = _loss_graph(tape, leaves, xb, yb, cfg, eps)
            lval = loss.item()
            if not math.isfinite(lval):
                raise RuntimeError(f"non-finite loss at epoch {epoch}")
            for dst, g in zip(grad_views, tape.backward(loss, wrt=_flat_leaves(leaves))):
                dst[...] = g
            opt.step([params.flat], [grad])
            total += lval * len(idx)
        history.append({"epoch": epoch, "loss": total / n,
                        "seconds": time.perf_counter() - t0})
    return params, history


def _posterior_weights(params: VcaeParams, ds: LabeledDataset, cap: float,
                       prior: np.ndarray | None):
    """Posterior means z_n, p(y_n | z_n) under ``prior`` (uniform when None)
    and the weights min(1 / p(y_n | z_n), cap)."""
    if prior is None:
        prior = np.full(ds.num_classes, 1.0 / ds.num_classes)
    z = encode(params, ds.features).mu
    post = p_y_given_z(params, z, prior)
    p_true = np.maximum(post[np.arange(len(ds)), ds.labels], 1e-300)
    return z, p_true, np.minimum(1.0 / p_true, cap)


def vcae_weights(params: VcaeParams, ds: LabeledDataset,
                 cap: float = 100.0,
                 prior: np.ndarray | None = None):
    """w_n = min(1 / p(y_n | z_n), cap), z_n the posterior mean."""
    from .debias import SampleWeights
    _, _, w = _posterior_weights(params, ds, cap, prior)
    return SampleWeights(w, provenance="vcae")


def latent_dump(params: VcaeParams, ds: LabeledDataset,
                cap: float = 100.0,
                prior: np.ndarray | None = None) -> list[dict]:
    """Rows for the latent CSV: coordinates, posterior, weight, and the
    (unnormalized) class-conditional log density as a diagnostic."""
    z, p_true, w = _posterior_weights(params, ds, cap, prior)
    log_pdf = log_p_z_given_y(params, z)
    rows = []
    for i in range(len(ds)):
        row = {"index": i}
        for d in range(params.dim_z):
            row[f"z_{d}"] = z[i, d]
        row["label"] = int(ds.labels[i])
        row["aligned"] = int(ds.aligned[i]) if ds.aligned is not None else ""
        row["p_y_given_z"] = p_true[i]
        row["weight"] = w[i]
        row["log_p_z_given_y"] = log_pdf[i, ds.labels[i]]
        rows.append(row)
    return rows
