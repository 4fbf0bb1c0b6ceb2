import math

import numpy as np
import pytest

from debiaskit import autodiff as ad
from debiaskit import classifier
from debiaskit.causal import ClassifierTable, DiscreteJoint, conditional_u_given_b
from debiaskit.classifier import P_FLOOR, XENT_MAX, MlpParams
from debiaskit.data import LabeledDataset
from debiaskit.vcae import LOG_2PI, VcaeConfig, VcaeParams


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def central_diff(f, arrays, h=1e-5):
    """Gradient of scalar f(arrays) by central finite differences.

    Independent oracle: evaluates f only, never the reverse sweep.
    """
    grads = []
    for k, a in enumerate(arrays):
        g = np.zeros_like(a)
        flat = a.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f(arrays)
            flat[i] = orig - h
            down = f(arrays)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def params_of(sizes, arrays) -> MlpParams:
    """``MlpParams`` for the layer ``sizes`` holding a copy of ``arrays``."""
    return MlpParams(sizes, flat=np.concatenate([np.ravel(a) for a in arrays],
                                                dtype=np.float64))


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


# --- the tape route: the oracle for every closed-form gradient ---------------

def _forward_graph(tape: ad.Tape, leaves: list[ad.Node], x) -> ad.Node:
    """Differentiable ReLU MLP forward; ``leaves`` alternate W, b.

    ``x`` may be a constant batch or an upstream tape node.
    """
    h = x if isinstance(x, ad.Node) else tape.const(
        np.atleast_2d(np.asarray(x, dtype=np.float64)))
    n_layers = len(leaves) // 2
    for i in range(n_layers):
        h = h @ leaves[2 * i] + leaves[2 * i + 1]
        if i < n_layers - 1:
            h = ad.relu(h)
    return h


def softmax_xent(logits, y):
    """``classifier.softmax_xent``, differentiable when ``logits`` is a node."""
    if not isinstance(logits, ad.Node):
        return classifier.softmax_xent(logits, y)
    y = np.asarray(y, dtype=np.int64)
    if np.any(y < 0) or np.any(y >= logits.value.shape[-1]):
        raise ValueError("label out of range")
    losses = -ad.take_per_row(ad.log_softmax(logits), y)
    return ad.clamp_max(losses, XENT_MAX)


def gce_loss(p_y, tau: float):
    """``classifier.gce_loss``, differentiable when ``p_y`` is a node."""
    if not isinstance(p_y, ad.Node):
        return classifier.gce_loss(p_y, tau)
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0,1], got {tau}")
    p = ad.clamp_min(p_y, P_FLOOR)
    return (1.0 - p ** tau) / tau


def weighted_mean_loss(per_sample_losses, weights):
    """``classifier.weighted_mean_loss``, differentiable on a node."""
    if not isinstance(per_sample_losses, ad.Node):
        return classifier.weighted_mean_loss(per_sample_losses, weights)
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("negative weight")
    n = per_sample_losses.value.shape[0]
    if w.shape != (n,):
        raise ValueError("weights/losses length mismatch")
    return (per_sample_losses * w).sum() * (1.0 / n)


def gce_tape_loss(logits, y, tau, weights):
    """Weighted mean GCE of a tape logits node: the tape oracle for GCE steps."""
    p = ad.exp(ad.take_per_row(ad.log_softmax(logits), np.asarray(y, dtype=np.int64)))
    return weighted_mean_loss(gce_loss(p, tau), weights)


def tape_loss_and_grads(arrays, x, y, weights, *, loss="xent", tau=0.7,
                        logit_offset=None):
    """One MLP training step through the general-purpose tape: the reference
    that the closed-form ``mlp_loss_forward``/``mlp_backward`` pair must match."""
    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    logits = _forward_graph(tape, leaves, x)
    if logit_offset is not None:
        logits = logits + tape.const(logit_offset)
    if loss == "xent":
        batch_loss = weighted_mean_loss(softmax_xent(logits, y), weights)
    else:
        batch_loss = gce_tape_loss(logits, y, tau, weights)
    return batch_loss.item(), tape.backward(batch_loss, wrt=leaves)


# --- per-array optimizers: the oracle for the in-place flat-vector step ------

class RefSgd:
    """SGD with classical momentum, one temporary per operation and array."""

    def __init__(self, lr, momentum=0.0, weight_decay=0.0):
        self.lr, self.momentum, self.weight_decay = lr, momentum, weight_decay
        self.buffers = None

    def step(self, params, grads):
        if self.buffers is None:
            self.buffers = [np.zeros_like(p) for p in params]
        for p, g, buf in zip(params, grads, self.buffers):
            buf *= self.momentum
            buf += g
            p -= self.lr * (buf + self.weight_decay * p)


class RefAdam:
    """Adam with bias correction, one temporary per operation and array."""

    def __init__(self, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.weight_decay = lr, weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = self.v = None

    def step(self, params, grads):
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            if self.weight_decay:
                g = g + self.weight_decay * p
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def ref_optimizer(name, lr, momentum=0.0, weight_decay=0.0):
    """Per-array reference for ``optim.make_optimizer``."""
    if name == "sgd":
        return RefSgd(lr, momentum, weight_decay)
    return RefAdam(lr, weight_decay)


def assert_views_of_flat(flat, arrays):
    """``arrays`` are views that tile the vector ``flat`` in order."""
    assert flat.ndim == 1 and flat.dtype == np.float64 and flat.flags.c_contiguous
    assert sum(a.size for a in arrays) == flat.size
    base = flat.__array_interface__["data"][0]
    offset = 0
    for a in arrays:
        assert np.shares_memory(a, flat)
        assert a.__array_interface__["data"][0] == base + 8 * offset
        assert a.flags.c_contiguous
        offset += a.size


def kill_unit(params: MlpParams, unit: int, zero: float) -> None:
    """Give ``unit`` of every hidden layer of ``params`` a weight column and
    bias of ``zero`` (0.0 or -0.0): its pre-activation is then exactly 0.0
    or -0.0 on every row of a finite batch, the edge of the ReLU mask."""
    for w, b in zip(params.arrays[:-2:2], params.arrays[1:-2:2]):
        w[:, unit] = zero
        b[unit] = zero


# --- helpers that only the tests use -----------------------------------------

def log(a: ad.Node) -> ad.Node:
    """Tape op: elementwise natural log."""
    return ad._unary("log", a, np.log, lambda g, x, v: g / x)


def logsumexp(a: ad.Node, axis: int = -1) -> ad.Node:
    """Tape op: max-shifted log-sum-exp over ``axis``, which is dropped."""
    x = a.value
    m = x.max(axis=axis, keepdims=True)
    val = np.log(np.exp(x - m).sum(axis=axis, keepdims=True)) + m
    val_sq = np.squeeze(val, axis=axis)

    def bw(g):
        soft = np.exp(x - val)
        return (np.expand_dims(g, axis) * soft,)

    return a.tape._op("logsumexp", (a,), val_sq, bw)


def _loss_graph(tape: ad.Tape, leaves: dict, x: np.ndarray, y: np.ndarray,
                cfg: VcaeConfig, eps: np.ndarray):
    """VCAE per-batch loss node. ``leaves``: enc (list), dec (list), mu_y,
    log_sigma_y. The graph that ``vcae_loss_and_grads`` replays."""
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
    uniform = np.full(cfg.num_classes, 1.0 / cfg.num_classes)
    class_logits = log_pdf + tape.const(np.log(uniform))
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


def tape_vcae_loss_and_grads(params: VcaeParams, x, y, cfg: VcaeConfig, eps):
    """One VCAE step through the tape: the reference that the closed-form
    ``vcae_loss_and_grads`` must match."""
    tape, leaves = _make_leaves(params)
    loss = _loss_graph(tape, leaves, x, y, cfg, eps)
    return loss.item(), tape.backward(loss, wrt=_flat_leaves(leaves))


def vcae_loss(params: VcaeParams, x: np.ndarray, y: np.ndarray,
              cfg: VcaeConfig, eps: np.ndarray) -> float:
    """Loss value for a batch with a frozen reparameterization draw eps."""
    tape, leaves = _make_leaves(params)
    node = _loss_graph(tape, leaves, np.atleast_2d(x),
                       np.atleast_1d(np.asarray(y, dtype=np.int64)), cfg,
                       np.atleast_2d(eps))
    val = node.item()
    if not math.isfinite(val):
        raise RuntimeError("non-finite loss")
    return val


def lw_loss_reference(j: DiscreteJoint, q: ClassifierTable) -> float:
    """Second, loop-ordered enumeration of the same objective: iterate the
    observational joint and apply the stabilized weight cell by cell."""
    p_u_given_b = conditional_u_given_b(j)
    pu = j.p_u()
    total = 0.0
    for y in range(j.n_y):
        for b in range(j.n_b):
            for u in range(j.n_u):
                if j.p_y_given_ub[u, b, y] == 0.0:
                    continue
                w = pu[u] / p_u_given_b[u, b]
                total += (j.p_ub[u, b] * j.p_y_given_ub[u, b, y] * w
                          * -np.log(q.q[u, b, y]))
    return total


def subset(ds: LabeledDataset, idx: np.ndarray) -> LabeledDataset:
    return LabeledDataset(
        features=ds.features[idx],
        labels=ds.labels[idx],
        num_classes=ds.num_classes,
        bias=None if ds.bias is None else ds.bias[idx],
        aligned=None if ds.aligned is None else ds.aligned[idx],
        cfg=ds.cfg,
    )


def split(ds: LabeledDataset, train_fraction: float, seed: int):
    """Disjoint (train, test) partition under a seeded shuffle."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0,1)")
    n = len(ds)
    perm = np.random.default_rng(seed).permutation(n)
    cut = int(round(n * train_fraction))
    if cut == 0 or cut == n:
        raise ValueError("degenerate split: one side is empty")
    return subset(ds, perm[:cut]), subset(ds, perm[cut:])
