import math

import numpy as np
import pytest

from debiaskit import autodiff as ad
from debiaskit.causal import ClassifierTable, DiscreteJoint, conditional_u_given_b
from debiaskit.classifier import (_forward_graph, gce_loss, softmax_xent,
                                  weighted_mean_loss)
from debiaskit.data import LabeledDataset
from debiaskit.vcae import VcaeConfig, VcaeParams, _loss_graph, _make_leaves


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


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


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
