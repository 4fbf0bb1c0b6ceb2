import numpy as np
import pytest

from debiaskit import autodiff as ad
from debiaskit.classifier import (_forward_graph, gce_loss, softmax_xent,
                                  weighted_mean_loss)


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
