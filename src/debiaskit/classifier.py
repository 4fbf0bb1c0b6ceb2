"""MLP classifier, loss functions, and the one mini-batch epoch loop,
``run_epochs``, that ``train``, LfF (``debias``) and ``vcae.train_vcae``
drive with their own step function and end-of-epoch hook."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import blas
from .data import LabeledDataset, check_schema_version, read_f64le
from .optim import make_optimizer

# loss value at the probability floor 1e-12; caps -log p
P_FLOOR = 1e-12
XENT_MAX = -math.log(P_FLOOR)


class TrainingDiverged(RuntimeError):
    pass


class GradientError(RuntimeError):
    """Raised when a backward pass meets a non-finite gradient or adjoint."""


@dataclass
class GceConfig:
    """Generalized cross-entropy (1 - p^tau) / tau; tau in (0, 1]."""

    tau: float = 0.7

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0,1], got {self.tau}")


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 128
    optimizer: str = "adam"
    lr: float = 1e-3
    momentum: float = 0.0
    weight_decay: float = 0.0
    seed: int = 0
    shuffle: bool = True
    hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.hidden = tuple(self.hidden)


def _mlp_shapes(layer_sizes: list[int]) -> list[tuple[int, ...]]:
    shapes = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        shapes += [(fan_in, fan_out), (fan_out,)]
    return shapes


def flat_views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive slices of the 1-D vector ``flat``, reshaped to ``shapes``
    (views, not copies); ``flat`` must be contiguous and hold exactly their
    total size."""
    sizes = [math.prod(shape) for shape in shapes]
    if flat.shape != (sum(sizes),) or not flat.flags.c_contiguous:
        raise ValueError(f"need a contiguous vector of {sum(sizes)} values, "
                         f"got shape {flat.shape}")
    out, pos = [], 0
    for shape, size in zip(shapes, sizes):
        out.append(flat[pos:pos + size].reshape(shape))
        pos += size
    return out


class MlpParams:
    """Weights of a ReLU MLP, held in one contiguous float64 vector ``flat``.

    ``arrays`` are views into ``flat`` in checkpoint order: W0 (fan_in x
    fan_out, row-major), b0, W1, b1, ... Writing through a view writes the
    vector, so an optimizer steps the whole model as the one array ``flat``.
    ``MlpParams(sizes, arrays)`` copies the given arrays into a new vector;
    ``MlpParams(sizes, flat=v)`` wraps the float64 vector ``v`` without
    copying it.
    """

    def __init__(self, layer_sizes: list[int],
                 arrays: list[np.ndarray] | None = None, *,
                 flat: np.ndarray | None = None):
        self.layer_sizes = list(layer_sizes)
        shapes = _mlp_shapes(self.layer_sizes)
        if (arrays is None) == (flat is None):
            raise ValueError("give either arrays or flat")
        if arrays is not None:
            if [np.shape(a) for a in arrays] != shapes:
                raise ValueError(f"array shapes {[np.shape(a) for a in arrays]} "
                                 f"do not fit layer sizes {self.layer_sizes}")
            flat = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        elif flat.dtype != np.float64:
            raise ValueError(f"flat must be float64, got {flat.dtype}")
        self.flat = flat
        self.arrays = flat_views(flat, shapes)

    def copy(self) -> "MlpParams":
        return MlpParams(self.layer_sizes, flat=self.flat.copy())

    def __repr__(self) -> str:
        return f"MlpParams(layer_sizes={self.layer_sizes})"


def init_mlp(layer_sizes: list[int], seed: int) -> MlpParams:
    """He-initialized weights, zero biases."""
    rng = np.random.default_rng(seed)
    shapes = _mlp_shapes(layer_sizes)
    params = MlpParams(layer_sizes, flat=np.zeros(sum(map(math.prod, shapes))))
    for w in params.arrays[::2]:
        fan_in, fan_out = w.shape
        w[...] = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
    return params


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Logits for a row or batch, plain numpy (no gradient tracking)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.layer_sizes[0]:
        raise ValueError(f"input dim {x.shape[-1]} != {params.layer_sizes[0]}")
    logits = mlp_final_hidden(params, x) @ params.arrays[-2] + params.arrays[-1]
    return logits[0] if x.ndim == 1 else logits


def mlp_final_hidden(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Activation feeding the final linear layer (input x for 0 hidden layers)."""
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n_layers = len(params.arrays) // 2
    for i in range(n_layers - 1):
        h = np.maximum(h @ params.arrays[2 * i] + params.arrays[2 * i + 1], 0.0)
    return h


def log_softmax_numpy(logits: np.ndarray) -> np.ndarray:
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    m = logits.max(axis=-1, keepdims=True)
    return logits - (np.log(np.exp(logits - m).sum(axis=-1, keepdims=True)) + m)


def softmax_numpy(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax_numpy(logits))


def softmax_xent(logits, y):
    """Per-sample -log softmax(logits)[y], capped at -log(1e-12)."""
    y = np.asarray(y, dtype=np.int64)
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    if np.any(y < 0) or np.any(y >= logits.shape[-1]):
        raise ValueError("label out of range")
    lp = log_softmax_numpy(logits)
    raw = -lp[np.arange(lp.shape[0]), np.atleast_1d(y)]
    out = np.minimum(raw, XENT_MAX)
    return out[0] if np.ndim(y) == 0 else out


def gce_loss(p_y, tau: float):
    """(1 - p^tau) / tau on the true-class probability; p floored at 1e-12."""
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0,1], got {tau}")
    p = np.maximum(np.asarray(p_y, dtype=np.float64), P_FLOOR)
    if np.any(p > 1.0):
        raise ValueError("probability above 1")
    return (1.0 - p ** tau) / tau


def weighted_mean_loss(per_sample_losses, weights):
    """(1/B) * sum(w_n * loss_n). Divides by batch size, not by the weight sum."""
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("negative weight")
    losses = np.asarray(per_sample_losses, dtype=np.float64)
    if w.shape != losses.shape:
        raise ValueError("weights/losses length mismatch")
    return float((losses * w).sum() / losses.shape[0])


def shuffle_batches(n: int, batch_size: int, seed: int,
                    shuffle: bool = True) -> Iterator[np.ndarray]:
    """Epoch-permutation batch stream (infinite)."""
    rng = np.random.default_rng(seed)
    while True:
        order = rng.permutation(n) if shuffle else np.arange(n)
        for start in range(0, n, batch_size):
            yield order[start:start + batch_size]


@dataclass
class MlpPass:
    """One batch through the MLP, kept for ``mlp_backward``.

    ``acts[i]`` is the input to linear layer i (the batch for i = 0) and
    ``pre[i]`` the pre-activation of hidden layer i.
    """

    params: MlpParams
    acts: list[np.ndarray]
    pre: list[np.ndarray]
    log_probs: np.ndarray          # (B, C) log-softmax of the (offset) logits
    labels: np.ndarray
    log_p_y: np.ndarray            # (B,) log-probability of the true class
    loss: str
    tau: float

    def xent(self) -> np.ndarray:
        """Per-sample cross-entropy capped at XENT_MAX, as ``softmax_xent``."""
        return np.minimum(-self.log_p_y, XENT_MAX)


def mlp_layers(arrays: list[np.ndarray], h: np.ndarray):
    """Forward of a 2-D batch ``h`` through the ReLU layers ``arrays`` (W, b
    alternating): the output, the input of every linear layer (``h`` first)
    and the pre-activation of every hidden layer, as ``mlp_layers_backward``
    needs them."""
    acts, pre = [h], []
    n_layers = len(arrays) // 2
    for i in range(n_layers):
        # in place: at 128x768 a second temporary made this layer ~3x slower
        h = h @ arrays[2 * i]
        h += arrays[2 * i + 1]
        if i < n_layers - 1:
            pre.append(h)
            h = np.maximum(h, 0.0)
            acts.append(h)
    return h, acts, pre


def mlp_layers_backward(arrays: list[np.ndarray], acts: list[np.ndarray],
                        pre: list[np.ndarray], g: np.ndarray,
                        grads: list[np.ndarray], input_grad: bool = False):
    """Reverse sweep of ``mlp_layers`` from the output adjoint ``g``, in the
    tape's operation order. Writes the gradient of each W, b into ``grads``;
    returns the adjoint of the input batch when ``input_grad``, else None."""
    for i in range(len(arrays) // 2 - 1, -1, -1):
        np.matmul(acts[i].T, g, out=grads[2 * i])
        g.sum(axis=0, out=grads[2 * i + 1])
        if i > 0:
            g = (g @ arrays[2 * i].T) * (pre[i - 1] > 0.0)
    return g @ arrays[0].T if input_grad else None


def check_finite_gradient(flat: np.ndarray, grads: list[np.ndarray],
                          name: Callable[[int], str]) -> None:
    """One ``isfinite`` pass over the gradient vector ``flat``, which the
    views ``grads`` tile; on a miss, ``GradientError`` gives ``name(k)`` of
    the first array ``k`` that holds a non-finite value."""
    if not np.isfinite(flat).all():
        k = next(k for k, gk in enumerate(grads) if not np.isfinite(gk).all())
        raise GradientError(f"non-finite gradient of {name(k)}")


def mlp_loss_forward(params: MlpParams, x: np.ndarray, y: np.ndarray, *,
                     loss: str = "xent", tau: float = 0.7,
                     logit_offset: np.ndarray | None = None) -> MlpPass:
    """Closed-form forward of the ReLU MLP for an xent or GCE loss.

    Performs the numpy operations of the tape graph (the layers, then the
    capped cross-entropy or GCE on the true-class probability) in the same
    order, so every value matches the tape bit for bit.
    """
    if loss not in ("xent", "gce"):
        raise ValueError(f"unknown loss {loss!r}")
    if loss == "gce" and not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0,1], got {tau}")
    y = np.asarray(y, dtype=np.int64)
    if np.any(y < 0) or np.any(y >= params.layer_sizes[-1]):
        raise ValueError("label out of range")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    h, acts, pre = mlp_layers(params.arrays, x)
    if logit_offset is not None:
        h = h + logit_offset
    log_probs = log_softmax_numpy(h)
    return MlpPass(params, acts, pre, log_probs, y,
                   log_probs[np.arange(h.shape[0]), y], loss, float(tau))


def mlp_backward(fwd: MlpPass, weights: np.ndarray,
                 out: MlpParams | None = None) -> tuple[float, list[np.ndarray]]:
    """Weighted mean loss (1/B) sum(w_n loss_n) and its parameter gradients.

    Replays the tape's reverse sweep op for op, except that no adjoint is
    formed for the input batch. The gradients are written through the views
    ``out.arrays`` into ``out.flat``, laid out like the parameters (a new
    ``out`` when omitted), and ``out.arrays`` is returned. Raises
    ``TrainingDiverged`` on a non-finite loss before any gradient is formed,
    and ``GradientError`` on a non-finite gradient.
    """
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("negative weight")
    n = fwd.log_p_y.shape[0]
    if w.shape != (n,):
        raise ValueError("weights/losses length mismatch")
    if fwd.loss == "xent":
        losses = fwd.xent()
    else:
        p = np.exp(fwd.log_p_y)
        p_floored = np.maximum(p, P_FLOOR)
        losses = (1.0 - p_floored ** fwd.tau) / fwd.tau
    lval = float((losses * w).sum() * (1.0 / n))
    if not math.isfinite(lval):
        raise TrainingDiverged(f"non-finite loss {lval}")
    g = np.full(n, 1.0 / n) * w
    if fwd.loss == "xent":
        g = -(g * (-fwd.log_p_y <= XENT_MAX))
    else:
        g = -(g / fwd.tau) * fwd.tau * p_floored ** (fwd.tau - 1.0)
        g = g * (p >= P_FLOOR) * p
    g_lp = np.zeros_like(fwd.log_probs)
    g_lp[np.arange(n), fwd.labels] = g
    g = g_lp - np.exp(fwd.log_probs) * g_lp.sum(axis=-1, keepdims=True)
    if out is None:
        out = MlpParams(fwd.params.layer_sizes, flat=np.empty_like(fwd.params.flat))
    elif out.layer_sizes != fwd.params.layer_sizes:
        raise ValueError("gradient and parameter layouts differ")
    grads = out.arrays
    mlp_layers_backward(fwd.params.arrays, fwd.acts, fwd.pre, g, grads)
    check_finite_gradient(out.flat, grads, lambda k: f"parameter array {k}")
    return lval, grads


def run_epochs(n: int, cfg: TrainConfig, sampler: Iterator[np.ndarray],
               step_fn: Callable[[np.ndarray, int], float],
               end_epoch: Callable[[int, dict], object]) -> list:
    """``cfg.epochs`` epochs of ``ceil(n / cfg.batch_size)`` steps; returns
    the list of ``end_epoch(epoch, stats)`` records.

    A step calls ``step_fn(next(sampler), step)``, which updates the model
    and returns the batch's mean loss; a ``TrainingDiverged`` it raises is
    re-raised naming the epoch and step. ``stats`` holds epoch, train_loss
    (the batch losses' mean over rows), seconds, step (steps so far) and
    seen (rows drawn in the epoch).
    """
    n_steps = math.ceil(n / cfg.batch_size)
    history = []
    step = 0
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        loss_total = 0.0
        seen = 0
        for _ in range(n_steps):
            idx = next(sampler)
            try:
                lval = step_fn(idx, step)
            except TrainingDiverged as exc:
                raise TrainingDiverged(f"{exc} at epoch {epoch} step {step}") from None
            loss_total += lval * len(idx)
            seen += len(idx)
            step += 1
        history.append(end_epoch(epoch, {
            "epoch": epoch, "train_loss": loss_total / seen,
            "seconds": time.perf_counter() - t0, "step": step, "seen": seen}))
    return history


def train(ds: LabeledDataset, cfg: TrainConfig, *,
          loss: str = "xent",
          tau: float = 0.7,
          weight_fn: Callable[[np.ndarray, int], np.ndarray] | None = None,
          sampler: Iterator[np.ndarray] | None = None,
          logit_offset: np.ndarray | None = None,
          eval_fn: Callable[[int, MlpParams, dict], object] | None = None,
          params: MlpParams | None = None,
          abort_xent_above: float | None = None):
    """Train one MLP by ``run_epochs``, for every weighting strategy.

    ``weight_fn(indices, step)`` returns per-sample loss weights (default 1).
    ``sampler`` yields batch index arrays per step (default: seeded epoch
    shuffle). ``logit_offset`` is an (N, C) constant added to the logits of
    the drawn samples before the loss (used for target adjustment).
    ``eval_fn(epoch, params, stats)`` builds the per-epoch history record
    (default: ``stats``, which also holds train_xent, the mean uncapped
    cross-entropy). Deterministic given cfg.seed and inputs. Runs under
    the BLAS thread policy of ``blas.limit``.
    """
    init_seed, shuffle_seed = np.random.SeedSequence(cfg.seed).generate_state(2)
    if params is None:
        params = init_mlp([ds.dim, *cfg.hidden, ds.num_classes], int(init_seed))
    else:
        params = params.copy()
    if sampler is None:
        sampler = shuffle_batches(len(ds), cfg.batch_size, int(shuffle_seed), cfg.shuffle)
    opt = make_optimizer(cfg.optimizer, cfg.lr, cfg.momentum, cfg.weight_decay)
    grad = MlpParams(params.layer_sizes, flat=np.empty_like(params.flat))
    xent_total = 0.0

    def step_fn(idx, step):
        nonlocal xent_total
        w = np.ones(len(idx)) if weight_fn is None else np.asarray(weight_fn(idx, step), dtype=np.float64)
        fwd = mlp_loss_forward(
            params, ds.features[idx], ds.labels[idx], loss=loss, tau=tau,
            logit_offset=None if logit_offset is None else logit_offset[idx])
        lval, _ = mlp_backward(fwd, w, out=grad)
        opt.step([params.flat], [grad.flat])
        # uncapped cross-entropy of the raw logits, for divergence tracking
        xent_total += float((-fwd.log_p_y).sum())
        return lval

    def end_epoch(epoch, stats):
        nonlocal xent_total
        stats["train_xent"], xent_total = xent_total / stats["seen"], 0.0
        if abort_xent_above is not None and stats["train_xent"] > abort_xent_above:
            raise TrainingDiverged(
                f"mean train cross-entropy {stats['train_xent']:.1f} exceeded "
                f"{abort_xent_above}: amplification training collapsed "
                f"(loss spiking on rare conflicting samples); lower t_bias or tau")
        return stats if eval_fn is None else eval_fn(epoch, params, stats)

    with blas.limit(cfg.batch_size, [ds.dim, *cfg.hidden]):
        return params, run_epochs(len(ds), cfg, sampler, step_fn, end_epoch)


# --- checkpoints: model.json + params.f64le ---------------------------------

def save_model(params: MlpParams, out_dir: str | Path,
               extra: dict | None = None) -> None:
    """Flat little-endian doubles in array order: W0 (row-major), b0, W1, b1, ..."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"schema_version": 1, "layer_sizes": params.layer_sizes}
    if extra:
        meta.update(extra)
    (out / "model.json").write_text(json.dumps(meta, indent=2) + "\n")
    (out / "params.f64le").write_bytes(params.flat.astype("<f8", copy=False).tobytes())


def load_model(in_dir: str | Path) -> tuple[MlpParams, dict]:
    src = Path(in_dir)
    meta = json.loads((src / "model.json").read_text())
    check_schema_version(meta, src / "model.json")
    sizes = meta["layer_sizes"]
    count = sum(map(math.prod, _mlp_shapes(sizes)))
    return MlpParams(sizes, flat=read_f64le(src / "params.f64le", count)), meta
