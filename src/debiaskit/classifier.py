"""MLP classifier, loss functions, the one mini-batch epoch loop
``run_epochs``, and ``train``, the one MLP trainer on it. Every weighting
scheme, LfF (``debias``) included, trains its classifier through ``train``;
``vcae.train_vcae`` drives ``run_epochs`` with its own step."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import blas
from .data import (SCHEMA_VERSION, ConfigError, LabeledDataset, check_fields, read_f64le,
                   read_meta, write_f64le, write_json)
from .optim import OPTIMIZERS, make_optimizer

# loss value at the probability floor 1e-12; caps -log p
P_FLOOR = 1e-12
XENT_MAX = -math.log(P_FLOOR)


class TrainingDiverged(RuntimeError):
    pass


class GradientError(RuntimeError):
    """Raised when a backward pass meets a non-finite gradient or adjoint."""


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
        check_fields(self)
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, "
                              f"got {self.optimizer!r}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0.0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not all(w >= 1 for w in self.hidden):
            raise ConfigError(f"hidden widths must be >= 1, got {self.hidden}")
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
    ``MlpParams(sizes, flat=v)`` wraps the float64 vector ``v`` without
    copying it.
    """

    def __init__(self, layer_sizes: list[int], *, flat: np.ndarray):
        self.layer_sizes = list(layer_sizes)
        if flat.dtype != np.float64:
            raise ValueError(f"flat must be float64, got {flat.dtype}")
        self.flat = flat
        self.arrays = flat_views(flat, _mlp_shapes(self.layer_sizes))

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


# Fewest multiply-adds of a dgemm row block that, at one OpenBLAS thread, has
# the bits of the whole product: every block of ``row_blocks`` keeps at least
# this many.
BLOCK_MACS = 2**20


def row_blocks(params: MlpParams, n: int) -> list[slice]:
    """Row blocks of an ``n``-row pass through ``params``: k = max(n // rows, 1)
    blocks in order, whose sizes differ by at most one row. Once n >= rows,
    each block has at least ``rows`` rows and fewer than ``rows + rows / k``.

    ``rows = max(1024, ceil(BLOCK_MACS / min(fan_in * fan_out)))`` keeps every
    layer of every block at or above BLOCK_MACS. At or below 10**6, dgemm may
    take another kernel: against the first M rows of a 20,000-row product
    (OpenBLAS 0.3.31, 1 or 2 threads), an M-row product's rows differed up to
    M = 1,562 for 64 -> 10 (999,680 multiply-adds), 20 for 768 -> 64 (983,040),
    40 for 768 -> 32, 1 for 20 -> 64 and 64 -> 64, and at every M to 4,199 for
    16 -> 4 and 32 -> 4. So a block's rows are the bytes of the whole pass's.
    The 1,024-row floor is for wide layers, which need few rows: with no
    floor, a [768, 3000, 10] pass over 10,000 rows ran 285 blocks of 35 rows
    in 1.07 s against 0.77-0.84 s in nine blocks at 1,024 (medians of 7, one
    thread of a 2-vCPU Intel Xeon): dgemm repacks the wide weight per block."""
    rows = max(1024, math.ceil(BLOCK_MACS / min(w.size for w in params.arrays[::2])))
    k = max(n // rows, 1)
    bounds = [n * i // k for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def forward_block(params: MlpParams, x: np.ndarray, outs: list[np.ndarray]) -> np.ndarray:
    """The row block ``x`` through the linear layers of ``params``, layer i
    into the first ``len(x)`` rows of ``outs[i]``, each hidden layer's ReLU
    in place; returns the logits. The one forward layer loop: of training
    steps (the MLP, LfF's psi, the amplifier) and the VCAE step through
    ``mlp_layers``, and of every full-data pass through ``logit_blocks``.
    In place, because at 128x768 a second temporary made a layer ~3x slower."""
    h, arrays = x, params.arrays
    for i, out in enumerate(outs):
        h = np.matmul(h, arrays[2 * i], out=out[:len(x)])
        h += arrays[2 * i + 1]
        if 2 * i + 2 < len(arrays):
            np.maximum(h, 0.0, out=h)
    return h


class BlockWorkspace:
    """The buffers of ``logit_blocks`` passes through MLPs laid out like
    ``params`` over splits of ``ns`` rows: each hidden layer's output and
    the logits, for the largest block of any split; with ``losses`` loss
    vectors as long as the longest split, also the logits' log-softmax,
    which ``mlp_xent`` writes. Made once and written by every pass, so that
    a pass allocates nothing that grows with rows x width."""

    def __init__(self, params: MlpParams, *ns: int, losses: int = 0):
        rows = max(b.stop - b.start for n in ns for b in row_blocks(params, n))
        sizes = params.layer_sizes
        self.hidden = [np.empty((rows, w)) for w in sizes[1:-1]]
        self.logits = np.empty((rows, sizes[-1]))
        self.log_probs = np.empty_like(self.logits) if losses else None
        self.losses = np.empty((losses, max(ns)))


def logit_blocks(params: MlpParams, x: np.ndarray,
                 ws: BlockWorkspace) -> Iterator[tuple[slice, np.ndarray]]:
    """``(rows, logits of x[rows])`` for each of ``row_blocks`` of the 2-D
    ``x``, at one BLAS thread (``blas``): the one full-data pass. Each block
    runs ``forward_block`` into ``ws``, so its last hidden layer is the first
    rows of ``ws.hidden[-1]`` and its logits those of ``ws.logits``; they
    hold until the next block."""
    with blas.limit():
        for rows in row_blocks(params, len(x)):
            yield rows, forward_block(params, x[rows], [*ws.hidden, ws.logits])


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Logits for a row or batch, plain numpy (no gradient tracking), each
    block of ``logit_blocks`` copied out of a workspace of its own."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.layer_sizes[0]:
        raise ValueError(f"input dim {x.shape[-1]} != {params.layer_sizes[0]}")
    batch = np.atleast_2d(x)
    logits = np.empty((len(batch), params.layer_sizes[-1]))
    for rows, block in logit_blocks(params, batch, BlockWorkspace(params, len(batch))):
        logits[rows] = block
    return logits[0] if x.ndim == 1 else logits


def mlp_xent(params: MlpParams, x: np.ndarray, y: np.ndarray, ws: BlockWorkspace,
             out: np.ndarray) -> np.ndarray:
    """``softmax_xent(mlp_forward(params, x), y)`` into ``out``, by
    ``logit_blocks`` through ``ws``: the operations are per row, so the bits
    are the same."""
    for rows, logits in logit_blocks(params, x, ws):
        lp = log_softmax_numpy(logits, out=ws.log_probs[:len(logits)])
        np.minimum(-lp[np.arange(len(lp)), y[rows]], XENT_MAX, out=out[rows])
    return out


def log_softmax_numpy(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    # row maxima of the transposed copy: ~3x faster on short rows, and exact in any order
    m = np.maximum.reduce(logits.T.copy(), axis=0)[:, None]
    e = np.exp(np.subtract(logits, m, out=out), out=out)  # ``out`` must not be ``logits``
    return np.subtract(logits, np.log(e.sum(axis=-1, keepdims=True)) + m, out=out)


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

    ``acts[i]`` is the input to linear layer i: the batch for i = 0, else
    the output of hidden layer i - 1 after its ReLU. A pass's arrays are
    its own: no later step writes into them.
    """

    params: MlpParams
    acts: list[np.ndarray]
    log_probs: np.ndarray          # (B, C) log-softmax of the (offset) logits
    labels: np.ndarray
    nll: np.ndarray                # (B,) -log-probability of the true class
    loss: str
    tau: float

    def xent(self) -> np.ndarray:
        """Per-sample cross-entropy capped at XENT_MAX, as ``softmax_xent``."""
        return np.minimum(self.nll, XENT_MAX)


def mlp_layers(params: MlpParams, x: np.ndarray):
    """``forward_block`` of the 2-D batch ``x``, one new array per layer:
    the output and the input of every linear layer (``x`` first), as
    ``mlp_layers_backward`` needs them."""
    outs = [np.empty((len(x), w)) for w in params.layer_sizes[1:]]
    return forward_block(params, x, outs), [x, *outs[:-1]]


def mlp_layers_backward(arrays: list[np.ndarray], acts: list[np.ndarray], g: np.ndarray,
                        grads: list[np.ndarray], input_grad: bool = False):
    """Reverse sweep of ``mlp_layers`` from the output adjoint ``g``, in the
    tape's operation order. Writes the gradient of each W, b into ``grads``;
    returns the adjoint of the input batch when ``input_grad``, else None. A
    ReLU mask is ``acts[i] > 0``, the tape's ``pre > 0``: ``max(p, 0) > 0``
    is ``p > 0`` for every float p."""
    for i in range(len(arrays) // 2 - 1, -1, -1):
        np.matmul(acts[i].T, g, out=grads[2 * i])
        g.sum(axis=0, out=grads[2 * i + 1])
        if i > 0:
            g = g @ arrays[2 * i].T
            g *= acts[i] > 0.0
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
    if (y < 0).any() or (y >= params.layer_sizes[-1]).any():
        raise ValueError("label out of range")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    h, acts = mlp_layers(params, x)
    if logit_offset is not None:
        h += logit_offset
    log_probs = log_softmax_numpy(h)
    nll = -log_probs[np.arange(len(h)), y]
    return MlpPass(params, acts, log_probs, y, nll, loss, float(tau))


def mlp_backward(fwd: MlpPass, weights: np.ndarray,
                 out: MlpParams) -> tuple[float, list[np.ndarray]]:
    """Weighted mean loss (1/B) sum(w_n loss_n) and its parameter gradients.

    Replays the tape's reverse sweep op for op, except that no adjoint is
    formed for the input batch. The gradients are written through the views
    ``out.arrays`` into ``out.flat``, laid out like the parameters, and
    ``out.arrays`` is returned. Raises ``TrainingDiverged`` on a non-finite
    loss before any gradient is formed, and ``GradientError`` on a
    non-finite gradient.
    """
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any():
        raise ValueError("negative weight")
    n = fwd.nll.shape[0]
    if w.shape != (n,):
        raise ValueError("weights/losses length mismatch")
    if fwd.loss == "xent":
        losses = fwd.xent()
    else:
        p = np.exp(-fwd.nll)
        p_floored = np.maximum(p, P_FLOOR)
        losses = (1.0 - p_floored ** fwd.tau) / fwd.tau
    lval = float((losses * w).sum() * (1.0 / n))
    if not math.isfinite(lval):
        raise TrainingDiverged(f"non-finite loss {lval}")
    g = w * (1.0 / n)
    if fwd.loss == "xent":
        g = -(g * (fwd.nll <= XENT_MAX))
    else:
        g = -(g / fwd.tau) * fwd.tau * p_floored ** (fwd.tau - 1.0)
        g = g * (p >= P_FLOOR) * p
    g_lp = np.zeros_like(fwd.log_probs)
    g_lp[np.arange(n), fwd.labels] = g
    # g_lp's row sums: a row holds g_n and +0.0s, and any sum of those is
    # g_n + 0.0 to the bit (-0.0 + 0.0 is +0.0), so no reduction is run
    e = np.exp(fwd.log_probs)
    e *= (g + 0.0)[:, None]
    g = np.subtract(g_lp, e, out=e)
    if out.layer_sizes != fwd.params.layer_sizes:
        raise ValueError("gradient and parameter layouts differ")
    grads = out.arrays
    mlp_layers_backward(fwd.params.arrays, fwd.acts, g, grads)
    check_finite_gradient(out.flat, grads, lambda k: f"parameter array {k}")
    return lval, grads


def run_epochs(n: int, cfg: TrainConfig, sampler: Iterator[np.ndarray],
               step_fn: Callable[[np.ndarray, int], float],
               end_epoch: Callable[[int, dict], object]) -> list:
    """``cfg.epochs`` epochs of ``ceil(n / cfg.batch_size)`` steps at one
    BLAS thread (``blas``); returns the list of ``end_epoch(epoch, stats)``
    records.

    A step calls ``step_fn(next(sampler), step)``, which updates the model
    and returns the batch's mean loss; a ``TrainingDiverged`` it raises is
    re-raised naming the epoch and step. ``stats`` holds epoch, train_loss
    (the batch losses' mean over rows), seconds, step (steps so far) and
    seen (rows drawn in the epoch).
    """
    n_steps = math.ceil(n / cfg.batch_size)
    history = []
    step = 0
    with blas.limit():
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
          params: MlpParams | None = None,
          loss: str = "xent",
          tau: float = 0.7,
          weight_fn: Callable[[np.ndarray, int, MlpPass], np.ndarray] | None = None,
          sampler: Iterator[np.ndarray] | None = None,
          logit_offset: np.ndarray | None = None,
          eval_fn: Callable[[int, MlpParams, dict], object] | None = None):
    """Train one MLP by ``run_epochs``, for every weighting strategy.

    ``params`` is the model, trained in place (default: ``init_mlp`` from
    cfg.seed). Each step runs the batch's forward pass ``fwd`` first, then
    ``weight_fn(indices, step, fwd)`` returns its per-sample loss weights
    (default 1). ``sampler`` yields batch index arrays per step (default:
    seeded epoch shuffle). ``logit_offset`` is an (N, C) constant added to
    the logits of the drawn samples before the loss (used for target
    adjustment). ``eval_fn(epoch, params, stats)`` builds the per-epoch
    history record (default: ``stats``, which also holds train_xent, the
    mean uncapped cross-entropy). Deterministic given cfg.seed and inputs.
    """
    init_seed, shuffle_seed = np.random.SeedSequence(cfg.seed).generate_state(2)
    if params is None:
        params = init_mlp([ds.dim, *cfg.hidden, ds.num_classes], int(init_seed))
    if sampler is None:
        sampler = shuffle_batches(len(ds), cfg.batch_size, int(shuffle_seed), cfg.shuffle)
    opt = make_optimizer(cfg.optimizer, cfg.lr, cfg.momentum, cfg.weight_decay)
    grad = MlpParams(params.layer_sizes, flat=np.empty_like(params.flat))
    xent_total = 0.0

    def step_fn(idx, step):
        nonlocal xent_total
        fwd = mlp_loss_forward(
            params, ds.features[idx], ds.labels[idx], loss=loss, tau=tau,
            logit_offset=None if logit_offset is None else logit_offset[idx])
        w = np.ones(len(idx)) if weight_fn is None else np.asarray(weight_fn(idx, step, fwd), dtype=np.float64)
        lval, _ = mlp_backward(fwd, w, out=grad)
        opt.step(params.flat, grad.flat)
        # uncapped cross-entropy of the raw logits, for divergence tracking
        xent_total += float(fwd.nll.sum())
        return lval

    def end_epoch(epoch, stats):
        nonlocal xent_total
        stats["train_xent"], xent_total = xent_total / stats["seen"], 0.0
        return stats if eval_fn is None else eval_fn(epoch, params, stats)

    return params, run_epochs(len(ds), cfg, sampler, step_fn, end_epoch)


# --- checkpoints: model.json + params.f64le ---------------------------------

def save_model(params: MlpParams, out_dir: str | Path,
               extra: dict | None = None) -> None:
    """Flat little-endian doubles in array order: W0 (row-major), b0, W1, b1, ..."""
    out = Path(out_dir)
    write_json(out / "model.json", {"schema_version": SCHEMA_VERSION,
                                    "layer_sizes": params.layer_sizes, **(extra or {})})
    write_f64le(out / "params.f64le", params.flat)


def load_model(in_dir: str | Path) -> tuple[MlpParams, dict]:
    src = Path(in_dir)
    meta = read_meta(src / "model.json", {"layer_sizes": list})
    sizes = meta["layer_sizes"]
    if len(sizes) < 2 or not all(type(k) is int and k >= 1 for k in sizes):
        raise ValueError(f"{src / 'model.json'}: layer_sizes must be ints >= 1, "
                         f"at least two of them, got {sizes!r}")
    count = sum(map(math.prod, _mlp_shapes(sizes)))
    return MlpParams(sizes, flat=read_f64le(src / "params.f64le", count)), meta
