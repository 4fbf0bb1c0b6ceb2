"""Weight computation and bias-mitigation strategies.

Two families of training-time corrections:

* per-sample weights (inverse conditional probability, amplified-classifier
  confidence, loss ratio, gradient norm, generative posterior), consumed by
  loss weighting (LW), annealed loss weighting (ALW), or weighted sampling
  with replacement (WS);
* target adjustment (TBA): the classifier's logits are shifted by the log
  of the per-class bias conditional before the cross-entropy; a scheme's
  ``SCHEMES`` entry gives those rows p(y | bias evidence), if it has them.

Each epoch is evaluated at its end, on the thread that trains, before the
next epoch starts. Its passes write their layers' row blocks into one
``BlockWorkspace`` that the pipeline makes at the first epoch end, so no
evaluation's layers allocate anything that grows with rows x width.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import astuple, dataclass, replace
from typing import Callable, Iterator

import numpy as np

from .classifier import (BlockWorkspace, MlpParams, TrainConfig, TrainingDiverged,
                         init_mlp, log_prob_blocks, mlp_backward, mlp_loss_forward,
                         mlp_xent, shuffle_batches, softmax_numpy, train)
from .data import (ConfigError, LabeledDataset, check_fields, estimate_p_y_given_b,
                   exact_p_y_given_b)
from .metrics import MetricsRow, debias_bc_ratio, evaluate_accuracy
from .optim import make_optimizer
from .vcae import VCAE_WEIGHT_CAP, train_vcae, vcae_weights

METHODS = ("LW", "ALW", "WS", "TBA")
COLLAPSE_XENT = 50.0


def check_pair(scheme: str, method: str) -> None:
    """Raise ``ConfigError`` unless ``scheme`` is known and drives ``method``."""
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme must be one of {tuple(SCHEMES)}, got {scheme!r}")
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    if method not in SCHEMES[scheme].methods:
        raise ConfigError(f"scheme {scheme!r} cannot drive method {method!r}; "
                          f"it drives {sorted(SCHEMES[scheme].methods)}")


def check_gamma(gamma: float | None) -> None:
    """Raise ``ConfigError`` unless ``gamma``, a clamp ceiling or TBA's
    floor 1/gamma, is above 1."""
    if gamma is None or not gamma > 1:
        raise ConfigError(f"gamma must be above 1, got {gamma}")


@dataclass
class SampleWeights:
    weights: np.ndarray
    provenance: str
    gamma: float | None = None
    rescaled: bool = False

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
            raise ValueError("weights must be finite and positive")
        if self.gamma is not None:
            lo, hi = ((10.0 / self.gamma, 10.0) if self.rescaled
                      else (1.0, self.gamma))
            if self.weights.min() < lo - 1e-12 or self.weights.max() > hi + 1e-12:
                raise ValueError(f"weights outside [{lo}, {hi}]")


@dataclass
class BiasedClassifierArtifact:
    """Frozen amplified classifier and its true-class confidences; its
    probability rows come from ``log_prob_blocks``, block by block."""

    params: MlpParams
    confidences: np.ndarray        # (N,) true-class probability, in (0, 1]

    def __post_init__(self):
        self.confidences = np.asarray(self.confidences, dtype=np.float64)
        if np.any(self.confidences <= 0) or np.any(self.confidences > 1):
            raise ValueError("confidences must lie in (0, 1]")


@dataclass
class AnnealConfig:
    """Linear ramp from a shared initial weight to the per-sample weight."""

    w_init: float = 1.0
    t_anneal: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.w_init <= 0:
            raise ConfigError("initial weight must be positive")
        if self.t_anneal < 0:
            raise ConfigError("t_anneal must be nonnegative")


# Successful amplifications kept per process, least recently used dropped
# first. Each entry holds an (N,) confidence vector and a small MLP.
AMPLIFY_MEMO_SIZE = 8
_amplify_memo: OrderedDict[tuple, BiasedClassifierArtifact] = OrderedDict()


def _amplify_key(train_ds: LabeledDataset, tau: float,
                 bias_cfg: TrainConfig) -> tuple:
    """Everything an amplification reads; the data by content, not identity."""
    import hashlib  # here, not at the top: loading OpenSSL adds ~6 ms to every start
    h = hashlib.sha256()
    for a in (train_ds.features, train_ds.labels):
        h.update(memoryview(np.ascontiguousarray(a)))  # in place, no copy
    return (h.hexdigest(), train_ds.features.shape, train_ds.num_classes, tau,
            astuple(bias_cfg))


def train_biased_classifier(train_ds: LabeledDataset, tau: float,
                            t_bias: int, cfg: TrainConfig) -> BiasedClassifierArtifact:
    """Amplify the shortcut: t_bias epochs of mean-GCE training at exponent tau, then freeze.

    Aborts with a diagnostic if the mean (uncapped) train cross-entropy
    blows past COLLAPSE_XENT, the signature of amplification collapse.

    Memoized per process: a call whose features, labels, class count, tau,
    t_bias and other ``cfg`` fields (``epochs`` is replaced by t_bias) equal
    those of one of the last AMPLIFY_MEMO_SIZE successful calls returns that
    call's classifier without retraining. Training is deterministic, so the
    result is the one retraining would give. Every such call shares the
    artifact's arrays, ``params.flat`` (and its views ``params.arrays``) and
    ``confidences``, so they are read-only: copy before writing. No entry
    keeps an (N, C) table; ``log_prob_blocks`` derives the rows.
    """
    if t_bias < 1:
        raise ValueError("t_bias must be >= 1")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    bias_cfg = replace(cfg, epochs=t_bias)
    key = _amplify_key(train_ds, tau, bias_cfg)
    art = _amplify_memo.get(key)
    if art is None:
        def check_collapse(epoch, params, stats):
            if stats["train_xent"] > COLLAPSE_XENT:
                raise TrainingDiverged(
                    f"mean train cross-entropy {stats['train_xent']:.1f} exceeded "
                    f"{COLLAPSE_XENT}: amplification training collapsed "
                    f"(loss spiking on rare conflicting samples); lower t_bias or tau")

        params, _ = train(train_ds, bias_cfg, loss="gce", tau=tau, eval_fn=check_collapse)
        conf = np.empty(len(train_ds))
        ws = BlockWorkspace(params, len(train_ds))
        for rows, lp in log_prob_blocks(params, train_ds.features, ws):
            conf[rows] = np.exp(lp, out=lp)[np.arange(len(lp)), train_ds.labels[rows]]
        np.maximum(conf, 1e-300, out=conf)  # keep strictly positive for 1/p
        for a in (params.flat, conf):
            a.flags.writeable = False
        art = BiasedClassifierArtifact(params=params, confidences=conf)
        _amplify_memo[key] = art
        if len(_amplify_memo) > AMPLIFY_MEMO_SIZE:
            _amplify_memo.popitem(last=False)
    else:
        _amplify_memo.move_to_end(key)
    # a fresh shell per call, so rebinding a field cannot reach the memo; its
    # views come from the read-only vector and so are read-only too, unlike
    # the views made while training
    return replace(art, params=MlpParams(art.params.layer_sizes, flat=art.params.flat))


def amplifier_prob_table(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """The amplifier's (N, C) probability rows in a fresh table, each block
    of ``log_prob_blocks`` exponentiated straight into its rows."""
    table = np.empty((len(x), params.layer_sizes[-1]))
    for rows, lp in log_prob_blocks(params, x, BlockWorkspace(params, len(x))):
        np.exp(lp, out=table[rows])
    return table


def compute_weights_clamped(confidences: np.ndarray, gamma: float) -> SampleWeights:
    """w_n = min(1 / p(y_n|x_n), gamma), so w_n lies in [1, gamma]."""
    check_gamma(gamma)
    conf = np.asarray(confidences, dtype=np.float64)
    if np.any(conf <= 0) or np.any(conf > 1):
        raise ValueError("confidences must lie in (0, 1]")
    w = np.minimum(1.0 / conf, gamma)
    return SampleWeights(w, provenance="biased-confidence", gamma=gamma)


def rescale_weights(w: SampleWeights) -> SampleWeights:
    """Multiply by 10/gamma so the ceiling becomes 10 (range [10/gamma, 10])."""
    if w.rescaled:
        raise ValueError("weights already rescaled")
    if w.gamma is None:
        raise ValueError("rescaling needs the clamp ceiling")
    return SampleWeights(w.weights * (10.0 / w.gamma), provenance=w.provenance,
                         gamma=w.gamma, rescaled=True)


def anneal_weight(w_n, t: int, ac: AnnealConfig):
    """Weight at step t: linear from w_init to w_n over t_anneal steps."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    w_n = np.asarray(w_n, dtype=np.float64)
    if ac.t_anneal == 0 or t >= ac.t_anneal:
        return w_n
    return ac.w_init + t * (w_n - ac.w_init) / ac.t_anneal


def weighted_sampler(weights: np.ndarray, batch_size: int, seed: int) -> Iterator[np.ndarray]:
    """I.i.d. batches with replacement, P(pick n) = w_n / sum(w), drawn as ``rng.choice`` draws."""
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("negative weight")
    total = w.sum()
    if not total > 0 or not np.isfinite(total):
        raise ValueError("weights must be finite and not all zero")
    cdf = (w / total).cumsum()
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    while True:
        yield cdf.searchsorted(rng.random(batch_size), side="right")


def lff_weight(loss_biased, loss_debiased):
    """loss_b / (loss_b + loss_d) in [0, 1]; 0/0 defined as 0.5."""
    lb = np.asarray(loss_biased, dtype=np.float64)
    ld = np.asarray(loss_debiased, dtype=np.float64)
    if np.any(lb < 0) or np.any(ld < 0):
        raise ValueError("losses must be nonnegative")
    total = lb + ld
    with np.errstate(invalid="ignore"):
        w = np.where(total > 0, lb / np.where(total > 0, total, 1.0), 0.5)
    return float(w) if w.ndim == 0 else w


def pgd_weight(p_vec: np.ndarray, y, h: np.ndarray):
    """Norm of the last-layer weight gradient: ||(p - 1_y) h^T|| = ||p - 1_y|| * ||h||."""
    p = np.atleast_2d(np.asarray(p_vec, dtype=np.float64))
    h = np.atleast_2d(np.asarray(h, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    resid = p.copy()
    resid[np.arange(p.shape[0]), y] -= 1.0
    w = np.linalg.norm(resid, axis=1) * np.linalg.norm(h, axis=1)
    return float(w[0]) if np.ndim(p_vec) == 1 else w


def tba_floor(p_psi, gamma: float) -> np.ndarray:
    """TBA's conditional v = max(p(y|b), 1/gamma); its log shifts the logits."""
    return np.maximum(np.asarray(p_psi, dtype=np.float64), 1.0 / gamma)


def tba_adjusted_probs(logits: np.ndarray, p_psi: np.ndarray,
                       gamma: float) -> np.ndarray:
    """softmax(f + log v) with v = max(p_psi, 1/gamma), rows summing to 1."""
    check_gamma(gamma)
    v = tba_floor(p_psi, gamma)
    shifted = np.asarray(logits, dtype=np.float64) + np.log(v)
    return softmax_numpy(shifted)


def oracle_ub_weights(ds: LabeledDataset) -> SampleWeights:
    """Exact 1/p(u|b) from the generator: 1/(1-rho) aligned, (C-1)/rho conflicting.
    Not 1 over its table's rows: 1/(rho/(C-1)) can miss (C-1)/rho by the last bit."""
    _, inverse = exact_p_y_given_b(ds)
    if ds.bias is None:
        raise ValueError("dataset lacks bias labels")
    return SampleWeights(inverse[ds.labels, ds.bias], provenance="oracle-ub")


def _confidence_weights(ds, amplify, method, gamma, **_):
    check_gamma(gamma)  # before amplify() trains anything
    w = compute_weights_clamped(amplify().confidences, gamma)
    return rescale_weights(w) if method in ("LW", "ALW") else w


def _pgd_weights(ds, amplify, method, gamma, **_):
    """Last-layer gradient norms summing to 1, by ``log_prob_blocks``: of
    each block's probability rows and its last hidden layer in the workspace,
    or its input rows with none."""
    params = amplify().params
    ws, raw = BlockWorkspace(params, len(ds)), np.empty(len(ds))
    for rows, lp in log_prob_blocks(params, ds.features, ws):
        h = ws.hidden[-1][:len(lp)] if ws.hidden else ds.features[rows]
        raw[rows] = pgd_weight(np.exp(lp, out=lp), ds.labels[rows], h)
    if (total := raw.sum()) <= 0:
        raise ValueError("all gradient-norm weights are zero")
    return SampleWeights(np.maximum(raw / total, 1e-300), provenance="pgd")


def _vcae_weights(ds, amplify, method, gamma, *, vcae_cfg, vcae_train_cfg, vcae_weight_cap):
    if vcae_cfg is None:
        raise ValueError("vcae scheme needs a VcaeConfig")
    vparams, _ = train_vcae(ds, vcae_cfg, vcae_train_cfg)
    return SampleWeights(vcae_weights(vparams, ds, cap=vcae_weight_cap), provenance="vcae")


@dataclass(frozen=True)
class Scheme:
    """A weighting scheme: the methods it drives; ``rows(ds, amplify)``, the (N, C)
    rows p(y=c | bias evidence of row n) whose floored log is TBA's offset (None:
    no TBA), in a fresh array that belongs to the caller; ``weights(ds, amplify,
    method, gamma, **options)``, the training split's ``SampleWeights``.
    ``amplify()`` trains or recalls the amplifier."""

    methods: tuple[str, ...]
    rows: Callable | None = None
    weights: Callable | None = None


SCHEMES = {
    "vanilla": Scheme(("LW", "ALW", "WS"), weights=lambda ds, *_, **__: SampleWeights(
        np.ones(len(ds)), provenance="vanilla")),
    "oracle-ub": Scheme(METHODS, rows=lambda ds, _: exact_p_y_given_b(ds)[0][:, ds.bias].T,
                        weights=lambda ds, *_, **__: oracle_ub_weights(ds)),
    "oracle-yb": Scheme(METHODS, rows=lambda ds, _: estimate_p_y_given_b(ds)[:, ds.bias].T,
                        weights=lambda ds, *_, **__: SampleWeights(
                            1.0 / estimate_p_y_given_b(ds)[ds.labels, ds.bias],
                            provenance="oracle-yb")),
    "biased-confidence": Scheme(
        METHODS, rows=lambda ds, amplify: amplifier_prob_table(amplify().params, ds.features),
        weights=_confidence_weights),
    "lff": Scheme(("LW",)),  # no weights of its own: run_debias_pipeline runs _run_lff
    "pgd": Scheme(("WS",), weights=_pgd_weights),
    "vcae": Scheme(("LW", "ALW", "WS"), weights=_vcae_weights),
}


@dataclass
class PipelineResult:
    params: MlpParams
    history: list[MetricsRow]
    weights: SampleWeights


def _make_eval(test_ds, beta_fn, beta_ds: LabeledDataset | None = None):
    """``train``'s per-epoch ``eval_fn``: the ``MetricsRow`` of the test-split
    accuracies of the live model and ``beta_fn(step_end, ws)``, which reads
    the live models as the epoch left them.

    Every evaluation passes its models through ``ws``, one ``BlockWorkspace``
    made here at the first epoch end, for the test split and ``beta_ds``, the
    split that ``beta_fn`` passes LfF's two models over (if any)."""
    ws = None

    def eval_fn(epoch, params, stats):
        nonlocal ws
        if ws is None:
            ws = BlockWorkspace(params, len(test_ds), len(test_ds if beta_ds is None else beta_ds))
        acc, ba, bc = evaluate_accuracy(params, test_ds, ws)
        return MetricsRow(epoch=epoch, train_loss=stats["train_loss"],
                          test_acc=acc, test_acc_ba=ba, test_acc_bc=bc,
                          beta=beta_fn(stats["step"], ws),
                          seconds=stats["seconds"])
    return eval_fn


def run_debias_pipeline(train_ds: LabeledDataset, test_ds: LabeledDataset,
                        scheme: str, method: str, *,
                        train_cfg: TrainConfig,
                        gamma: float | None = None,
                        t_bias: int = 10,
                        tau: float = 0.7,
                        anneal: AnnealConfig | None = None,
                        vcae_cfg=None,
                        vcae_train_cfg: TrainConfig | None = None,
                        vcae_weight_cap: float = VCAE_WEIGHT_CAP) -> PipelineResult:
    """Train a debiased classifier under the requested scheme/method pair.

    The scheme's ``SCHEMES`` entry gives its weights, frozen before the main
    run, or TBA's rows, training the amplifier only if it asks; LfF's weights
    change every step. The per-epoch beta records the weight mass on conflicting
    samples for whatever weights were in force at the epoch's final step. Each
    epoch is evaluated at its end, before the next one trains.
    ``gamma``, above 1, is TBA's floor 1/gamma and biased-confidence's clamp.
    """
    check_pair(scheme, method)
    if method == "TBA":
        check_gamma(gamma)
    if train_ds.aligned is None:
        raise ValueError("training data needs bias labels for metrics")
    n_ba = int(train_ds.aligned.sum())
    if n_ba in (0, len(train_ds)):  # beta, each epoch, compares the two groups' weights
        raise ValueError(f"the training split has {n_ba} bias-aligned and "
                         f"{len(train_ds) - n_ba} bias-conflicting rows; "
                         f"beta needs at least one of each")
    if scheme == "lff":  # its weights change every step, so it runs its own loop
        return _run_lff(train_ds, test_ds, tau, train_cfg)

    # looked up when called, so a wrapper put on the module function sees it
    amplify = lambda: train_biased_classifier(train_ds, tau, t_bias, train_cfg)
    logit_offset = None
    if method == "TBA":
        v = tba_floor(SCHEMES[scheme].rows(train_ds, amplify), gamma)
        # implied correction magnitude per sample, for the beta metric
        implied = np.minimum(1.0 / v[np.arange(len(train_ds)), train_ds.labels], gamma)
        logit_offset = np.log(v, out=v)  # in place: one (N, C) table, not two
        weights = SampleWeights(implied, provenance=scheme, gamma=gamma)
    else:
        weights = SCHEMES[scheme].weights(
            train_ds, amplify, method, gamma, vcae_cfg=vcae_cfg,
            vcae_train_cfg=vcae_train_cfg or train_cfg, vcae_weight_cap=vcae_weight_cap)

    w_arr = weights.weights
    ramp = (anneal or AnnealConfig()) if method == "ALW" else AnnealConfig()  # LW: no ramp
    weight_fn = sampler = None
    if method in ("LW", "ALW"):
        weight_fn = lambda idx, t, fwd: anneal_weight(w_arr[idx], t, ramp)
    elif method == "WS":
        _, ws_seed = np.random.SeedSequence(train_cfg.seed).generate_state(2)
        sampler = weighted_sampler(w_arr, train_cfg.batch_size, int(ws_seed) ^ 0x5EED)
    beta_fn = lambda step_end, _ws: debias_bc_ratio(
        anneal_weight(w_arr, step_end - 1, ramp), train_ds.aligned)

    params, history = train(train_ds, train_cfg, loss="xent",
                            weight_fn=weight_fn, sampler=sampler,
                            logit_offset=logit_offset,
                            eval_fn=_make_eval(test_ds, beta_fn))
    return PipelineResult(params=params, history=history, weights=weights)


def lff_full_weights(psi: MlpParams, theta: MlpParams, ds: LabeledDataset,
                     ws: BlockWorkspace) -> np.ndarray:
    """LfF's weights over ``ds``: the loss ratios of the amplified model psi
    and the debiased theta, floored at 1e-300. Their cross-entropies
    (``mlp_xent``) pass by row blocks through ``ws``."""
    lb = mlp_xent(psi, ds.features, ds.labels, ws)
    ld = mlp_xent(theta, ds.features, ds.labels, ws)
    return np.maximum(lff_weight(lb, ld), 1e-300)


def _run_lff(train_ds, test_ds, tau: float, cfg: TrainConfig) -> PipelineResult:
    """Parallel loop: ``train`` steps the debiased classifier theta on the
    per-batch loss ratios of the amplified classifier psi and theta, which
    ``weight_fn`` forms before either update, then takes psi's GCE step.
    Each epoch is evaluated on theta and psi as it left them."""
    seeds = np.random.SeedSequence(cfg.seed).generate_state(3)
    sizes = [train_ds.dim, *cfg.hidden, train_ds.num_classes]
    psi = init_mlp(sizes, int(seeds[0]))
    opt_psi = make_optimizer(cfg.optimizer, cfg.lr, cfg.momentum, cfg.weight_decay)
    grad_psi = MlpParams(sizes, flat=np.empty_like(psi.flat))

    def weight_fn(idx, step, fwd):
        fwd_b = mlp_loss_forward(psi, train_ds.features[idx], train_ds.labels[idx],
                                 loss="gce", tau=tau)
        w = lff_weight(fwd_b.xent(), fwd.xent())
        mlp_backward(fwd_b, np.ones(len(idx)), out=grad_psi)
        opt_psi.step(psi.flat, grad_psi.flat)
        return w

    theta, full_w = init_mlp(sizes, int(seeds[1])), None

    def beta_fn(step_end, ws):  # the last epoch's weights are the run's
        nonlocal full_w
        full_w = lff_full_weights(psi, theta, train_ds, ws)
        return debias_bc_ratio(full_w, train_ds.aligned)

    _, history = train(
        train_ds, cfg, params=theta, weight_fn=weight_fn,
        sampler=shuffle_batches(len(train_ds), cfg.batch_size, int(seeds[2]), cfg.shuffle),
        eval_fn=_make_eval(test_ds, beta_fn, beta_ds=train_ds))
    return PipelineResult(params=theta, history=history,
                          weights=SampleWeights(full_w, provenance="lff"))
