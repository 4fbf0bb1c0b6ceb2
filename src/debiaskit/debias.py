"""Weight computation and bias-mitigation strategies.

Two families of training-time corrections:

* per-sample weights (inverse conditional probability, amplified-classifier
  confidence, loss ratio, gradient norm, generative posterior), consumed by
  loss weighting (LW), annealed loss weighting (ALW), or weighted sampling
  with replacement (WS);
* target adjustment (TBA): the classifier's logits are shifted by the log
  of the per-class bias conditional before the cross-entropy.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import astuple, dataclass, replace
from typing import Iterator

import numpy as np

from . import blas
from .classifier import (GceConfig, MlpParams, TrainConfig, init_mlp,
                         mlp_backward, mlp_final_hidden, mlp_forward,
                         mlp_loss_forward, run_epochs, shuffle_batches,
                         softmax_numpy, softmax_xent, train)
from .data import LabeledDataset, estimate_p_y_given_b
from .metrics import MetricsRow, debias_bc_ratio, evaluate_accuracy
from .optim import make_optimizer

SCHEMES = ("vanilla", "oracle-ub", "oracle-yb", "biased-confidence",
           "lff", "pgd", "vcae")
METHODS = ("LW", "ALW", "WS", "TBA")

# scheme -> methods it can drive
_COMPATIBLE = {
    "vanilla": {"LW", "ALW", "WS"},
    "oracle-ub": {"LW", "ALW", "WS", "TBA"},
    "oracle-yb": {"LW", "ALW", "WS", "TBA"},
    "biased-confidence": {"LW", "ALW", "WS", "TBA"},
    "lff": {"LW"},
    "pgd": {"WS"},
    "vcae": {"LW", "ALW", "WS"},
}

COLLAPSE_XENT = 50.0


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
        if self.provenance == "biased-confidence" and self.gamma is not None:
            lo, hi = ((10.0 / self.gamma, 10.0) if self.rescaled
                      else (1.0, self.gamma))
            if self.weights.min() < lo - 1e-12 or self.weights.max() > hi + 1e-12:
                raise ValueError(f"weights outside [{lo}, {hi}]")


@dataclass
class BiasedClassifierArtifact:
    """Frozen amplified classifier with cached per-sample responses."""

    params: MlpParams
    confidences: np.ndarray        # (N,) true-class probability, in (0, 1]
    class_probs: np.ndarray        # (N, C) full probability rows
    t_bias: int
    tau: float

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
        if self.w_init <= 0:
            raise ValueError("initial weight must be positive")
        if self.t_anneal < 0:
            raise ValueError("t_anneal must be nonnegative")


# Successful amplifications kept per process, least recently used dropped
# first. Each entry holds an (N, C) probability table and a small MLP.
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


def train_biased_classifier(train_ds: LabeledDataset, gce: GceConfig,
                            t_bias: int, cfg: TrainConfig) -> BiasedClassifierArtifact:
    """Amplify the shortcut: t_bias epochs of mean-GCE training, then freeze.

    Aborts with a diagnostic if the mean (uncapped) train cross-entropy
    blows past COLLAPSE_XENT, the signature of amplification collapse.

    Memoized per process: a call whose features, labels, class count, tau,
    t_bias and other ``cfg`` fields (``epochs`` is replaced by t_bias) equal
    those of one of the last AMPLIFY_MEMO_SIZE successful calls returns that
    call's classifier without retraining. Training is deterministic, so the
    result is the one retraining would give. Every such call shares the
    artifact's arrays (``params.flat`` and its views ``params.arrays``,
    ``confidences``, ``class_probs``), so they are read-only: copy before
    writing.
    """
    if t_bias < 1:
        raise ValueError("t_bias must be >= 1")
    bias_cfg = replace(cfg, epochs=t_bias)
    key = _amplify_key(train_ds, gce.tau, bias_cfg)
    art = _amplify_memo.get(key)
    if art is None:
        with blas.limit(bias_cfg.batch_size, [train_ds.dim, *bias_cfg.hidden]):
            params, _ = train(train_ds, bias_cfg, loss="gce", tau=gce.tau,
                              abort_xent_above=COLLAPSE_XENT)
            probs = softmax_numpy(mlp_forward(params, train_ds.features))
        conf = probs[np.arange(len(train_ds)), train_ds.labels]
        conf = np.maximum(conf, 1e-300)  # keep strictly positive for 1/p
        for a in (params.flat, conf, probs):
            a.flags.writeable = False
        art = BiasedClassifierArtifact(params=params, confidences=conf,
                                       class_probs=probs, t_bias=t_bias,
                                       tau=gce.tau)
        _amplify_memo[key] = art
        if len(_amplify_memo) > AMPLIFY_MEMO_SIZE:
            _amplify_memo.popitem(last=False)
    else:
        _amplify_memo.move_to_end(key)
    # a fresh shell per call, so rebinding a field cannot reach the memo; its
    # views come from the read-only vector and so are read-only too, unlike
    # the views made while training
    return replace(art, params=MlpParams(art.params.layer_sizes, flat=art.params.flat))


def compute_weights_clamped(confidences: np.ndarray, gamma: float) -> SampleWeights:
    """w_n = min(1 / p(y_n|x_n), gamma), so w_n lies in [1, gamma]."""
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1")
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


def weighted_sampler(weights: np.ndarray, batch_size: int,
                     seed: int) -> Iterator[np.ndarray]:
    """I.i.d. batches with replacement, P(pick n) = w_n / sum(w)."""
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("negative weight")
    total = w.sum()
    if total <= 0:
        raise ValueError("all weights are zero")
    p = w / total
    rng = np.random.default_rng(seed)
    n = len(w)
    while True:
        yield rng.choice(n, size=batch_size, p=p)


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


def tba_adjusted_probs(logits: np.ndarray, p_psi: np.ndarray,
                       gamma: float) -> np.ndarray:
    """softmax(f + log v) with v = max(p_psi, 1/gamma), rows summing to 1."""
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1")
    v = np.maximum(np.asarray(p_psi, dtype=np.float64), 1.0 / gamma)
    shifted = np.asarray(logits, dtype=np.float64) + np.log(v)
    return softmax_numpy(shifted)


def oracle_ub_weights(ds: LabeledDataset) -> SampleWeights:
    """Exact 1/p(u|b) from the generator: 1/(1-rho) aligned, (C-1)/rho conflicting."""
    if ds.cfg is None:
        raise ValueError("dataset lacks its generation config; exact conditional unknown")
    if ds.aligned is None:
        raise ValueError("dataset lacks bias labels")
    rho, c = ds.cfg.bc_ratio, ds.num_classes
    w = np.where(ds.aligned, 1.0 / (1.0 - rho), (c - 1) / rho)
    return SampleWeights(w, provenance="oracle-ub")


def oracle_yb_weights(ds: LabeledDataset) -> SampleWeights:
    """1 / p_hat(y|b) from the empirical conditional of the training data."""
    est = estimate_p_y_given_b(ds)
    p = est.table[ds.labels, ds.bias]
    return SampleWeights(1.0 / p, provenance="oracle-yb")


def _oracle_ub_table(ds: LabeledDataset) -> np.ndarray:
    """(N, C) rows of the analytic p(y=c | b_n)."""
    rho, c = ds.cfg.bc_ratio, ds.num_classes
    table = np.full((c, c), rho / (c - 1))
    np.fill_diagonal(table, 1.0 - rho)
    return table[:, ds.bias].T  # table[y, b] -> rows indexed by sample


@dataclass
class PipelineResult:
    params: MlpParams
    history: list[MetricsRow]
    weights: SampleWeights | None
    artifact: BiasedClassifierArtifact | None = None
    # the BLAS thread policy of the run, as ``blas.limit`` yields it
    blas_threads: dict | None = None


def _make_eval(test_ds, beta_fn):
    def eval_fn(epoch, params, stats):
        acc, ba, bc = evaluate_accuracy(params, test_ds)
        return MetricsRow(epoch=epoch, train_loss=stats["train_loss"],
                          test_acc=acc, test_acc_ba=ba, test_acc_bc=bc,
                          beta=beta_fn(params, stats["step"]),
                          seconds=stats["seconds"])
    return eval_fn


def run_debias_pipeline(train_ds: LabeledDataset, test_ds: LabeledDataset,
                        scheme: str, method: str, *,
                        train_cfg: TrainConfig,
                        gamma: float | None = None,
                        t_bias: int = 10,
                        gce: GceConfig | None = None,
                        anneal: AnnealConfig | None = None,
                        artifact: BiasedClassifierArtifact | None = None,
                        bias_cfg: TrainConfig | None = None,
                        vcae_cfg=None,
                        vcae_train_cfg: TrainConfig | None = None,
                        vcae_weight_cap: float = 100.0) -> PipelineResult:
    """Train a debiased classifier under the requested scheme/method pair.

    Two-stage schemes freeze their weights before the main run; the
    loss-ratio scheme recomputes weights from both classifiers every step.
    The per-epoch beta records the weight mass on conflicting samples for
    whatever weights were in force at the epoch's final step. Everything
    from amplification to the last evaluation runs under one BLAS thread
    policy (``blas.limit``), sized by the widest model it trains.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method not in _COMPATIBLE[scheme]:
        raise ValueError(f"scheme {scheme!r} cannot drive method {method!r}")
    if train_ds.aligned is None:
        raise ValueError("training data needs bias labels for metrics")
    gce = gce or GceConfig()
    anneal = anneal or AnnealConfig()

    # the widest model the pipeline trains sets the thread count; the
    # limits of the training calls nested in it can only lower it
    cfgs = [c for c in (train_cfg, bias_cfg, vcae_train_cfg) if c is not None]
    widths = [train_ds.dim, *train_cfg.hidden, *(bias_cfg or train_cfg).hidden,
              *(vcae_cfg.hidden if vcae_cfg is not None else ())]
    with blas.limit(max(c.batch_size for c in cfgs), widths) as policy:
        if scheme == "lff":
            return replace(_run_lff(train_ds, test_ds, gce, train_cfg), blas_threads=policy)

        if scheme in ("biased-confidence", "pgd") and artifact is None:
            artifact = train_biased_classifier(train_ds, gce, t_bias,
                                               bias_cfg or train_cfg)

        # resolve per-sample weights (or the TBA adjustment table)
        logit_offset = None
        if method == "TBA":
            if gamma is None:
                raise ValueError("TBA needs gamma")
            if scheme == "biased-confidence":
                cond = artifact.class_probs
            elif scheme == "oracle-yb":
                cond = estimate_p_y_given_b(train_ds).table[:, train_ds.bias].T
            else:  # oracle-ub
                cond = _oracle_ub_table(train_ds)
            v = np.maximum(cond, 1.0 / gamma)
            logit_offset = np.log(v)
            # implied correction magnitude per sample, for the beta metric
            implied = np.minimum(1.0 / v[np.arange(len(train_ds)), train_ds.labels],
                                 gamma)
            weights = SampleWeights(implied, provenance=scheme,
                                    gamma=gamma)
        elif scheme == "vanilla":
            weights = SampleWeights(np.ones(len(train_ds)), provenance="vanilla")
        elif scheme == "oracle-ub":
            weights = oracle_ub_weights(train_ds)
        elif scheme == "oracle-yb":
            weights = oracle_yb_weights(train_ds)
        elif scheme == "biased-confidence":
            if gamma is None:
                raise ValueError("biased-confidence needs gamma")
            weights = compute_weights_clamped(artifact.confidences, gamma)
            if method in ("LW", "ALW"):
                weights = rescale_weights(weights)
        elif scheme == "pgd":
            h = mlp_final_hidden(artifact.params, train_ds.features)
            raw = pgd_weight(artifact.class_probs, train_ds.labels, h)
            total = raw.sum()
            if total <= 0:
                raise ValueError("all gradient-norm weights are zero")
            weights = SampleWeights(np.maximum(raw / total, 1e-300), provenance="pgd")
        elif scheme == "vcae":
            from .vcae import train_vcae, vcae_weights
            if vcae_cfg is None:
                raise ValueError("vcae scheme needs a VcaeConfig")
            vparams, _ = train_vcae(train_ds, vcae_cfg, vcae_train_cfg or train_cfg)
            weights = vcae_weights(vparams, train_ds, cap=vcae_weight_cap,
                                   prior=vcae_cfg.prior)
        else:  # pragma: no cover
            raise AssertionError(scheme)

        w_arr = weights.weights
        weight_fn = None
        sampler = None
        if method == "LW" and scheme != "vanilla":
            weight_fn = lambda idx, t: w_arr[idx]
        elif method == "ALW":
            weight_fn = lambda idx, t: anneal_weight(w_arr[idx], t, anneal)
        elif method == "WS":
            _, ws_seed = np.random.SeedSequence(train_cfg.seed).generate_state(2)
            sampler = weighted_sampler(w_arr, train_cfg.batch_size, int(ws_seed) ^ 0x5EED)

        def beta_fn(params, step_end):
            if method == "ALW":
                eff = anneal_weight(w_arr, step_end - 1, anneal)
            else:
                eff = w_arr
            return debias_bc_ratio(eff, train_ds.aligned)

        params, history = train(train_ds, train_cfg, loss="xent",
                                weight_fn=weight_fn, sampler=sampler,
                                logit_offset=logit_offset,
                                eval_fn=_make_eval(test_ds, beta_fn))
        return PipelineResult(params=params, history=history, weights=weights,
                              artifact=artifact, blas_threads=policy)


def _run_lff(train_ds, test_ds, gce: GceConfig, cfg: TrainConfig) -> PipelineResult:
    """Parallel loop: amplified and debiased classifiers update every step;
    weights are the per-batch loss ratios of the two."""
    seeds = np.random.SeedSequence(cfg.seed).generate_state(3)
    sizes = [train_ds.dim, *cfg.hidden, train_ds.num_classes]
    psi = init_mlp(sizes, int(seeds[0]))
    theta = init_mlp(sizes, int(seeds[1]))
    opt_psi = make_optimizer(cfg.optimizer, cfg.lr, cfg.momentum, cfg.weight_decay)
    opt_theta = make_optimizer(cfg.optimizer, cfg.lr, cfg.momentum, cfg.weight_decay)
    grad_psi, grad_theta = (MlpParams(sizes, flat=np.empty_like(psi.flat)),
                            MlpParams(sizes, flat=np.empty_like(theta.flat)))

    def step_fn(idx, step):
        xb, yb = train_ds.features[idx], train_ds.labels[idx]
        fwd_b = mlp_loss_forward(psi, xb, yb, loss="gce", tau=gce.tau)
        fwd_d = mlp_loss_forward(theta, xb, yb)
        # ratio weights from current losses, before either update
        w = lff_weight(fwd_b.xent(), fwd_d.xent())
        mlp_backward(fwd_b, np.ones(len(idx)), out=grad_psi)
        lval, _ = mlp_backward(fwd_d, w, out=grad_theta)
        opt_psi.step([psi.flat], [grad_psi.flat])
        opt_theta.step([theta.flat], [grad_theta.flat])
        return lval

    full_w = None

    def beta_fn(params, step_end):  # the last epoch's weights are the run's
        nonlocal full_w
        lb = softmax_xent(mlp_forward(psi, train_ds.features), train_ds.labels)
        ld = softmax_xent(mlp_forward(theta, train_ds.features), train_ds.labels)
        full_w = np.maximum(lff_weight(lb, ld), 1e-300)
        return debias_bc_ratio(full_w, train_ds.aligned)

    eval_fn = _make_eval(test_ds, beta_fn)
    sampler = shuffle_batches(len(train_ds), cfg.batch_size, int(seeds[2]), cfg.shuffle)
    history = run_epochs(len(train_ds), cfg, sampler, step_fn,
                         lambda epoch, stats: eval_fn(epoch, theta, stats))
    return PipelineResult(params=theta, history=history,
                          weights=SampleWeights(full_w, provenance="lff"))
