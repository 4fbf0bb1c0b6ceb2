"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Trend thresholds and
hyperparameters were frozen after pilot runs: two-factor data with
C=10, sigma_u=0.5, sigma_b=0.1, Adam(1e-3), batch 128, 20 epochs;
amplified classifier t_bias=5 (trend) / 10 (gamma sweep).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from debiaskit import autodiff as ad
from debiaskit.causal import (interventional, interventional_ipw,
                              random_instance, verify_bound,
                              verify_lw_ws_equivalence)
from debiaskit.classifier import TrainConfig, init_mlp, softmax_numpy
from debiaskit.cli import main as cli_main
from debiaskit.data import GenConfig, generate_two_factor, unbiased_config
from debiaskit.debias import (AnnealConfig, anneal_weight,
                              compute_weights_clamped, lff_weight, pgd_weight,
                              rescale_weights, run_debias_pipeline,
                              tba_adjusted_probs, train_biased_classifier)
from debiaskit.metrics import debias_bc_ratio
from debiaskit.vcae import (LatentGaussian, VcaeConfig, init_vcae,
                            kl_diag_gauss, p_y_given_z, train_vcae,
                            vcae_weights)
from debiaskit.data import generate_colored_glyphs

from conftest import gce_loss


def _report(num, name, detail=""):
    print(f"[acceptance] criterion {num} ({name}): PASS {detail}")


# -- 1. interventional bound --------------------------------------------------

def test_criterion_1_causal_bound():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    min_gap = np.inf
    for _ in range(100):
        j, q = random_instance(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        rep = verify_bound(j, q)
        assert rep["L_NILL"] <= rep["L_LW"] + 1e-9
        min_gap = min(min_gap, rep["gap"])
    max_eq_gap = 0.0
    for _ in range(100):
        j, q = random_instance(rng, int(rng.integers(2, 9)),
                               int(rng.integers(2, 9)), b_invariant=True)
        max_eq_gap = max(max_eq_gap, abs(verify_bound(j, q)["gap"]))
    elapsed = time.perf_counter() - t0
    assert min_gap >= -1e-9
    assert max_eq_gap < 1e-9
    assert elapsed < 1.0
    _report(1, "causal bound",
            f"min_gap={min_gap:.2e} eq_gap={max_eq_gap:.2e} {elapsed:.2f}s")


# -- 2. weighting/resampling equivalence --------------------------------------

def test_criterion_2_lw_ws_equivalence():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(50):
        n_u, n_b = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        j, _ = random_instance(rng, n_u, n_b)
        params = init_mlp([3, 6, n_u], seed=k)
        x_cells = rng.normal(size=(n_u, n_b, 3))
        worst = max(worst, verify_lw_ws_equivalence(j, params, x_cells))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 5.0
    _report(2, "LW/WS equivalence", f"max_discrepancy={worst:.2e} {elapsed:.2f}s")


# -- 3. backdoor / inverse-propensity identity --------------------------------

def test_criterion_3_backdoor_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        j, q = random_instance(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        worst = max(worst, float(np.abs(interventional(j, q)
                                        - interventional_ipw(j, q)).max()))
    assert worst < 1e-12
    _report(3, "backdoor/IPW identity", f"max_diff={worst:.2e}")


# -- 4. weight mechanics -------------------------------------------------------

def test_criterion_4_weight_mechanics():
    rng = np.random.default_rng(104)
    confs = 10.0 ** rng.uniform(-12, 0, size=100_000)
    for gamma in (1.5, 10.0, 200.0, 1e6):
        w = compute_weights_clamped(confs, gamma)
        assert w.weights.min() >= 1.0 and w.weights.max() <= gamma
        r = rescale_weights(w)
        assert r.weights.min() >= 10.0 / gamma - 1e-12
        assert r.weights.max() <= 10.0 + 1e-12

    ac = AnnealConfig(w_init=2.5, t_anneal=77)
    assert anneal_weight(9.0, 0, ac) == 2.5
    assert anneal_weight(9.0, 77, ac) == 9.0

    aligned = np.array([True] * 90 + [False] * 10)
    assert debias_bc_ratio(np.ones(100), aligned) == 0.5

    gamma = 200.0
    w_ideal = np.where(aligned, 10.0 / gamma, 10.0)
    beta = debias_bc_ratio(w_ideal, aligned)
    assert abs(beta - gamma / (gamma + 1.0)) < 1e-12
    assert abs(beta - 0.99502) < 5e-5
    assert abs(beta - 0.995) < 5e-5
    _report(4, "weight mechanics", f"beta_ideal={beta:.6f}")


# -- 5. formula oracles ---------------------------------------------------------

def test_criterion_5_formula_oracles():
    # GCE gradient vs central differences
    for p0, tau in [(0.2, 0.7), (0.8, 0.3), (0.5, 1.0)]:
        t = ad.Tape()
        p = t.leaf(p0)
        (g,) = t.backward(gce_loss(p, tau), wrt=[p])
        h = 1e-6
        fd = (gce_loss(p0 + h, tau) - gce_loss(p0 - h, tau)) / (2 * h)
        assert abs(g - fd) / max(abs(fd), 1e-8) < 1e-6

    for p0 in np.linspace(0.1, 0.9, 9):
        assert abs(gce_loss(p0, 1e-6) - (-math.log(p0))) < 1e-4

    rng = np.random.default_rng(105)
    lb, ld = rng.uniform(0, 50, size=1000), rng.uniform(0, 50, size=1000)
    w = lff_weight(lb, ld)
    assert np.all((w >= 0) & (w <= 1))
    assert lff_weight(3.3, 3.3) == 0.5

    for _ in range(100):
        c, d = int(rng.integers(2, 8)), int(rng.integers(1, 8))
        p = rng.dirichlet(np.ones(c))
        y = int(rng.integers(0, c))
        h = rng.normal(size=d)
        resid = p.copy()
        resid[y] -= 1.0
        assert abs(pgd_weight(p, y, h)
                   - np.linalg.norm(resid) * np.linalg.norm(h)) < 1e-12

    f = rng.normal(size=(20, 6))
    uniform = np.full((20, 6), 1.0 / 6.0)
    assert np.abs(tba_adjusted_probs(f, uniform, 50.0)
                  - softmax_numpy(f)).max() < 1e-12
    _report(5, "formula oracles")


# -- 6. end-to-end debiasing trend ----------------------------------------------

def test_criterion_6_debias_trend():
    seeds = [0, 1, 2]
    bc = {"vanilla": [], "oracle": [], "biasconf": []}
    per_seed_limit = 120.0
    for seed in seeds:
        t0 = time.perf_counter()
        gen = GenConfig(num_classes=10, n=10000, bc_ratio=0.01, seed=1000 + seed)
        tr = generate_two_factor(gen)
        te = generate_two_factor(unbiased_config(gen, n=5000, seed=2000 + seed))
        cfg = TrainConfig(epochs=20, batch_size=128, seed=seed)
        bc["vanilla"].append(run_debias_pipeline(
            tr, te, "vanilla", "LW", train_cfg=cfg).history[-1].test_acc_bc)
        bc["oracle"].append(run_debias_pipeline(
            tr, te, "oracle-ub", "LW", train_cfg=cfg).history[-1].test_acc_bc)
        bc["biasconf"].append(run_debias_pipeline(
            tr, te, "biased-confidence", "LW", train_cfg=cfg,
            gamma=200.0, t_bias=5).history[-1].test_acc_bc)
        assert time.perf_counter() - t0 < per_seed_limit
    v, o, b = (float(np.mean(bc[k])) for k in ("vanilla", "oracle", "biasconf"))
    assert o - v >= 0.20, f"oracle {o:.3f} vs vanilla {v:.3f}"
    assert v <= b <= o, f"biased-confidence {b:.3f} outside [{v:.3f}, {o:.3f}]"
    _report(6, "end-to-end trend",
            f"BC acc vanilla={v:.3f} biasconf={b:.3f} oracle={o:.3f}")


# -- 7. gamma sweep shape ---------------------------------------------------------

def test_criterion_7_gamma_sweep_shape():
    t0 = time.perf_counter()
    gammas = [50.0, 200.0, 1000.0, 1e4, 1e5]
    acc_bc = {g: [] for g in gammas}
    acc_ba = {g: [] for g in gammas}
    for seed in (0, 1, 2):
        gen = GenConfig(num_classes=10, n=10000, bc_ratio=0.005, seed=3000 + seed)
        tr = generate_two_factor(gen)
        te = generate_two_factor(unbiased_config(gen, n=5000, seed=4000 + seed))
        cfg = TrainConfig(epochs=20, batch_size=128, seed=seed)
        train_biased_classifier(tr, 0.7, 10, cfg)  # fills the memo
        for g in gammas:
            h = run_debias_pipeline(tr, te, "biased-confidence", "LW",
                                    train_cfg=cfg, gamma=g).history[-1]
            acc_bc[g].append(h.test_acc_bc)
            acc_ba[g].append(h.test_acc_ba)
    elapsed = time.perf_counter() - t0
    bc_mean = [float(np.mean(acc_bc[g])) for g in gammas]
    ba_mean = [float(np.mean(acc_ba[g])) for g in gammas]
    peak = int(np.argmax(bc_mean))
    assert 0 < peak < len(gammas) - 1, f"BC peak at endpoint: {bc_mean}"
    violations = sum(1 for a, b in zip(ba_mean, ba_mean[1:]) if b > a + 0.005)
    assert violations <= 1, f"BA not monotone: {ba_mean}"
    assert elapsed < 600.0
    _report(7, "gamma sweep shape",
            f"BC={[round(v, 3) for v in bc_mean]} "
            f"BA={[round(v, 3) for v in ba_mean]} {elapsed:.0f}s")


# -- 8. clustering autoencoder -----------------------------------------------------

def test_criterion_8_vcae():
    rng = np.random.default_rng(108)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        q = LatentGaussian(rng.normal(size=d), np.exp(0.5 * rng.normal(size=d)))
        p = LatentGaussian(rng.normal(size=d), np.exp(0.5 * rng.normal(size=d)))
        exact = kl_diag_gauss(q, p)
        n = 200_000
        z = q.mu + q.sigma * rng.normal(size=(n, d))

        def logpdf(z, g):
            return (-0.5 * ((z - g.mu) / g.sigma) ** 2 - np.log(g.sigma)
                    - 0.5 * math.log(2 * math.pi)).sum(axis=1)

        samples = logpdf(z, q) - logpdf(z, p)
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - exact) <= 3 * se

    cfg = VcaeConfig(num_classes=5, dim_z=2, hidden=(8,))
    params = init_vcae(cfg, input_dim=4, seed=0)
    post = p_y_given_z(params, np.array([100.0, 0.0]), np.full(5, 1.0 / 5))
    assert abs(post.sum() - 1.0) < 1e-12

    for seed in (0, 1, 2):
        gen = GenConfig(num_classes=10, n=2000, bc_ratio=0.05, seed=5000 + seed,
                        kind="colored-glyphs")
        ds = generate_colored_glyphs(gen)
        vc = VcaeConfig(num_classes=10, dim_z=2, lambda0=1.0, lambda1=1.0,
                        lambda2=1.0, hidden=(32,))
        vp, _ = train_vcae(ds, vc, TrainConfig(epochs=30, batch_size=128,
                                               seed=seed, lr=3e-3))
        w = vcae_weights(vp, ds, cap=100.0)
        w_bc = w[~ds.aligned].mean()
        w_ba = w[ds.aligned].mean()
        assert w_bc > w_ba, f"seed {seed}: BC {w_bc:.2f} <= BA {w_ba:.2f}"
    _report(8, "clustering autoencoder", f"last seed BC/BA weights "
            f"{w_bc:.1f}/{w_ba:.1f}")


# -- 9. CLI determinism --------------------------------------------------------------

def test_criterion_9_cli_determinism(tmp_path):
    def run_all(root: Path) -> dict[str, bytes]:
        data = root / "data"
        assert cli_main(["generate", "--classes", "4", "--n", "300",
                         "--rho", "0.1", "--seed", "5", "--out", str(data)]) == 0
        art = root / "artifact"
        assert cli_main(["train-biased", "--data", str(data), "--t-bias", "1",
                         "--out", str(art)]) == 0
        cfg = root / "cfg.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "scheme": "oracle-ub", "method": "LW",
            "dataset_path": str(data), "test_n": 200,
            "train": {"epochs": 2, "batch_size": 64, "hidden": [16]},
            "out_dir": str(root / "run"), "seeds": [0]}))
        assert cli_main(["debias", "--config", str(cfg)]) == 0
        assert cli_main(["oracle-check", "--seed", "1",
                         "--out", str(root / "oc")]) == 0
        glyphs = root / "glyphs"
        assert cli_main(["generate", "--kind", "colored-glyphs", "--classes",
                         "5", "--n", "200", "--rho", "0.1", "--seed", "6",
                         "--out", str(glyphs)]) == 0
        assert cli_main(["vcae", "--data", str(glyphs), "--out", str(root / "vc"),
                         "--seed", "1", "--epochs", "2", "--hidden", "8"]) == 0
        assert cli_main(["sweep", "--config", str(cfg), "--gamma", "10,20",
                         "--scheme", "biased-confidence", "--t-bias", "1",
                         "--out", str(root / "sw")]) == 0
        assert cli_main(["report", "--out", str(root / "run")]) == 0
        return {
            "dataset": (data / "data.f64le").read_bytes(),
            "confidences": (art / "confidences.f64le").read_bytes(),
            "metrics": (root / "run" / "metrics.csv").read_bytes(),
            "weights": (root / "run" / "weights_seed0.csv").read_bytes(),
            "oracle": (root / "oc" / "oracle_report.json").read_bytes(),
            "latents": (root / "vc" / "latents.csv").read_bytes(),
            "vcae_weights": (root / "vc" / "weights.csv").read_bytes(),
            "sweep": (root / "sw" / "sweep.csv").read_bytes(),
            "summary": (root / "run" / "summary_recomputed.json").read_bytes(),
        }

    first = run_all(tmp_path / "first")
    second = run_all(tmp_path / "second")
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    _report(9, "CLI determinism", f"{len(first)} artifacts byte-identical")
