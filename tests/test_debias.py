import importlib.util
import json
import math
import threading
import tracemalloc
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debiaskit import classifier, cli, debias
from debiaskit.classifier import (BlockWorkspace, TrainConfig, TrainingDiverged, init_mlp,
                                  mlp_forward, row_blocks, shuffle_batches, softmax_xent,
                                  train)
from debiaskit.data import (SCHEMA_VERSION, GenConfig, LabeledDataset,
                            estimate_p_y_given_b, generate_two_factor, load_dataset,
                            save_dataset, unbiased_config)
from debiaskit.debias import (AnnealConfig, SampleWeights, Scheme,
                              _run_lff, anneal_weight, compute_weights_clamped,
                              lff_full_weights, lff_weight, oracle_ub_weights, pgd_weight,
                              rescale_weights, run_debias_pipeline,
                              tba_adjusted_probs, train_biased_classifier,
                              weighted_sampler)
from debiaskit.classifier import softmax_numpy
from debiaskit.metrics import debias_bc_ratio, evaluate_accuracy
from debiaskit.runner import ConfigError, RunConfig, run_sweep
from debiaskit.vcae import VcaeConfig

from conftest import assert_views_of_flat, ref_optimizer, tape_loss_and_grads


# --- clamped weights and rescaling -----------------------------------------

def test_clamp_examples():
    w = compute_weights_clamped(np.array([1.0, 0.001, 0.02]), gamma=200.0)
    np.testing.assert_allclose(w.weights, [1.0, 200.0, 50.0])
    assert w.provenance == "biased-confidence" and not w.rescaled


def test_clamp_rejects_bad_inputs():
    with pytest.raises(ValueError):
        compute_weights_clamped(np.array([0.5]), gamma=1.0)
    with pytest.raises(ValueError):
        compute_weights_clamped(np.array([0.0]), gamma=10.0)
    with pytest.raises(ValueError):
        compute_weights_clamped(np.array([1.5]), gamma=10.0)


@given(st.lists(st.floats(1e-9, 1.0, exclude_min=False), min_size=1, max_size=50),
       st.floats(1.5, 1e6))
@settings(max_examples=100, deadline=None)
def test_clamp_range_property(confs, gamma):
    w = compute_weights_clamped(np.array(confs), gamma)
    assert w.weights.min() >= 1.0 and w.weights.max() <= gamma
    r = rescale_weights(w)
    assert r.weights.min() >= 10.0 / gamma - 1e-12
    assert r.weights.max() <= 10.0 + 1e-12


def test_rescale_examples():
    w = compute_weights_clamped(np.array([1.0 / 200.0, 1.0, 0.02]), gamma=200.0)
    r = rescale_weights(w)
    np.testing.assert_allclose(r.weights, [10.0, 0.05, 2.5])
    assert r.rescaled
    with pytest.raises(ValueError):
        rescale_weights(r)


# --- annealing ---------------------------------------------------------------

def test_anneal_endpoints_and_midpoint():
    ac = AnnealConfig(w_init=1.0, t_anneal=100)
    assert anneal_weight(9.0, 0, ac) == 1.0
    assert anneal_weight(9.0, 100, ac) == 9.0
    assert anneal_weight(9.0, 50, ac) == 5.0


def test_anneal_disabled():
    ac = AnnealConfig(w_init=2.0, t_anneal=0)
    for t in (0, 1, 10):
        assert anneal_weight(7.0, t, ac) == 7.0


def test_anneal_continuity_and_monotonicity():
    ac = AnnealConfig(w_init=0.5, t_anneal=10)
    vals = [float(anneal_weight(4.0, t, ac)) for t in range(15)]
    assert abs(vals[10] - vals[9] - (vals[9] - vals[8])) < 1e-12  # no jump at the knee
    assert all(b >= a for a, b in zip(vals, vals[1:]))  # monotone when w_n > w_init


def test_anneal_vectorized():
    ac = AnnealConfig(w_init=1.0, t_anneal=4)
    out = anneal_weight(np.array([1.0, 5.0]), 2, ac)
    np.testing.assert_allclose(out, [1.0, 3.0])


# --- weighted sampling -------------------------------------------------------

def test_sampler_uniform_frequencies():
    gen = weighted_sampler(np.ones(10), batch_size=1000, seed=0)
    draws = np.concatenate([next(gen) for _ in range(100)])
    freqs = np.bincount(draws, minlength=10) / len(draws)
    sigma = np.sqrt(0.1 * 0.9 / len(draws))
    assert np.all(np.abs(freqs - 0.1) <= 4 * sigma)


def test_sampler_zero_weight_never_drawn():
    gen = weighted_sampler(np.array([0.0, 1.0, 1.0]), batch_size=500, seed=1)
    draws = np.concatenate([next(gen) for _ in range(20)])
    assert 0 not in draws


def test_sampler_two_to_one_ratio():
    n_draws = 90000
    gen = weighted_sampler(np.array([2.0, 1.0]), batch_size=n_draws, seed=2)
    draws = next(gen)
    count0 = int((draws == 0).sum())
    sigma = np.sqrt(n_draws * (2 / 3) * (1 / 3))
    assert abs(count0 - n_draws * 2 / 3) <= 3 * sigma


def test_sampler_rejects_all_zero():
    with pytest.raises(ValueError):
        next(weighted_sampler(np.zeros(3), batch_size=4, seed=0))


@pytest.mark.parametrize("n", [2_000, 10_000, 100_000])
@pytest.mark.parametrize("kind", ["uniform", "skewed", "zeros"])
def test_sampler_draws_what_numpy_choice_draws(n, kind):
    """Each batch holds the indices ``rng.choice(n, size, p=w / sum(w))``
    draws from the same seed, so a numpy release that changes ``choice``
    fails here instead of silently moving WS output."""
    w = {"uniform": np.ones(n),
         "skewed": np.random.default_rng(n).pareto(0.5, size=n) + 1e-3,
         "zeros": np.where(np.arange(n) % 3 == 0, 0.0, 1.0 + np.arange(n) % 7)}[kind]
    for seed in (0, 1, 12345):
        gen = weighted_sampler(w, batch_size=128, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(50):
            want = rng.choice(n, size=128, p=w / w.sum())
            got = next(gen)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_sampler_deterministic():
    a = np.concatenate([next(weighted_sampler(np.arange(1, 5.0), 64, seed=9))
                        for _ in range(3)])
    b = np.concatenate([next(weighted_sampler(np.arange(1, 5.0), 64, seed=9))
                        for _ in range(3)])
    np.testing.assert_array_equal(a, b)


# --- competitor weight formulas ---------------------------------------------

def test_lff_weight_examples():
    assert lff_weight(1.0, 1.0) == 0.5
    assert lff_weight(3.0, 0.0) == 1.0
    assert lff_weight(2.0, 6.0) == 0.25
    assert lff_weight(0.0, 0.0) == 0.5


@given(st.floats(0, 1e6), st.floats(0, 1e6))
@settings(max_examples=100, deadline=None)
def test_lff_weight_in_unit_interval(lb, ld):
    w = lff_weight(lb, ld)
    assert 0.0 <= w <= 1.0


def test_pgd_weight_examples():
    p = np.array([1.0, 0.0, 0.0])
    assert pgd_weight(p, 0, np.array([1.0, 2.0])) == 0.0
    w = pgd_weight(np.array([0.5, 0.5]), 0, np.array([1.0]))
    assert abs(w - np.sqrt(0.5)) < 1e-12
    h = np.array([0.3, -1.2, 0.7])
    w1 = pgd_weight(np.array([0.2, 0.5, 0.3]), 1, h)
    w2 = pgd_weight(np.array([0.2, 0.5, 0.3]), 1, 2 * h)
    assert abs(w2 - 2 * w1) < 1e-12


def test_pgd_closed_form_equals_outer_product_norm(rng):
    for _ in range(50):
        c, d = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        p = rng.dirichlet(np.ones(c))
        y = int(rng.integers(0, c))
        h = rng.normal(size=d)
        resid = p.copy()
        resid[y] -= 1.0
        outer = np.linalg.norm(np.outer(resid, h))
        assert abs(pgd_weight(p, y, h) - outer) < 1e-12


def test_tba_uniform_bias_is_neutral(rng):
    f = rng.normal(size=(5, 4))
    p_psi = np.full((5, 4), 0.25)
    got = tba_adjusted_probs(f, p_psi, gamma=100.0)
    np.testing.assert_allclose(got, softmax_numpy(f), atol=1e-12)
    assert np.array_equal(got.argmax(axis=1), softmax_numpy(f).argmax(axis=1))


def test_tba_zero_entry_clamped():
    f = np.zeros((1, 2))
    got = tba_adjusted_probs(f, np.array([[0.0, 1.0]]), gamma=10.0)
    expect = np.array([0.1, 1.0]) / 1.1
    np.testing.assert_allclose(got[0], expect, atol=1e-12)


def test_tba_direct_evaluation():
    got = tba_adjusted_probs(np.zeros((1, 2)), np.array([[0.9, 0.1]]), gamma=100.0)
    np.testing.assert_allclose(got[0], [0.9, 0.1], atol=1e-12)
    assert abs(got.sum() - 1.0) < 1e-12


# --- biased classifier -------------------------------------------------------

def test_t_bias_zero_rejected():
    ds = generate_two_factor(GenConfig(num_classes=3, n=60, bc_ratio=0.2, seed=0))
    with pytest.raises(ValueError):
        train_biased_classifier(ds, 0.7, t_bias=0,
                                cfg=TrainConfig(epochs=1, hidden=(8,)))


@pytest.mark.parametrize("tau", [0.0, -0.5, 1.5, float("nan")])
def test_tau_outside_the_unit_interval_rejected(tau):
    ds = generate_two_factor(GenConfig(num_classes=3, n=60, bc_ratio=0.2, seed=0))
    with pytest.raises(ValueError, match=r"^tau must be in \(0, 1\], got "):
        train_biased_classifier(ds, tau, 1, TrainConfig(epochs=1, hidden=(8,)))


def test_biased_classifier_separates_conflicting_samples():
    """After amplification training, conflicting samples get lower confidence."""
    ds = generate_two_factor(GenConfig(num_classes=10, n=4000, bc_ratio=0.02, seed=31))
    art = train_biased_classifier(ds, 0.7, t_bias=5,
                                  cfg=TrainConfig(epochs=1, batch_size=128, seed=2))
    conf_bc = art.confidences[~ds.aligned].mean()
    conf_ba = art.confidences[ds.aligned].mean()
    assert conf_bc < conf_ba
    assert art.confidences.min() > 0 and art.confidences.max() <= 1.0
    assert art.class_probs.shape == (4000, 10)


# --- amplification memo ------------------------------------------------------

@pytest.fixture
def amp_calls(monkeypatch):
    """Empty memo for the test; counts the GCE trainings debias starts."""
    monkeypatch.setattr(debias, "_amplify_memo", OrderedDict())
    calls = []

    def counted(ds, cfg, **kw):
        if kw.get("loss") == "gce":
            calls.append(cfg)
        return train(ds, cfg, **kw)

    monkeypatch.setattr(debias, "train", counted)
    return calls


def _amp_setup():
    ds = generate_two_factor(GenConfig(num_classes=3, n=90, bc_ratio=0.2, seed=8))
    return ds, 0.7, TrainConfig(batch_size=32, hidden=(8,), seed=1)


def _artifact_bytes(art):
    return ([a.tobytes() for a in art.params.arrays], art.confidences.tobytes(),
            art.class_probs.tobytes())


def test_memo_trains_equal_content_once(tmp_path, amp_calls):
    ds, tau, cfg = _amp_setup()
    save_dataset(ds, tmp_path / "d")
    first = train_biased_classifier(ds, tau, 2, cfg)
    again = train_biased_classifier(load_dataset(tmp_path / "d"), tau, 2, cfg)
    assert len(amp_calls) == 1
    debias._amplify_memo.clear()
    fresh = train_biased_classifier(ds, tau, 2, cfg)
    assert len(amp_calls) == 2
    assert _artifact_bytes(first) == _artifact_bytes(again) == _artifact_bytes(fresh)


def test_memo_ignores_epochs(amp_calls):
    ds, tau, cfg = _amp_setup()
    train_biased_classifier(ds, tau, 2, replace(cfg, epochs=3))
    train_biased_classifier(ds, tau, 2, replace(cfg, epochs=40))
    assert len(amp_calls) == 1


def _changed(ds, tau, t_bias, cfg, what):
    f, y = ds.features.copy(), ds.labels.copy()
    if what == "features":
        f[5, 0] += 1e-9
    elif what == "labels":
        y[5] = (y[5] + 1) % ds.num_classes
    elif what == "num_classes":
        return LabeledDataset(f, y, ds.num_classes + 1), tau, t_bias, cfg
    elif what == "tau":
        tau = 0.5
    elif what == "t_bias":
        t_bias += 1
    else:
        cfg = replace(cfg, **{what: {"seed": 2, "hidden": (9,), "lr": 2e-3,
                                     "batch_size": 33}[what]})
    return LabeledDataset(f, y, ds.num_classes), tau, t_bias, cfg


@pytest.mark.parametrize("what", ["features", "labels", "num_classes", "tau",
                                  "t_bias", "seed", "hidden", "lr", "batch_size"])
def test_memo_retrains_when_an_input_changes(amp_calls, what):
    ds, tau, cfg = _amp_setup()
    base = LabeledDataset(ds.features.copy(), ds.labels.copy(), ds.num_classes)
    train_biased_classifier(base, tau, 1, cfg)
    train_biased_classifier(*_changed(ds, tau, 1, cfg, what))
    assert len(amp_calls) == 2


def test_memo_arrays_are_read_only(amp_calls):
    ds, tau, cfg = _amp_setup()
    art = train_biased_classifier(ds, tau, 1, cfg)
    for a in (*art.params.arrays, art.confidences, art.class_probs):
        with pytest.raises(ValueError):
            a[0] = 0.5
    kept = _artifact_bytes(art)
    art.params.arrays[0] = np.zeros_like(art.params.arrays[0])  # rebinding
    art.confidences = np.full(len(ds), 0.5)
    assert _artifact_bytes(train_biased_classifier(ds, tau, 1, cfg)) == kept
    assert len(amp_calls) == 1


def test_memo_vector_and_every_view_are_read_only(amp_calls):
    """On a miss and on a hit, no view of the shared vector takes a write:
    the views made while training are not the ones handed out."""
    ds, tau, cfg = _amp_setup()
    for art in (train_biased_classifier(ds, tau, 1, cfg),
                train_biased_classifier(ds, tau, 1, cfg)):
        views = (art.params.flat, *art.params.arrays, art.confidences,
                 art.class_probs)
        for a in views:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.5
        for a in views[1:-2]:
            with pytest.raises(ValueError):
                a.flags.writeable = True
    assert len(amp_calls) == 1


def test_memo_hit_shares_the_vector_with_new_views(amp_calls):
    ds, tau, cfg = _amp_setup()
    first = train_biased_classifier(ds, tau, 1, cfg)
    hit = train_biased_classifier(ds, tau, 1, cfg)
    assert len(amp_calls) == 1
    assert hit.params is not first.params and hit.params.arrays is not first.params.arrays
    assert hit.params.flat is first.params.flat  # shared, not copied
    assert_views_of_flat(hit.params.flat, hit.params.arrays)


def test_memo_does_not_keep_a_failed_call(monkeypatch, amp_calls):
    ds, tau, cfg = _amp_setup()
    counted = debias.train

    def diverge_once(ds, cfg, **kw):
        if not amp_calls:
            amp_calls.append(cfg)
            raise TrainingDiverged("amplification collapse")
        return counted(ds, cfg, **kw)

    monkeypatch.setattr(debias, "train", diverge_once)
    with pytest.raises(TrainingDiverged):
        train_biased_classifier(ds, tau, 1, cfg)
    assert not debias._amplify_memo
    train_biased_classifier(ds, tau, 1, cfg)
    train_biased_classifier(ds, tau, 1, cfg)
    assert len(amp_calls) == 2 and len(debias._amplify_memo) == 1


def test_amplification_collapse_aborts_and_is_not_kept(monkeypatch, amp_calls):
    """A mean train cross-entropy above COLLAPSE_XENT aborts amplification
    with the collapse diagnostic, and the failed call leaves no memo entry."""
    ds, tau, cfg = _amp_setup()
    collapse = debias.COLLAPSE_XENT
    monkeypatch.setattr(debias, "COLLAPSE_XENT", 0.0)
    with pytest.raises(TrainingDiverged, match=r"^mean train cross-entropy \S+ exceeded 0\.0: "
                       r"amplification training collapsed .*; lower t_bias or tau$"):
        train_biased_classifier(ds, tau, 1, cfg)
    assert len(amp_calls) == 1 and not debias._amplify_memo
    monkeypatch.setattr(debias, "COLLAPSE_XENT", collapse)
    train_biased_classifier(ds, tau, 1, cfg)
    assert len(amp_calls) == 2 and len(debias._amplify_memo) == 1


def test_memo_stays_at_its_bound_and_drops_the_least_recent(amp_calls):
    ds, tau, cfg = _amp_setup()
    bound = debias.AMPLIFY_MEMO_SIZE

    def amplify(seed):
        train_biased_classifier(ds, tau, 1, replace(cfg, seed=seed))
        return len(amp_calls)

    for seed in range(bound + 2):
        amplify(seed)
    assert len(debias._amplify_memo) == bound  # seeds 2 .. bound + 1
    assert amplify(2) == bound + 2  # oldest entry hit: now the most recent
    assert amplify(0) == bound + 3  # dropped entry retrains, evicting seed 3
    assert amplify(2) == bound + 3
    assert amplify(3) == bound + 4
    assert len(debias._amplify_memo) == bound


def test_gamma_sweep_amplifies_once_per_seed(tmp_path, amp_calls):
    gen = GenConfig(num_classes=4, n=300, bc_ratio=0.1, seed=5)
    save_dataset(generate_two_factor(gen), tmp_path / "d")
    cfg = RunConfig(scheme="biased-confidence", dataset_path=str(tmp_path / "d"),
                    test_n=200, t_bias=1, seeds=[0, 1],
                    train=TrainConfig(epochs=1, batch_size=64, hidden=(8,)),
                    out_dir=str(tmp_path / "sweep"))
    run_sweep(cfg, "gamma", [20.0, 50.0, 100.0])
    assert sorted(c.seed for c in amp_calls) == [0, 1]


# --- beta metric mechanics ---------------------------------------------------

def test_beta_identity_ideal_separator():
    # BA weights 10/gamma, BC weights 10 -> beta = gamma/(gamma+1)
    gamma = 200.0
    aligned = np.array([True] * 995 + [False] * 5)
    w = np.where(aligned, 10.0 / gamma, 10.0)
    beta = debias_bc_ratio(w, aligned)
    assert abs(beta - gamma / (gamma + 1.0)) < 1e-15
    assert abs(beta - 0.995024875621890547) < 1e-15


def test_sample_weights_validation():
    """The range check keys on gamma, whatever the provenance; TBA's implied
    weights min(1/v, gamma) carry gamma and lie inside [1, gamma]."""
    with pytest.raises(ValueError):
        SampleWeights(np.array([1.0, 0.0]), provenance="oracle-ub")
    with pytest.raises(ValueError):
        SampleWeights(np.array([0.5]), provenance="biased-confidence", gamma=100.0)
    with pytest.raises(ValueError, match=r"^weights outside \[1\.0, 100\.0\]$"):
        SampleWeights(np.array([0.5]), provenance="oracle-ub", gamma=100.0)
    train_ds, test_ds, cfg = _tiny_setup()
    w = run_debias_pipeline(train_ds, test_ds, "oracle-yb", "TBA",
                            train_cfg=replace(cfg, epochs=1), gamma=30.0).weights
    assert (w.provenance, w.gamma, w.rescaled) == ("oracle-yb", 30.0, False)
    assert 1.0 <= w.weights.min() and w.weights.max() <= 30.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sample_weights_reject_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        SampleWeights(np.array([1.0, bad]), provenance="oracle-ub")


# --- pipeline ----------------------------------------------------------------

def _tiny_setup(seed=41):
    gen = GenConfig(num_classes=4, n=400, bc_ratio=0.1, seed=seed)
    train_ds = generate_two_factor(gen)
    test_ds = generate_two_factor(unbiased_config(gen, n=300, seed=seed + 1))
    cfg = TrainConfig(epochs=2, batch_size=64, hidden=(16,), seed=3)
    return train_ds, test_ds, cfg


def test_oracle_ub_weights_exact():
    train_ds, _, _ = _tiny_setup()
    w = oracle_ub_weights(train_ds)
    rho, c = 0.1, 4
    np.testing.assert_allclose(w.weights[train_ds.aligned], 1 / (1 - rho))
    np.testing.assert_allclose(w.weights[~train_ds.aligned], (c - 1) / rho)


@pytest.mark.parametrize("scheme,method", [
    ("nonsense", "LW"), ("oracle-ub", "XX"), ("lff", "TBA"), ("lff", "WS"), ("pgd", "LW"),
    ("vanilla", "TBA"), ("vcae", "TBA")])
def test_pipeline_and_run_config_reject_a_bad_pair_alike(scheme, method):
    """One check of the scheme/method pair: the same error and message."""
    train_ds, test_ds, cfg = _tiny_setup()
    with pytest.raises(ConfigError) as from_pipeline:
        run_debias_pipeline(train_ds, test_ds, scheme, method,
                            train_cfg=cfg, gamma=50.0)
    with pytest.raises(ConfigError) as from_config:
        RunConfig(scheme=scheme, method=method, dataset=GenConfig())
    assert str(from_pipeline.value) == str(from_config.value)


@pytest.mark.parametrize("scheme,method", [
    ("oracle-ub", "TBA"), ("oracle-yb", "TBA"), ("biased-confidence", "TBA"),
    ("biased-confidence", "LW")])
@pytest.mark.parametrize("gamma", [None, 0.5, 1.0])
def test_pipeline_rejects_gamma_at_or_below_one_before_training(scheme, method, gamma,
                                                                monkeypatch):
    """TBA's floor 1/gamma and the confidence clamp need gamma above 1: at or
    below it the logit offset is one constant, or every weight the clamp,
    and the run would train vanilla. RunConfig's message, and no training;
    the clamp's and TBA's helpers raise it too."""
    def no_training(*args, **kwargs):
        raise AssertionError("trained")

    monkeypatch.setattr(classifier, "run_epochs", no_training)
    train_ds, test_ds, cfg = _tiny_setup()
    with pytest.raises(ConfigError) as from_pipeline:
        run_debias_pipeline(train_ds, test_ds, scheme, method, train_cfg=cfg, gamma=gamma)
    assert str(from_pipeline.value) == f"gamma must be above 1, got {gamma}"
    with pytest.raises(ConfigError) as from_clamp:
        compute_weights_clamped(np.array([0.5]), gamma)
    with pytest.raises(ConfigError) as from_tba:
        tba_adjusted_probs(np.zeros((1, 2)), np.array([[0.9, 0.1]]), gamma)
    assert str(from_clamp.value) == str(from_tba.value) == str(from_pipeline.value)
    if gamma is not None:
        with pytest.raises(ConfigError) as from_config:
            RunConfig(scheme=scheme, method=method, dataset=GenConfig(), gamma=gamma)
        assert str(from_config.value) == str(from_pipeline.value)


# every scheme/method pair: the accepted ones, and the message of each rejection
ACCEPTED_PAIRS = {
    ("vanilla", "LW"), ("vanilla", "ALW"), ("vanilla", "WS"),
    ("oracle-ub", "LW"), ("oracle-ub", "ALW"), ("oracle-ub", "WS"), ("oracle-ub", "TBA"),
    ("oracle-yb", "LW"), ("oracle-yb", "ALW"), ("oracle-yb", "WS"), ("oracle-yb", "TBA"),
    ("biased-confidence", "LW"), ("biased-confidence", "ALW"),
    ("biased-confidence", "WS"), ("biased-confidence", "TBA"),
    ("lff", "LW"), ("pgd", "WS"),
    ("vcae", "LW"), ("vcae", "ALW"), ("vcae", "WS"),
}
REJECTED_PAIRS = {
    ("vanilla", "TBA"): "scheme 'vanilla' cannot drive method 'TBA'; it drives ['ALW', 'LW', 'WS']",
    ("lff", "ALW"): "scheme 'lff' cannot drive method 'ALW'; it drives ['LW']",
    ("lff", "WS"): "scheme 'lff' cannot drive method 'WS'; it drives ['LW']",
    ("lff", "TBA"): "scheme 'lff' cannot drive method 'TBA'; it drives ['LW']",
    ("pgd", "LW"): "scheme 'pgd' cannot drive method 'LW'; it drives ['WS']",
    ("pgd", "ALW"): "scheme 'pgd' cannot drive method 'ALW'; it drives ['WS']",
    ("pgd", "TBA"): "scheme 'pgd' cannot drive method 'TBA'; it drives ['WS']",
    ("vcae", "TBA"): "scheme 'vcae' cannot drive method 'TBA'; it drives ['ALW', 'LW', 'WS']",
}


def test_pairing_grid_is_the_literal_table():
    schemes = ("vanilla", "oracle-ub", "oracle-yb", "biased-confidence", "lff", "pgd", "vcae")
    methods = ("LW", "ALW", "WS", "TBA")
    assert (tuple(debias.SCHEMES), debias.METHODS) == (schemes, methods)
    assert ACCEPTED_PAIRS | set(REJECTED_PAIRS) == {(s, m) for s in schemes for m in methods}
    for scheme in schemes:
        for method in methods:
            if (scheme, method) in ACCEPTED_PAIRS:
                debias.check_pair(scheme, method)
                continue
            with pytest.raises(ConfigError) as err:
                debias.check_pair(scheme, method)
            assert str(err.value) == REJECTED_PAIRS[scheme, method]


def test_conditional_rows_of_each_scheme_and_exactly_those_drive_tba():
    train_ds, _, cfg = _tiny_setup()
    art = train_biased_classifier(train_ds, 0.7, 1, cfg)
    rho, c, idx = 0.1, 4, np.arange(len(train_ds))
    rows = {s: debias.SCHEMES[s].rows(train_ds, lambda: art)
            for s in ("biased-confidence", "oracle-ub", "oracle-yb")}
    assert rows["biased-confidence"] is art.class_probs
    exact = np.where(np.arange(c) == train_ds.bias[:, None], 1.0 - rho, rho / (c - 1))
    assert rows["oracle-ub"].tobytes() == exact.tobytes()
    emp = rows["oracle-yb"]
    assert emp.shape == (len(train_ds), c)
    assert emp[idx, train_ds.labels].tobytes() == (
        estimate_p_y_given_b(train_ds)[train_ds.labels, train_ds.bias].tobytes())
    for scheme, entry in debias.SCHEMES.items():
        assert (entry.rows is not None) == ((scheme, "TBA") in ACCEPTED_PAIRS)


def test_exactly_the_confidence_and_pgd_pairs_train_the_amplifier(amp_calls):
    """One GCE training for each biased-confidence pair and for pgd/WS, none
    for any other pair: LfF's psi trains in its own loop, not by amplifying."""
    train_ds, test_ds, cfg = _tiny_setup()
    vcae_cfg = VcaeConfig(num_classes=train_ds.num_classes, hidden=(8,))
    for scheme, method in sorted(ACCEPTED_PAIRS):
        debias._amplify_memo.clear()
        amp_calls.clear()
        run_debias_pipeline(train_ds, test_ds, scheme, method, train_cfg=replace(cfg, epochs=1),
                            gamma=30.0, t_bias=1, vcae_cfg=vcae_cfg)
        assert len(amp_calls) == (scheme in ("biased-confidence", "pgd")), (scheme, method)


def test_a_scheme_is_one_entry_of_schemes(tmp_path, monkeypatch, capsys):
    """A toy scheme registered as one ``SCHEMES`` entry drives LW and TBA
    through the CLI with no other code touched, and rejects WS by name."""
    rows = lambda ds, _: np.full((len(ds), ds.num_classes), 1.0 / ds.num_classes)
    weights = lambda ds, *_, **__: SampleWeights(np.where(ds.aligned, 1.0, 3.0),
                                                 provenance="toy")
    monkeypatch.setitem(debias.SCHEMES, "toy", Scheme(("LW", "TBA"), rows=rows, weights=weights))
    save_dataset(generate_two_factor(GenConfig(num_classes=3, n=120, bc_ratio=0.1, seed=2)),
                 tmp_path / "d")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "schema_version": SCHEMA_VERSION, "dataset_path": str(tmp_path / "d"), "test_n": 60,
        "train": {"epochs": 1, "batch_size": 32, "hidden": [8]}}))
    for method in ("LW", "TBA"):
        out = tmp_path / method
        assert cli.main(["debias", "--config", str(config), "--scheme", "toy",
                         "--method", method, "--out", str(out)]) == 0
        assert (out / "weights_seed0.csv").read_text().splitlines()[1].endswith(",toy")
    capsys.readouterr()
    assert cli.main(["debias", "--config", str(config), "--scheme", "toy",
                     "--method", "WS"]) == 1
    assert capsys.readouterr().err == (
        "error: scheme 'toy' cannot drive method 'WS'; it drives ['LW', 'TBA']\n")


def test_output_digest_runs_every_pair_of_the_registry():
    """The byte-identity job list restates the accepted pairs by hand, so
    that one list runs on both trees; a new scheme entry must join it."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    assert set(digest.PAIRS) == {(s, m) for s, e in debias.SCHEMES.items() for m in e.methods}


def test_oracle_yb_weights_are_one_over_the_true_class_column():
    train_ds, test_ds, cfg = _tiny_setup()
    res = run_debias_pipeline(train_ds, test_ds, "oracle-yb", "WS", train_cfg=cfg)
    p = estimate_p_y_given_b(train_ds)[train_ds.labels, train_ds.bias]
    assert res.weights.provenance == "oracle-yb"
    assert res.weights.weights.tobytes() == (1.0 / p).tobytes()


@pytest.mark.parametrize("c,rho", [(4, 0.049), (10, 0.007)])
def test_oracle_ub_weights_are_the_closed_form_bit_for_bit(c, rho):
    """(C-1)/rho, not 1/(rho/(C-1)) from the table: at these rho the two
    differ in the last bit, so the pipeline must not take the table route."""
    assert 1.0 / (rho / (c - 1)) != (c - 1) / rho
    gen = GenConfig(num_classes=c, n=2000, bc_ratio=rho, seed=2)
    train_ds = generate_two_factor(gen)
    test_ds = generate_two_factor(unbiased_config(gen, n=50, seed=3))
    n_bc = int((~train_ds.aligned).sum())
    assert n_bc > 0
    cfg = TrainConfig(epochs=1, batch_size=500, hidden=(4,), seed=0)
    for method in ("LW", "ALW", "WS"):
        w = run_debias_pipeline(train_ds, test_ds, "oracle-ub", method,
                                train_cfg=cfg).weights.weights
        assert w[~train_ds.aligned].tobytes() == np.full(n_bc, (c - 1) / rho).tobytes()
        assert w[train_ds.aligned].tobytes() == (
            np.full(len(train_ds) - n_bc, 1.0 / (1.0 - rho)).tobytes())


@pytest.mark.parametrize("method", ["LW", "TBA"])
def test_oracle_ub_without_its_generation_config_says_so(method):
    train_ds, test_ds, cfg = _tiny_setup()
    with pytest.raises(ValueError, match="^dataset lacks its generation config; "
                                         "exact conditional unknown$"):
        run_debias_pipeline(replace(train_ds, cfg=None), test_ds, "oracle-ub", method,
                            train_cfg=cfg, gamma=30.0)


@pytest.mark.parametrize("scheme", ["oracle-ub", "oracle-yb", "biased-confidence"])
def test_pipeline_tba_offset_is_the_log_of_the_floor(monkeypatch, scheme):
    """TBA trains on log max(p(y|b), 1/gamma) of the scheme's conditional,
    and its beta weights are min(1 / v[n, y_n], gamma), bit for bit."""
    train_ds, test_ds, cfg = _tiny_setup()
    gamma, offsets = 30.0, []

    def capture(ds, cfg, **kw):
        if kw.get("loss") == "xent":
            offsets.append(kw["logit_offset"])
        return train(ds, cfg, **kw)

    monkeypatch.setattr(debias, "train", capture)
    res = run_debias_pipeline(train_ds, test_ds, scheme, "TBA", train_cfg=cfg,
                              gamma=gamma, t_bias=1)
    if scheme == "biased-confidence":
        cond = train_biased_classifier(train_ds, 0.7, 1, cfg).class_probs
    elif scheme == "oracle-yb":
        cond = estimate_p_y_given_b(train_ds)[:, train_ds.bias].T
    else:
        rho, c = train_ds.cfg.bc_ratio, train_ds.num_classes
        cond = np.where(np.arange(c) == train_ds.bias[:, None], 1.0 - rho, rho / (c - 1))
    v = debias.tba_floor(cond, gamma)
    assert len(offsets) == 1
    assert offsets[0].tobytes() == np.log(v).tobytes()
    implied = np.minimum(1.0 / v[np.arange(len(train_ds)), train_ds.labels], gamma)
    assert res.weights.weights.tobytes() == implied.tobytes()


def test_vanilla_lw_matches_plain_training():
    train_ds, test_ds, cfg = _tiny_setup()
    res = run_debias_pipeline(train_ds, test_ds, "vanilla", "LW", train_cfg=cfg)
    params, _ = train(train_ds, cfg)
    for a, b in zip(res.params.arrays, params.arrays):
        assert a.tobytes() == b.tobytes()
    assert res.history[-1].beta == 0.5


def test_uniform_weight_fn_matches_vanilla():
    train_ds, _, cfg = _tiny_setup()
    p1, _ = train(train_ds, cfg)
    p2, _ = train(train_ds, cfg, weight_fn=lambda idx, t, fwd: np.ones(len(idx)))
    for a, b in zip(p1.arrays, p2.arrays):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


def test_pipeline_histories_have_metrics():
    train_ds, test_ds, cfg = _tiny_setup()
    res = run_debias_pipeline(train_ds, test_ds, "oracle-ub", "LW", train_cfg=cfg)
    assert len(res.history) == cfg.epochs
    row = res.history[-1]
    assert 0.0 <= row.test_acc <= 1.0
    assert 0.0 < row.beta < 1.0
    # oracle weights: beta = mean_bc / (mean_bc + mean_ba) for the exact inverses
    w = oracle_ub_weights(train_ds)
    assert abs(row.beta - debias_bc_ratio(w.weights, train_ds.aligned)) < 1e-15


def test_pipeline_ws_and_alw_and_tba_run():
    train_ds, test_ds, cfg = _tiny_setup()
    for scheme, method, kw in [
        ("oracle-ub", "WS", {}),
        ("oracle-yb", "LW", {}),
        ("biased-confidence", "ALW",
         dict(gamma=30.0, t_bias=1, anneal=AnnealConfig(w_init=1.0, t_anneal=5))),
        ("biased-confidence", "TBA", dict(gamma=30.0, t_bias=1)),
        ("oracle-ub", "TBA", dict(gamma=30.0)),
        ("pgd", "WS", dict(t_bias=1)),
        ("lff", "LW", {}),
    ]:
        res = run_debias_pipeline(train_ds, test_ds, scheme, method,
                                  train_cfg=cfg, **kw)
        assert len(res.history) == cfg.epochs, (scheme, method)
        assert np.isfinite(res.history[-1].test_acc)


@pytest.mark.parametrize("hidden,n_blocks", [((64, 64), 3), ((), 1)],
                         ids=["hidden-64-64", "no-hidden"])
def test_pgd_weights_by_blocks_equal_the_whole_array_plain_chain(hidden, n_blocks):
    """PGD's weights, computed over blocks of 1,666-1,667 rows (three at
    n = 5,000) or, with no hidden layer, in one block on the input rows, are
    the bytes of ``pgd_weight`` on the whole-array plain layer chain."""
    gen = GenConfig(num_classes=10, n=5000, bc_ratio=0.05, seed=7)
    train_ds = generate_two_factor(gen)
    test_ds = generate_two_factor(unbiased_config(gen, n=500, seed=8))
    cfg = TrainConfig(epochs=1, batch_size=128, hidden=hidden, seed=5)
    res = run_debias_pipeline(train_ds, test_ds, "pgd", "WS", train_cfg=cfg, t_bias=1)
    art = train_biased_classifier(train_ds, 0.7, 1, cfg)
    assert len(row_blocks(art.params, len(train_ds))) == n_blocks
    h = train_ds.features
    for w, b in zip(art.params.arrays[:-2:2], art.params.arrays[1:-2:2]):
        h = np.maximum(h @ w + b, 0.0)
    probs = softmax_numpy(h @ art.params.arrays[-2] + art.params.arrays[-1])
    assert art.class_probs.tobytes() == probs.tobytes()
    raw = pgd_weight(probs, train_ds.labels, h)
    assert res.weights.weights.tobytes() == np.maximum(raw / raw.sum(), 1e-300).tobytes()


def _plain_logits(params, x):
    """The whole-array plain layer chain, one fresh array per operation."""
    h = x
    for w, b in zip(params.arrays[:-2:2], params.arrays[1:-2:2]):
        h = np.maximum(h @ w + b, 0.0)
    return h @ params.arrays[-2] + params.arrays[-1]


@pytest.mark.parametrize("n,n_blocks", [(1000, 1), (5000, 3), (10000, 6)])
def test_blockwise_passes_equal_the_whole_pass(n, n_blocks):
    """Accuracies and LfF's weights through a workspace, and the amplifier's
    probabilities by blocks, are the bytes of the whole-array plain chain."""
    ds = generate_two_factor(GenConfig(num_classes=10, n=n, bc_ratio=0.05, seed=n))
    cfg = TrainConfig(epochs=1, batch_size=128, hidden=(64, 64), seed=5)
    theta, _ = train(ds, cfg)
    psi, _ = train(ds, replace(cfg, seed=6), loss="gce")
    assert len(row_blocks(theta, n)) == n_blocks
    ws = BlockWorkspace(theta, n, losses=2)
    whole = [_plain_logits(m, ds.features) for m in (psi, theta)]
    correct = whole[1].argmax(axis=1) == ds.labels
    accs = (correct.mean(), correct[ds.aligned].mean(), correct[~ds.aligned].mean())
    assert evaluate_accuracy(theta, ds, ws) == evaluate_accuracy(theta, ds) == accs
    w = lff_weight(*(softmax_xent(f, ds.labels) for f in whole))
    assert lff_full_weights(psi, theta, ds, ws).tobytes() == np.maximum(w, 1e-300).tobytes()
    art = train_biased_classifier(ds, 0.7, 1, cfg)
    probs = softmax_numpy(_plain_logits(art.params, ds.features))
    assert art.class_probs.tobytes() == probs.tobytes()


def test_biased_confidence_lw_weights_rescaled():
    train_ds, test_ds, cfg = _tiny_setup()
    res = run_debias_pipeline(train_ds, test_ds, "biased-confidence", "LW",
                              train_cfg=cfg, gamma=30.0, t_bias=1)
    assert res.weights.rescaled
    assert res.weights.weights.max() <= 10.0 + 1e-12
    assert res.weights.weights.min() >= 10.0 / 30.0 - 1e-12


def test_perfect_separator_beta_matches_alignment_share():
    """Confidence 1 on aligned, <= 1/gamma on conflicting, gamma=200:
    rescaled weights are 10/gamma vs 10, so beta = 200/201."""
    gamma = 200.0
    aligned = np.array([True] * 199 + [False])
    conf = np.where(aligned, 1.0, 1.0 / (2 * gamma))
    w = rescale_weights(compute_weights_clamped(conf, gamma))
    beta = debias_bc_ratio(w.weights, aligned)
    assert abs(beta - 200.0 / 201.0) < 1e-12
    assert abs(beta - 0.995) < 5e-5


def _tape_lff(train_ds, tau, cfg):
    """Reference loop: LfF as it was, with one tape per model and step."""
    seeds = np.random.SeedSequence(cfg.seed).generate_state(3)
    sizes = [train_ds.dim, *cfg.hidden, train_ds.num_classes]
    psi, theta = init_mlp(sizes, int(seeds[0])), init_mlp(sizes, int(seeds[1]))
    opt_psi = ref_optimizer(cfg.optimizer, cfg.lr, cfg.momentum, cfg.weight_decay)
    opt_theta = ref_optimizer(cfg.optimizer, cfg.lr, cfg.momentum, cfg.weight_decay)
    sampler = shuffle_batches(len(train_ds), cfg.batch_size, int(seeds[2]), cfg.shuffle)
    for _ in range(cfg.epochs * math.ceil(len(train_ds) / cfg.batch_size)):
        idx = next(sampler)
        xb, yb = train_ds.features[idx], train_ds.labels[idx]
        w = lff_weight(softmax_xent(mlp_forward(psi, xb), yb),
                       softmax_xent(mlp_forward(theta, xb), yb))
        _, grads = tape_loss_and_grads(psi.arrays, xb, yb, np.ones(len(idx)),
                                       loss="gce", tau=tau)
        opt_psi.step(psi.arrays, grads)
        _, grads = tape_loss_and_grads(theta.arrays, xb, yb, w)
        opt_theta.step(theta.arrays, grads)
    w = lff_weight(softmax_xent(mlp_forward(psi, train_ds.features), train_ds.labels),
                   softmax_xent(mlp_forward(theta, train_ds.features), train_ds.labels))
    return theta, np.maximum(w, 1e-300)


def test_lff_matches_tape_reference_bitwise():
    train_ds, test_ds, cfg = _tiny_setup()
    cfg = TrainConfig(epochs=2, batch_size=48, hidden=(16,), seed=3)  # 1/48 is inexact
    result = _run_lff(train_ds, test_ds, 0.7, cfg)
    theta, w = _tape_lff(train_ds, 0.7, cfg)
    for a, b in zip(result.params.arrays, theta.arrays):
        assert a.tobytes() == b.tobytes()
    assert result.weights.weights.tobytes() == w.tobytes()
    assert_views_of_flat(result.params.flat, result.params.arrays)


def test_lff_divergence_names_epoch_and_step():
    """Rows 8-11 overflow the first matmul; without shuffling they form the
    third batch of the first epoch."""
    x = np.random.default_rng(1).normal(size=(12, 3))
    x[8:] = 1e308
    ds = LabeledDataset(x, np.arange(12) % 2, num_classes=2, bias=np.arange(12) % 2)
    cfg = TrainConfig(epochs=2, batch_size=4, hidden=(4,), shuffle=False)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match=r"non-finite loss nan at epoch 0 step 2$"):
            _run_lff(ds, ds, 0.7, cfg)


def test_every_trainer_runs_the_shared_epoch_loop_once(monkeypatch):
    from debiaskit import classifier, vcae
    calls, run_epochs = [], classifier.run_epochs

    def counted(*args, **kwargs):
        calls.append(args[1].epochs)
        return run_epochs(*args, **kwargs)

    assert not hasattr(debias, "run_epochs")  # LfF trains through ``train``
    for module in (classifier, vcae):
        monkeypatch.setattr(module, "run_epochs", counted)
    train_ds, test_ds, cfg = _tiny_setup()
    cfg = replace(cfg, epochs=1)
    train(train_ds, cfg)
    assert calls == [1]
    _run_lff(train_ds, test_ds, 0.7, cfg)
    assert calls == [1, 1]
    vcae.train_vcae(train_ds, vcae.VcaeConfig(num_classes=4, hidden=(4,)), cfg)
    assert calls == [1, 1, 1]


# --- per-epoch evaluation at each epoch's end ------------------------------

def _run_pipeline(scheme, method, epochs=3):
    train_ds, test_ds, cfg = _tiny_setup()
    return run_debias_pipeline(
        train_ds, test_ds, scheme, method, train_cfg=replace(cfg, epochs=epochs),
        gamma=30.0, t_bias=1, anneal=AnnealConfig(t_anneal=5),
        vcae_cfg=VcaeConfig(num_classes=4, hidden=(4,)))


def _noting(monkeypatch, name, seen):
    """Replace ``debias.name`` by a wrapper that notes its first argument's
    parameters."""
    fn = getattr(debias, name)

    def noting(params, *args):
        seen.append(params.flat.copy())
        return fn(params, *args)

    monkeypatch.setattr(debias, name, noting)


@pytest.mark.parametrize("scheme,method", [("vanilla", "LW"), ("lff", "LW")])
def test_each_evaluation_reads_its_epochs_end_state(scheme, method, monkeypatch):
    """theta (and LfF's psi) as each epoch ended."""
    ends, seen, make_eval, init, psi = [], [], debias._make_eval, debias.init_mlp, []

    def init_noting(*args, **kwargs):  # LfF's first init_mlp call makes psi
        params = init(*args, **kwargs)
        psi.append(params)
        return params

    def recording(test_ds, beta_fn, **kwargs):
        eval_fn = make_eval(test_ds, beta_fn, **kwargs)

        def end(epoch, params, stats):
            ends.append([m.flat.copy() for m in (params, *psi[:1])])
            return eval_fn(epoch, params, stats)
        return end

    monkeypatch.setattr(debias, "_make_eval", recording)
    _noting(monkeypatch, "evaluate_accuracy", seen)
    seen_fwd = []
    if scheme == "lff":  # its beta passes psi, then theta, over the training set
        _noting(monkeypatch, "mlp_xent", seen_fwd)
        monkeypatch.setattr(debias, "init_mlp", init_noting)
    _run_pipeline(scheme, method)
    assert len(ends) == 3
    assert [a.tobytes() for a in seen] == [theta.tobytes() for theta, *_ in ends]
    if scheme == "lff":  # ends hold (theta, psi)
        assert [a.tobytes() for a in seen_fwd] == [m.tobytes() for e in ends for m in e[::-1]]
    assert not np.array_equal(ends[0][0], ends[1][0])


def test_an_evaluation_job_allocates_below_1_mb_with_its_workspace():
    """The test accuracies over 5,000 rows and LfF's weights over 10,000
    (D=20, hidden (64, 64)) write their blocks into the workspace that the
    first epoch end made; without it they peaked at 3.2 and 4.5 MB."""
    gen = GenConfig(num_classes=10, n=10000, bc_ratio=0.05, seed=1)
    train_ds = generate_two_factor(gen)
    test_ds = generate_two_factor(unbiased_config(gen, n=5000, seed=2))
    theta, psi = (init_mlp([20, 64, 64, 10], seed=s) for s in (1, 2))

    def beta_fn(step_end, ws):
        return debias_bc_ratio(lff_full_weights(psi, theta, train_ds, ws), train_ds.aligned)

    stats = {"train_loss": 0.0, "step": 1, "seconds": 0.0}
    eval_fn = debias._make_eval(test_ds, beta_fn, beta_ds=train_ds)
    first = eval_fn(0, theta, stats)  # makes the workspace
    tracemalloc.start()
    try:
        second = eval_fn(1, theta, stats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first.csv_values()[1:] == second.csv_values()[1:]
    assert peak < 2**20, peak


class _EvalFailed(Exception):
    pass


@pytest.mark.parametrize("failing_epoch", [0, 2])
def test_no_thread_outlives_the_pipeline(failing_epoch, monkeypatch):
    """Not after a normal run, a divergence in epoch 2's training, or an
    evaluation that raises, which the pipeline raises as it was at the end
    of the epoch it evaluates, before the next epoch trains."""
    before = threading.active_count()
    _run_pipeline("vanilla", "LW")
    assert threading.active_count() == before

    backward, steps = classifier.mlp_backward, []

    def diverge_in_epoch_2(fwd, *args, **kwargs):
        steps.append(None)
        if len(steps) > 2 * 7:  # 7 steps an epoch
            raise TrainingDiverged("loss blew up")
        return backward(fwd, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(classifier, "mlp_backward", diverge_in_epoch_2)
        with pytest.raises(TrainingDiverged, match=r"^loss blew up at epoch 2 step 14$"):
            _run_pipeline("vanilla", "LW")
    assert threading.active_count() == before

    evaluate, epochs = debias.evaluate_accuracy, []

    def failing(params, ds, ws):
        epochs.append(None)
        if len(epochs) == failing_epoch + 1:
            raise _EvalFailed("no accuracy")
        return evaluate(params, ds, ws)

    def counting(fwd, *args, **kwargs):
        steps.append(None)
        return backward(fwd, *args, **kwargs)

    steps.clear()
    monkeypatch.setattr(classifier, "mlp_backward", counting)
    monkeypatch.setattr(debias, "evaluate_accuracy", failing)
    with pytest.raises(_EvalFailed) as info:
        _run_pipeline("vanilla", "LW")
    assert info.type is _EvalFailed and str(info.value) == "no accuracy"
    assert len(epochs) == failing_epoch + 1
    assert len(steps) == 7 * (failing_epoch + 1)  # no step of the next epoch
    assert threading.active_count() == before


def test_caller_errstate_reaches_the_evaluation_thread(monkeypatch):
    """Each evaluation runs on the calling thread, under its errstate."""
    seen, evaluate = [], debias.evaluate_accuracy

    def recording(params, ds, ws):
        seen.append((threading.current_thread() is threading.main_thread(),
                     np.geterr()["over"]))
        return evaluate(params, ds, ws)

    monkeypatch.setattr(debias, "evaluate_accuracy", recording)
    with np.errstate(over="raise"):
        _run_pipeline("vanilla", "LW", epochs=2)
    assert seen == [(True, "raise")] * 2
