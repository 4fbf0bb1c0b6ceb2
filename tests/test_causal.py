import math

import numpy as np
import pytest

from debiaskit import autodiff as ad
from debiaskit.causal import (ClassifierTable, DiscreteJoint, PositivityError,
                              _cell_gradients, conditional_u_given_b, interventional,
                              interventional_ipw, lw_loss_exact, nill,
                              oracle_report, random_instance, verify_bound,
                              verify_lw_ws_equivalence)
from debiaskit.classifier import init_mlp

from conftest import _forward_graph, lw_loss_reference, softmax_xent


def _independent_joint(pu, pb):
    return DiscreteJoint(np.outer(pu, pb))


def test_conditional_independent_factors():
    pu = np.array([0.3, 0.7])
    pb = np.array([0.6, 0.25, 0.15])
    cond = conditional_u_given_b(_independent_joint(pu, pb))
    for b in range(3):
        np.testing.assert_allclose(cond[:, b], pu, atol=1e-15)


def test_conditional_2x2_arithmetic():
    j = DiscreteJoint(np.array([[0.45, 0.05], [0.05, 0.45]]))
    cond = conditional_u_given_b(j)
    assert abs(cond[0, 0] - 0.9) < 1e-15
    np.testing.assert_allclose(cond.sum(axis=0), 1.0, atol=1e-15)


def test_conditional_degenerate_bias_errors():
    j = DiscreteJoint(np.array([[0.5, 0.0], [0.5, 0.0]]))
    with pytest.raises(PositivityError):
        conditional_u_given_b(j)


def test_interventional_b_independent_classifier(rng):
    j, _ = random_instance(rng, 3, 4)
    q_uy = rng.dirichlet(np.ones(3), size=3)
    q = ClassifierTable(np.repeat(q_uy[:, None, :], 4, axis=1))
    np.testing.assert_allclose(interventional(j, q), q_uy, atol=1e-15)


def test_interventional_uniform_pb_averages_slices(rng):
    j = _independent_joint(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    q = ClassifierTable(rng.dirichlet(np.ones(2), size=(2, 2)))
    expect = 0.5 * (q.q[:, 0, :] + q.q[:, 1, :])
    np.testing.assert_allclose(interventional(j, q), expect, atol=1e-15)


def test_interventional_matches_ipw_brute_force(rng):
    for _ in range(20):
        j, q = random_instance(rng, 3, 3)
        a = interventional(j, q)
        b = interventional_ipw(j, q)
        assert np.abs(a - b).max() < 1e-12
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)


def test_backdoor_identity_100_random_instances(rng):
    for _ in range(100):
        j, q = random_instance(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        d = np.abs(interventional(j, q) - interventional_ipw(j, q)).max()
        assert d < 1e-12


def test_nill_perfect_classifier_is_zero(rng):
    j, _ = random_instance(rng, 4, 3)
    eye = np.zeros((4, 3, 4))
    for u in range(4):
        eye[u, :, u] = 1.0
    assert abs(nill(j, ClassifierTable(eye))) < 1e-12


def test_nill_uniform_classifier_binary():
    j, _ = random_instance(np.random.default_rng(0), 2, 3)
    q = ClassifierTable(np.full((2, 3, 2), 0.5))
    assert abs(nill(j, q) - math.log(2)) < 1e-15


def test_nill_matches_monte_carlo(rng):
    j, q = random_instance(rng, 3, 3)
    exact = nill(j, q)
    n = 1_000_000
    flat = j.p_ub.ravel()
    cells = rng.choice(len(flat), size=n, p=flat)
    u, b = np.divmod(cells, j.n_b)
    y = u  # label model is y = u deterministically
    p_do = interventional(j, q)
    samples = -np.log(p_do[u, y])
    mc = samples.mean()
    se = samples.std(ddof=1) / math.sqrt(n)
    assert abs(mc - exact) <= 3 * se


def test_lw_perfect_classifier_zero(rng):
    j, _ = random_instance(rng, 3, 3)
    eye = np.zeros((3, 3, 3))
    for u in range(3):
        eye[u, :, u] = 1.0
    assert lw_loss_exact(j, ClassifierTable(eye)) == 0.0


def test_lw_independent_factors_direct_enumeration(rng):
    pu = np.array([0.2, 0.5, 0.3])
    pb = np.array([0.4, 0.6])
    j = _independent_joint(pu, pb)
    q = ClassifierTable(rng.dirichlet(np.ones(3), size=(3, 2)))
    # direct: expectation of the cell cross-entropy under p(u) p(b)
    direct = 0.0
    for u in range(3):
        for b in range(2):
            direct += pu[u] * pb[b] * -math.log(q.q[u, b, u])
    assert abs(lw_loss_exact(j, q) - direct) < 1e-12


def test_lw_two_enumeration_orders_agree(rng):
    for _ in range(30):
        j, q = random_instance(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        assert abs(lw_loss_exact(j, q) - lw_loss_reference(j, q)) < 1e-12


def test_bound_holds_on_100_random_instances(rng):
    worst = np.inf
    for _ in range(100):
        j, q = random_instance(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        rep = verify_bound(j, q)
        assert rep["holds"]
        worst = min(worst, rep["gap"])
    assert worst >= -1e-9


def test_bound_equality_for_b_invariant_classifier(rng):
    for _ in range(50):
        j, q = random_instance(rng, int(rng.integers(2, 7)),
                               int(rng.integers(2, 7)), b_invariant=True)
        rep = verify_bound(j, q)
        assert abs(rep["gap"]) < 1e-9


def test_bound_strict_gap_for_b_dependent_classifier(rng):
    j, q = random_instance(rng, 4, 4)
    rep = verify_bound(j, q)
    assert rep["gap"] > 1e-6  # macroscopically positive


def test_bound_single_bias_value_gap_zero(rng):
    j = DiscreteJoint(np.array([[0.3], [0.7]]))
    q = ClassifierTable(rng.dirichlet(np.ones(2), size=(2, 1)))
    assert abs(verify_bound(j, q)["gap"]) < 1e-12


def test_enumeration_permutation_invariance(rng):
    j, q = random_instance(rng, 4, 3)
    pu_perm = rng.permutation(4)
    pb_perm = rng.permutation(3)
    j2 = DiscreteJoint(j.p_ub[np.ix_(pu_perm, pb_perm)],
                       j.p_y_given_ub[np.ix_(pu_perm, pb_perm, pu_perm)])
    q2 = ClassifierTable(q.q[np.ix_(pu_perm, pb_perm, pu_perm)])
    assert abs(nill(j, q) - nill(j2, q2)) < 1e-12
    assert abs(lw_loss_exact(j, q) - lw_loss_exact(j2, q2)) < 1e-12


def test_equivalence_independent_factors(rng):
    j = _independent_joint(np.array([0.4, 0.6]), np.array([0.7, 0.3]))
    params = init_mlp([3, 5, 2], seed=4)
    x_cells = rng.normal(size=(2, 2, 3))
    assert verify_lw_ws_equivalence(j, params, x_cells) < 1e-9


def test_equivalence_random_instances(rng):
    for k in range(10):
        j, _ = random_instance(rng, 2, 2)
        params = init_mlp([3, 4, 2], seed=k)
        x_cells = rng.normal(size=(2, 2, 3))
        assert verify_lw_ws_equivalence(j, params, x_cells) < 1e-9


def test_equivalence_single_cell(rng):
    j = DiscreteJoint(np.array([[1.0]]))
    params = init_mlp([2, 3, 1], seed=0)
    x_cells = rng.normal(size=(1, 1, 2))
    assert verify_lw_ws_equivalence(j, params, x_cells) < 1e-12


def test_positivity_violation_raises(rng):
    j = DiscreteJoint(np.array([[0.5, 0.5], [0.0, 0.0]]))
    q = ClassifierTable(np.full((2, 2, 2), 0.5))
    with pytest.raises(PositivityError):
        lw_loss_exact(j, q)


def test_joint_validation():
    with pytest.raises(ValueError):
        DiscreteJoint(np.array([[0.5, 0.6]]))  # does not sum to 1
    with pytest.raises(ValueError):
        DiscreteJoint(np.full((9, 2), 1 / 18))  # side too large
    with pytest.raises(ValueError):
        ClassifierTable(np.full((2, 2, 2), 0.3))  # slices do not sum to 1


def test_oracle_report_all_pass():
    rep = oracle_report(seed=3)
    assert rep["all_pass"]
    names = {c["name"] for c in rep["checks"]}
    assert names == {"interventional_bound", "bound_equality_b_invariant",
                     "backdoor_ipw_identity", "lw_ws_equivalence"}


def _tape_cell_gradients(j, params, x_cells):
    """Per cell, the tape's gradient of sum_y p(y|u,b) xent(y) on one row."""
    grads = np.zeros((j.n_u, j.n_b, params.flat.size))
    for u in range(j.n_u):
        for b in range(j.n_b):
            tape = ad.Tape()
            leaves = [tape.leaf(a) for a in params.arrays]
            logits = _forward_graph(tape, leaves, x_cells[u, b][None, :])
            loss = None
            for y in range(j.n_y):
                py = j.p_y_given_ub[u, b, y]
                if py == 0.0:
                    continue
                term = softmax_xent(logits, np.array([y])).sum() * py
                loss = term if loss is None else loss + term
            gs = tape.backward(loss, wrt=leaves)
            grads[u, b] = np.concatenate([g.ravel() for g in gs])
    return grads


def test_cell_gradients_match_the_tape(rng):
    """One label per cell (y = u) and several, some with p(y|u,b) = 0."""
    for k in range(20):
        n_u, n_b = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        j, _ = random_instance(rng, n_u, n_b)
        if k % 2:
            p_y = rng.dirichlet(np.ones(n_u), size=(n_u, n_b))
            p_y[rng.random(p_y.shape) < 0.3] = 0.0
            p_y[..., 0] += 1.0 - p_y.sum(axis=2)
            j = DiscreteJoint(j.p_ub, p_y)
        params = init_mlp([3, 6, n_u], seed=k)
        x_cells = rng.normal(size=(n_u, n_b, 3))
        got = _cell_gradients(j, params, x_cells)
        want = _tape_cell_gradients(j, params, x_cells)
        assert np.abs(got - want).max() < 1e-12
