"""Exact enumeration oracles over small discrete (u, b, y) models.

Everything here works on fully enumerable probability tables, so the
adjustment identities, the interventional-likelihood bound, and the
weighting/resampling equivalence can be checked to float precision
instead of statistically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import MlpParams, mlp_backward, mlp_loss_forward

MAX_SIDE = 8
_ATOL = 1e-12


class PositivityError(ValueError):
    pass


def _check_table(name: str, t: np.ndarray):
    if not np.all(np.isfinite(t)):
        raise ValueError(f"{name} has non-finite entries")
    if np.any(t < 0):
        raise ValueError(f"{name} has negative entries")


@dataclass
class DiscreteJoint:
    """p(u, b) plus the data's label conditional p(y | u, b).

    The default label model is y = u deterministically.
    """

    p_ub: np.ndarray                      # (U, B)
    p_y_given_ub: np.ndarray | None = None  # (U, B, Y)

    def __post_init__(self):
        self.p_ub = np.asarray(self.p_ub, dtype=np.float64)
        if self.p_ub.ndim != 2:
            raise ValueError("p_ub must be a 2-D table")
        if max(self.p_ub.shape) > MAX_SIDE:
            raise ValueError(f"table sides capped at {MAX_SIDE}")
        _check_table("p_ub", self.p_ub)
        if abs(self.p_ub.sum() - 1.0) > _ATOL:
            raise ValueError("p_ub must sum to 1")
        u, b = self.p_ub.shape
        if self.p_y_given_ub is None:
            eye = np.zeros((u, b, u))
            for i in range(u):
                eye[i, :, i] = 1.0
            self.p_y_given_ub = eye
        else:
            self.p_y_given_ub = np.asarray(self.p_y_given_ub, dtype=np.float64)
            if self.p_y_given_ub.shape[:2] != (u, b):
                raise ValueError("p_y_given_ub shape mismatch")
            if self.p_y_given_ub.shape[2] > MAX_SIDE:
                raise ValueError(f"table sides capped at {MAX_SIDE}")
            _check_table("p_y_given_ub", self.p_y_given_ub)
            if np.any(np.abs(self.p_y_given_ub.sum(axis=2) - 1.0) > _ATOL):
                raise ValueError("each p(y|u,b) slice must sum to 1")

    @property
    def n_u(self) -> int:
        return self.p_ub.shape[0]

    @property
    def n_b(self) -> int:
        return self.p_ub.shape[1]

    @property
    def n_y(self) -> int:
        return self.p_y_given_ub.shape[2]

    def p_b(self) -> np.ndarray:
        return self.p_ub.sum(axis=0)

    def p_u(self) -> np.ndarray:
        return self.p_ub.sum(axis=1)


@dataclass
class ClassifierTable:
    """q(y | u, b) evaluated on every cell.

    Entries may be exactly zero off the data support (perfect classifier);
    every log evaluation guards against zeros on the support.
    """

    q: np.ndarray  # (U, B, Y)

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        _check_table("q", self.q)
        if np.any(self.q > 1):
            raise ValueError("q entries must lie in [0, 1]")
        if np.any(np.abs(self.q.sum(axis=2) - 1.0) > 1e-9):
            raise ValueError("each q(.|u,b) slice must sum to 1")


def conditional_u_given_b(j: DiscreteJoint) -> np.ndarray:
    """p(u|b) = p(u,b)/p(b); column b sums to 1."""
    pb = j.p_b()
    if np.any(pb <= 0):
        raise PositivityError("some bias value has zero probability")
    return j.p_ub / pb


def interventional(j: DiscreteJoint, q: ClassifierTable) -> np.ndarray:
    """Adjustment formula p(y|do(u)) = sum_b p(b) q(y|u,b); rows sum to 1."""
    pb = j.p_b()
    return np.einsum("b,uby->uy", pb, q.q)


def interventional_ipw(j: DiscreteJoint, q: ClassifierTable) -> np.ndarray:
    """Same quantity via the inverse-propensity sum sum_b p(u,b) q(y|u,b) / p(u|b).

    Kept as explicit loops so it shares no code path with `interventional`.
    """
    p_u_given_b = conditional_u_given_b(j)
    if np.any(p_u_given_b <= 0):
        raise PositivityError("p(u|b) has a zero cell")
    out = np.zeros((j.n_u, j.n_y))
    for u in range(j.n_u):
        for b in range(j.n_b):
            scale = j.p_ub[u, b] / p_u_given_b[u, b]
            for y in range(j.n_y):
                out[u, y] += scale * q.q[u, b, y]
    return out


def nill(j: DiscreteJoint, q: ClassifierTable) -> float:
    """Expected negative interventional log-likelihood under the data joint:
    sum_{u,b,y} p(u,b) p(y|u,b) (-log p(y|do(u)))."""
    p_do = interventional(j, q)
    support = np.einsum("ub,uby->uy", j.p_ub, j.p_y_given_ub)
    if np.any((support > 0) & (p_do <= 0)):
        raise PositivityError("zero interventional probability on the data support")
    safe = np.where(p_do > 0, p_do, 1.0)
    return float(-(support * np.log(safe)).sum())


def lw_loss_exact(j: DiscreteJoint, q: ClassifierTable) -> float:
    """Exact value of the inverse-propensity-weighted cross-entropy.

    Enumerated with the stabilized weight p(u)/p(u|b) (equivalently: the
    expectation of the cell cross-entropy under the decoupled product
    p(u) p(b)), which keeps the interventional bound tight.
    """
    p_u_given_b = conditional_u_given_b(j)
    if np.any(p_u_given_b <= 0):
        raise PositivityError("p(u|b) has a zero cell")
    support = j.p_y_given_ub > 0
    if np.any(support & (q.q <= 0)):
        raise PositivityError("classifier assigns zero probability on the data support")
    logq = np.where(support, np.log(np.where(support, q.q, 1.0)), 0.0)
    cell_xent = -(j.p_y_given_ub * logq).sum(axis=2)  # (U, B)
    return float(np.einsum("u,b,ub->", j.p_u(), j.p_b(), cell_xent))


def verify_bound(j: DiscreteJoint, q: ClassifierTable) -> dict:
    """Report whether the weighted loss upper-bounds the interventional one."""
    l_nill = nill(j, q)
    l_lw = lw_loss_exact(j, q)
    gap = l_lw - l_nill
    return {"L_NILL": l_nill, "L_LW": l_lw, "gap": gap,
            "holds": bool(l_nill <= l_lw + 1e-9)}


def _cell_gradients(j: DiscreteJoint, params: MlpParams,
                    x_cells: np.ndarray) -> np.ndarray:
    """Expected parameter gradient of the cross-entropy per (u, b) cell,
    flattened; the y-expectation uses the joint's label conditional.

    Each cell is one batch of k rows, one per label y with p(y|u,b) > 0,
    weighted k p(y|u,b), so the batch mean is sum_y p(y|u,b) xent(y).
    """
    grads = np.zeros((j.n_u, j.n_b, params.flat.size))
    out = MlpParams(params.layer_sizes, flat=np.empty_like(params.flat))
    for u in range(j.n_u):
        for b in range(j.n_b):
            ys = np.flatnonzero(j.p_y_given_ub[u, b])
            x = np.repeat(x_cells[u, b][None, :], len(ys), axis=0)
            fwd = mlp_loss_forward(params, x, ys)
            mlp_backward(fwd, len(ys) * j.p_y_given_ub[u, b, ys], out=out)
            grads[u, b] = out.flat
    return grads


def verify_lw_ws_equivalence(j: DiscreteJoint, params: MlpParams,
                             x_cells: np.ndarray) -> float:
    """Discrepancy between the exact expected gradients of loss weighting
    and of resampling, computed through two independent routes.

    Loss-weighting route: accumulate p(u,b) * (1/p(u|b)) * grad and divide
    by the total weight. Resampling route: build the resampled distribution
    (proportional to p(b), never touching the weights) and take its
    expectation directly.
    """
    x_cells = np.asarray(x_cells, dtype=np.float64)
    if x_cells.shape[:2] != (j.n_u, j.n_b):
        raise ValueError("need one feature vector per (u,b) cell")
    p_u_given_b = conditional_u_given_b(j)
    if np.any(p_u_given_b <= 0):
        raise PositivityError("p(u|b) has a zero cell")
    grads = _cell_gradients(j, params, x_cells)

    w = 1.0 / p_u_given_b
    mass = j.p_ub * w
    g_lw = np.einsum("ub,ubp->p", mass, grads) / mass.sum()

    r = np.broadcast_to(j.p_b(), (j.n_u, j.n_b)).astype(np.float64)
    r = r / r.sum()
    g_ws = np.zeros(grads.shape[2])
    for u in range(j.n_u):
        for b in range(j.n_b):
            g_ws += r[u, b] * grads[u, b]

    return float(np.linalg.norm(g_lw - g_ws))


def random_instance(rng: np.random.Generator, n_u: int, n_b: int,
                    b_invariant: bool = False):
    """Random joint (y = u deterministic) and classifier table for checks."""
    p_ub = rng.gamma(1.0, size=(n_u, n_b))
    p_ub /= p_ub.sum()
    j = DiscreteJoint(p_ub)
    if b_invariant:
        q_uy = rng.gamma(1.0, size=(n_u, n_u)) + 0.05
        q_uy /= q_uy.sum(axis=1, keepdims=True)
        q = np.repeat(q_uy[:, None, :], n_b, axis=1)
    else:
        q = rng.gamma(1.0, size=(n_u, n_b, n_u)) + 0.05
        q /= q.sum(axis=2, keepdims=True)
    return j, ClassifierTable(q)


def oracle_report(seed: int = 0) -> dict:
    """Machine-readable summary of every enumeration check."""
    n_bound, n_backdoor, n_equiv = 100, 100, 50
    rng = np.random.default_rng(seed)
    checks = []

    worst = np.inf
    for _ in range(n_bound):
        j, q = random_instance(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        rep = verify_bound(j, q)
        worst = min(worst, rep["gap"])
    checks.append({"name": "interventional_bound", "instances": n_bound,
                   "min_gap": worst, "holds": bool(worst >= -1e-9)})

    worst_eq = 0.0
    for _ in range(n_bound):
        j, q = random_instance(rng, int(rng.integers(2, 9)),
                               int(rng.integers(2, 9)), b_invariant=True)
        worst_eq = max(worst_eq, abs(verify_bound(j, q)["gap"]))
    checks.append({"name": "bound_equality_b_invariant", "instances": n_bound,
                   "max_abs_gap": worst_eq, "holds": bool(worst_eq < 1e-9)})

    worst_id = 0.0
    for _ in range(n_backdoor):
        j, q = random_instance(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
        d = np.abs(interventional(j, q) - interventional_ipw(j, q)).max()
        worst_id = max(worst_id, d)
    checks.append({"name": "backdoor_ipw_identity", "instances": n_backdoor,
                   "max_abs_diff": worst_id, "holds": bool(worst_id < 1e-12)})

    from .classifier import init_mlp
    worst_g = 0.0
    for k in range(n_equiv):
        n_u, n_b = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        j, _ = random_instance(rng, n_u, n_b)
        dim = 3
        x_cells = rng.normal(size=(n_u, n_b, dim))
        params = init_mlp([dim, 6, n_u], seed=int(rng.integers(0, 2 ** 31)))
        worst_g = max(worst_g, verify_lw_ws_equivalence(j, params, x_cells))
    checks.append({"name": "lw_ws_equivalence", "instances": n_equiv,
                   "max_grad_discrepancy": worst_g, "holds": bool(worst_g < 1e-9)})

    return {"seed": seed, "checks": checks,
            "all_pass": all(c["holds"] for c in checks)}
