"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tape`` records one forward pass as a topologically ordered list of
nodes; ``Tape.backward`` replays it in reverse and accumulates adjoints.
Tapes are throwaway values: build a graph, differentiate it, discard it.
Backward closures capture arrays, never nodes, so a dropped tape is freed
by reference counting without waiting for the cycle collector. Nothing is
shared between tapes, so independent tapes may live on different threads.

This module is the test oracle only: no production module imports it.
Every model trains through a closed-form step (``classifier.mlp_backward``,
``vcae.vcae_loss_and_grads``) that the tests check against tapes built from
it, bit for bit.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# the closed-form steps raise it too; one class for both routes
from .classifier import GradientError


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Node:
    """Handle to one tape entry. Supports numpy-style arithmetic."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> np.ndarray:
        return self.tape.values[self.idx]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def _lift(self, other) -> "Node":
        if isinstance(other, Node):
            return other
        return self.tape.const(other)

    def __add__(self, other):
        return _binary("add", self, self._lift(other),
                       lambda a, b: a + b,
                       lambda g, a, b: (g, g))

    __radd__ = __add__

    def __sub__(self, other):
        return _binary("sub", self, self._lift(other),
                       lambda a, b: a - b,
                       lambda g, a, b: (g, -g))

    def __rsub__(self, other):
        return self._lift(other).__sub__(self)

    def __mul__(self, other):
        return _binary("mul", self, self._lift(other),
                       lambda a, b: a * b,
                       lambda g, a, b: (g * b, g * a))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary("div", self, self._lift(other),
                       lambda a, b: a / b,
                       lambda g, a, b: (g / b, -g * a / (b * b)))

    def __rtruediv__(self, other):
        return self._lift(other).__truediv__(self)

    def __neg__(self):
        return _unary("neg", self, lambda a: -a, lambda g, a, v: -g)

    def __pow__(self, exponent: float):
        p = float(exponent)
        return _unary("pow", self,
                      lambda a: a ** p,
                      lambda g, a, v: g * p * a ** (p - 1.0))

    def __matmul__(self, other):
        other = self._lift(other)
        a, b = self.value, other.value
        val = a @ b

        def bw(g):
            return g @ b.T, a.T @ g

        return self.tape._op("matmul", (self, other), val, bw)

    def sum(self, axis: int | None = None, keepdims: bool = False):
        return vsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis: int | None = None):
        n = self.value.size if axis is None else self.value.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    def reshape(self, shape):
        return reshape(self, shape)

    def item(self) -> float:
        return float(self.value)


def _binary(op, a: Node, b: Node, fwd, bwd) -> Node:
    av, bv = a.value, b.value
    val = fwd(av, bv)

    def backward(g):
        ga, gb = bwd(g, av, bv)
        return _unbroadcast(ga, av.shape), _unbroadcast(gb, bv.shape)

    return a.tape._op(op, (a, b), val, backward)


def _unary(op, a: Node, fwd, bwd) -> Node:
    av = a.value
    val = fwd(av)

    def backward(g):
        return (bwd(g, av, val),)

    return a.tape._op(op, (a,), val, backward)


class Tape:
    """One forward pass. Nodes are appended in topological order."""

    def __init__(self):
        self.values: list[np.ndarray] = []
        self.parents: list[tuple[int, ...]] = []
        self.backfns: list[Callable | None] = []

    def __len__(self) -> int:
        return len(self.values)

    def _op(self, op: str, parents: tuple[Node, ...], value, backward) -> Node:
        idx = len(self.values)
        self.values.append(_as_f64(value))
        self.parents.append(tuple(p.idx for p in parents))
        self.backfns.append(backward)
        return Node(self, idx)

    def leaf(self, value) -> Node:
        """Differentiable input (parameter)."""
        return self._op("leaf", (), value, None)

    def const(self, value) -> Node:
        """Non-parameter input; still receives an adjoint, never updated."""
        return self._op("const", (), value, None)

    def backward(self, output: Node, wrt: Sequence[Node] | None = None):
        """Accumulate adjoints of a scalar ``output`` through the tape.

        Returns the full adjoint list, or the adjoints of ``wrt`` when
        given. Forward values are left untouched.
        """
        if output.value.ndim != 0 and output.value.size != 1:
            raise ValueError(f"backward needs a scalar output, got shape {output.value.shape}")
        adjoints: list[np.ndarray | None] = [None] * len(self.values)
        adjoints[output.idx] = np.ones_like(self.values[output.idx])
        for idx in range(output.idx, -1, -1):
            g = adjoints[idx]
            if g is None:
                continue
            if not np.all(np.isfinite(g)):
                raise GradientError(f"non-finite adjoint at node {idx} ({len(self.values)} nodes)")
            if self.backfns[idx] is None:
                continue
            parent_grads = self.backfns[idx](g)
            for pidx, pg in zip(self.parents[idx], parent_grads):
                if adjoints[pidx] is None:
                    adjoints[pidx] = np.array(pg, dtype=np.float64, copy=True)
                else:
                    adjoints[pidx] = adjoints[pidx] + pg
        if wrt is None:
            return adjoints
        out = []
        for node in wrt:
            g = adjoints[node.idx]
            out.append(np.zeros_like(node.value) if g is None else g)
        return out


def relu(a: Node) -> Node:
    return _unary("relu", a,
                  lambda x: np.maximum(x, 0.0),
                  lambda g, x, v: g * (x > 0.0))


def exp(a: Node) -> Node:
    return _unary("exp", a, np.exp, lambda g, x, v: g * v)


def clamp_min(a: Node, lo: float) -> Node:
    return _unary("clamp_min", a,
                  lambda x: np.maximum(x, lo),
                  lambda g, x, v: g * (x >= lo))


def clamp_max(a: Node, hi: float) -> Node:
    return _unary("clamp_max", a,
                  lambda x: np.minimum(x, hi),
                  lambda g, x, v: g * (x <= hi))


def vsum(a: Node, axis: int | None = None, keepdims: bool = False) -> Node:
    shape = a.value.shape
    val = a.value.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)

    return a.tape._op("sum", (a,), val, bw)


def reshape(a: Node, shape) -> Node:
    old = a.value.shape
    return _unary("reshape", a,
                  lambda x: x.reshape(shape),
                  lambda g, x, v: g.reshape(old))


def log_softmax(a: Node) -> Node:
    """Row-wise log-softmax over the last axis, max-subtracted for stability."""
    x = a.value
    m = x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(x - m).sum(axis=-1, keepdims=True)) + m
    val = x - lse

    def bw(g):
        p = np.exp(val)
        return (g - p * g.sum(axis=-1, keepdims=True),)

    return a.tape._op("log_softmax", (a,), val, bw)


def take_per_row(a: Node, idx: np.ndarray) -> Node:
    """Pick ``a[i, idx[i]]`` for each row of a 2-D node."""
    idx = np.asarray(idx, dtype=np.int64)
    av = a.value
    rows_ix = np.arange(av.shape[0])
    val = av[rows_ix, idx]

    def bw(g):
        out = np.zeros_like(av)
        out[rows_ix, idx] = g
        return (out,)

    return a.tape._op("take_per_row", (a,), val, bw)


def rows(a: Node, idx: np.ndarray) -> Node:
    """Select rows ``a[idx]`` (duplicates allowed; grads accumulate)."""
    idx = np.asarray(idx, dtype=np.int64)
    av = a.value
    val = av[idx]

    def bw(g):
        out = np.zeros_like(av)
        np.add.at(out, idx, g)
        return (out,)

    return a.tape._op("rows", (a,), val, bw)


def slice_cols(a: Node, start: int, stop: int) -> Node:
    av = a.value
    val = av[:, start:stop]

    def bw(g):
        out = np.zeros_like(av)
        out[:, start:stop] = g
        return (out,)

    return a.tape._op("slice_cols", (a,), val, bw)
