"""The fine-grained tape ops: matrix products, elementwise arithmetic, the
elementwise and group shrinkage operators, softmax / log / norm reductions,
transpose, row gather and horizontal stack, one `DiffNode` per elementary
step, each with its own backward rule.

The package differentiates through `tensor_core.custom_op` only; these ops
build the bitwise references in `fine_reference.py` and the small graphs the
tests check the custom ops against. `finite_diff_check` audits a graph
built from nodes against central differences.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from openviewer import tensor_core as tc
from openviewer.tensor_core import DiffNode, DomainError, ShapeError, check_same_shape, check_scalar, dot


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: DiffNode, b: DiffNode) -> DiffNode:
    """Matrix product a @ b."""
    out = DiffNode(dot(a.value, b.value), parents=(a, b))

    def _bw(g):
        a.grad += g @ b.value.T
        b.grad += a.value.T @ g

    out._backward = _bw
    return out


def transpose(a: DiffNode) -> DiffNode:
    out = DiffNode(a.value.T, parents=(a,))
    out._backward = lambda g: a.grad.__iadd__(g.T)
    return out


def add(a: DiffNode, b: DiffNode) -> DiffNode:
    check_same_shape(a.value, b.value, "add")
    out = DiffNode(a.value + b.value, parents=(a, b))

    def _bw(g):
        a.grad += g
        b.grad += g

    out._backward = _bw
    return out


def sub(a: DiffNode, b: DiffNode) -> DiffNode:
    check_same_shape(a.value, b.value, "sub")
    out = DiffNode(a.value - b.value, parents=(a, b))

    def _bw(g):
        a.grad += g
        b.grad -= g

    out._backward = _bw
    return out


def scale(a: DiffNode, s: float) -> DiffNode:
    """Multiply by a plain (non-learnable) scalar."""
    s = float(s)
    out = DiffNode(a.value * s, parents=(a,))
    out._backward = lambda g: a.grad.__iadd__(g * s)
    return out


def add_scalar(a: DiffNode, c: float) -> DiffNode:
    """Add a plain scalar constant elementwise."""
    out = DiffNode(a.value + float(c), parents=(a,))
    out._backward = lambda g: a.grad.__iadd__(g)
    return out


def mul_elem(a: DiffNode, b: DiffNode) -> DiffNode:
    """Elementwise (Hadamard) product."""
    check_same_shape(a.value, b.value, "mul_elem")
    out = DiffNode(a.value * b.value, parents=(a, b))

    def _bw(g):
        a.grad += g * b.value
        b.grad += g * a.value

    out._backward = _bw
    return out


def mul_scalar_node(a: DiffNode, s: DiffNode) -> DiffNode:
    """Multiply a matrix by a differentiable 1x1 scalar node."""
    sval = check_scalar(s.value, "mul_scalar_node scalar")
    out = DiffNode(a.value * sval, parents=(a, s))

    def _bw(g):
        a.grad += g * sval
        s.grad += np.array([[np.sum(g * a.value)]])

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def relu(a: DiffNode) -> DiffNode:
    out = DiffNode(np.maximum(a.value, 0.0), parents=(a,))
    mask = a.value > 0.0
    out._backward = lambda g: a.grad.__iadd__(g * mask)
    return out


def clamp_min(a: DiffNode, floor: float) -> DiffNode:
    """max(a, floor) elementwise; subgradient 0 at and below the floor."""
    floor = float(floor)
    out = DiffNode(np.maximum(a.value, floor), parents=(a,))
    mask = a.value > floor
    out._backward = lambda g: a.grad.__iadd__(g * mask)
    return out


def sqrt(a: DiffNode) -> DiffNode:
    if np.any(a.value < 0.0):
        raise DomainError("sqrt requires non-negative entries")
    val = np.sqrt(a.value)
    out = DiffNode(val, parents=(a,))
    # subgradient 0 at exactly 0
    safe = np.where(val > 0.0, val, 1.0)
    mask = val > 0.0
    out._backward = lambda g: a.grad.__iadd__(g * mask / (2.0 * safe))
    return out


def reciprocal(a: DiffNode) -> DiffNode:
    if np.any(a.value == 0.0):
        raise DomainError("reciprocal of a zero entry")
    val = 1.0 / a.value
    out = DiffNode(val, parents=(a,))
    out._backward = lambda g: a.grad.__iadd__(-g * val * val)
    return out


def log(a: DiffNode) -> DiffNode:
    if np.any(a.value <= 0.0):
        raise DomainError("log requires strictly positive entries")
    out = DiffNode(np.log(a.value), parents=(a,))
    out._backward = lambda g: a.grad.__iadd__(g / a.value)
    return out


def soft_threshold(a: DiffNode, theta: DiffNode) -> DiffNode:
    """Elementwise shrinkage sign(a) * max(|a| - theta, 0).

    `theta` is a differentiable non-negative 1x1 node. The subgradient is 0
    on the dead zone boundary |a| == theta.
    """
    t = check_scalar(theta.value, "soft_threshold theta")
    if t < 0.0:
        raise DomainError(f"soft_threshold threshold must be >= 0, got {t}")
    absval = np.abs(a.value)
    out = DiffNode(np.sign(a.value) * np.maximum(absval - t, 0.0), parents=(a, theta))
    mask = absval > t

    def _bw(g):
        a.grad += g * mask
        theta.grad += np.array([[-np.sum(np.sign(a.value) * mask * g)]])

    out._backward = _bw
    return out


def group_soft_threshold(a: DiffNode, rho: DiffNode) -> DiffNode:
    """Group shrinkage: scale each column g by (||g|| - rho)/||g||
    when ||g|| > rho, otherwise zero the whole column.

    Backward uses the shrinkage Jacobian on active groups and the zero
    subgradient inside (and on) the dead zone.
    """
    r = check_scalar(rho.value, "group_soft_threshold rho")
    if r < 0.0:
        raise DomainError(f"group_soft_threshold threshold must be >= 0, got {r}")
    norms = np.sqrt(np.sum(a.value * a.value, axis=0, keepdims=True))
    active = norms > r
    safe = np.where(active, norms, 1.0)
    factor = np.where(active, (norms - r) / safe, 0.0)
    out = DiffNode(a.value * factor, parents=(a, rho))

    def _bw(g):
        # per active group: da = f*g + (rho/n^3) <a, g> a ; drho = -<a, g>/n
        inner = np.sum(a.value * g, axis=0, keepdims=True)
        a.grad += np.where(active, factor * g + (r / safe**3) * inner * a.value, 0.0)
        rho.grad += np.array([[-np.sum(np.where(active, inner / safe, 0.0))]])

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# reductions and softmax


def row_softmax(a: DiffNode) -> DiffNode:
    """Row-wise softmax, computed with max subtraction for stability."""
    shifted = a.value - np.max(a.value, axis=1, keepdims=True)
    expv = np.exp(shifted)
    p = expv / np.sum(expv, axis=1, keepdims=True)
    out = DiffNode(p, parents=(a,))

    def _bw(g):
        inner = np.sum(g * p, axis=1, keepdims=True)
        a.grad += p * (g - inner)

    out._backward = _bw
    return out


def row_log_softmax(a: DiffNode) -> DiffNode:
    """Fused log of the row softmax; immune to exp underflow.

    Equals log(row_softmax(a)) whenever the latter stays in the float
    range, but remains finite for arbitrarily wide logit spreads.
    """
    shifted = a.value - np.max(a.value, axis=1, keepdims=True)
    expv = np.exp(shifted)
    denom = np.sum(expv, axis=1, keepdims=True)
    p = expv / denom
    out = DiffNode(shifted - np.log(denom), parents=(a,))

    def _bw(g):
        a.grad += g - p * np.sum(g, axis=1, keepdims=True)

    out._backward = _bw
    return out


def sum(a: DiffNode) -> DiffNode:  # noqa: A001 - deliberate, mirrors the op name
    out = DiffNode(np.array([[np.sum(a.value)]]), parents=(a,))
    out._backward = lambda g: a.grad.__iadd__(np.full_like(a.value, g[0, 0]))
    return out


def frobenius_sq(a: DiffNode) -> DiffNode:
    out = DiffNode(np.array([[np.sum(a.value * a.value)]]), parents=(a,))
    out._backward = lambda g: a.grad.__iadd__(2.0 * g[0, 0] * a.value)
    return out


def row_l2_norms(a: DiffNode) -> DiffNode:
    """Column vector of row Euclidean norms; subgradient 0 for zero rows."""
    norms = np.sqrt(np.sum(a.value * a.value, axis=1, keepdims=True))
    out = DiffNode(norms, parents=(a,))
    mask = norms > 0.0
    safe = np.where(mask, norms, 1.0)
    out._backward = lambda g: a.grad.__iadd__(np.where(mask, g / safe, 0.0) * a.value)
    return out


# ---------------------------------------------------------------------------
# index plumbing


def take_rows(a: DiffNode, idx) -> DiffNode:
    """Gather rows by index; backward scatters (duplicates accumulate)."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("take_rows expects a 1-D index sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[0]):
        raise ShapeError(f"row index out of range for {a.value.shape[0]} rows")
    out = DiffNode(a.value[idx], parents=(a,))

    def _bw(g):
        np.add.at(a.grad, idx, g)

    out._backward = _bw
    return out


def hstack(nodes: Sequence[DiffNode]) -> DiffNode:
    """Concatenate nodes horizontally; all must share the row count."""
    if not nodes:
        raise ShapeError("hstack of an empty sequence")
    rows = nodes[0].value.shape[0]
    for n in nodes:
        if n.value.shape[0] != rows:
            raise ShapeError("hstack: row counts differ")
    widths = [n.value.shape[1] for n in nodes]
    out = DiffNode(np.hstack([n.value for n in nodes]), parents=tuple(nodes))

    def _bw(g):
        start = 0
        for n, w in zip(nodes, widths):
            n.grad += g[:, start : start + w]
            start += w

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# finite differences


def finite_diff_check(
    loss_fn: Callable[[Sequence[DiffNode]], DiffNode],
    params: Sequence[DiffNode],
    eps: float = 1e-5,
) -> float:
    """Compare reverse-mode gradients of `loss_fn` against central differences.

    `loss_fn` must be deterministic and build a fresh graph from the nodes it
    is handed, returning a 1x1 node. Returns the maximum over all parameter
    entries of |analytic - central| / max(1, |central|).
    """
    anchors = [p.value.copy() for p in params]
    nodes = [tc.leaf(v) for v in anchors]
    tc.backward(loss_fn(nodes))

    def loss():
        return loss_fn([tc.leaf(v) for v in anchors]).item()

    return max(tc.central_difference_error(loss, a, n.grad, eps) for a, n in zip(anchors, nodes))
