"""Dense float64 matrices with a minimal reverse-mode differentiation tape.

The network's modules and loss terms each enter the tape as one op through
`custom_op`: a plain numpy kernel computes the value and a hand-written
vector-Jacobian product (VJP) sends the gradient back to the op's inputs,
in the style of PyTorch's `autograd.Function` or JAX's `custom_vjp`. The
same kernel called on plain arrays records nothing, which gives the
tape-free inference path.

The fine-grained op set below (matrix products, elementwise arithmetic,
the elementwise and group shrinkage operators, softmax / log / norm
reductions, transpose, row gather, horizontal stack) is closed; it builds
test references and small graphs on top of the module ops.

Values are 2-D row-major float64 arrays, frozen after construction;
scalars are 1x1 matrices. A fresh graph is built on every forward pass,
gradients accumulate additively, and `backward` walks nodes in reverse
creation order (creation order is always a valid topological order).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence

import numpy as np

Matrix = np.ndarray

_NODE_COUNTER = itertools.count()


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class DomainError(ValueError):
    """A parameter or input is outside the operation's domain."""


class NumericError(ArithmeticError):
    """A computation produced or encountered non-finite values."""


def matrix(values, rows: int | None = None, cols: int | None = None) -> Matrix:
    """Validate and return a row-major float64 2-D array.

    Scalars and 1-D sequences are promoted to 1x1 / 1xN. If `rows`/`cols`
    are given the shape must match exactly.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"expected at most 2 dimensions, got shape {arr.shape}")
    if rows is not None and cols is not None and arr.shape != (rows, cols):
        raise ShapeError(f"expected shape ({rows}, {cols}), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError("matrix contains non-finite entries")
    return np.ascontiguousarray(arr)


class DiffNode:
    """A matrix value plus its accumulated gradient on the reverse tape."""

    __slots__ = ("value", "grad", "_parents", "_backward", "_order")

    def __init__(self, value: Matrix, parents: tuple = (), backward=None):
        value = np.ascontiguousarray(value, dtype=np.float64)
        value.setflags(write=False)
        self.value = value
        self.grad = np.zeros(value.shape)
        self._parents = parents
        self._backward = backward
        self._order = next(_NODE_COUNTER)

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 node, got {self.value.shape}")
        return float(self.value[0, 0])

    def __repr__(self):
        return f"DiffNode(shape={self.value.shape})"


def leaf(values) -> DiffNode:
    """Create a leaf node from values (copied, validated, frozen)."""
    return DiffNode(matrix(values).copy())


#: Constant inputs are ordinary leaves whose gradient is simply ignored.
constant = leaf


def backward(root: DiffNode) -> None:
    """Accumulate gradients of `root` (a 1x1 node) into every ancestor."""
    if root.value.shape != (1, 1):
        raise ShapeError(f"backward needs a scalar (1x1) root, got {root.value.shape}")
    reachable: dict[int, DiffNode] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in reachable:
            continue
        reachable[id(node)] = node
        stack.extend(node._parents)
    root.grad = root.grad + 1.0
    for node in sorted(reachable.values(), key=lambda n: n._order, reverse=True):
        if node._backward is not None:
            node._backward(node.grad)


def value_of(x):
    """The value of a node; anything else is returned unchanged."""
    return x.value if isinstance(x, DiffNode) else x


def custom_op(kernel: Callable, *inputs) -> DiffNode | Matrix:
    """Run `kernel` as one tape op with a hand-written VJP.

    `kernel(*values)` receives the inputs' values (a node's `value`; any
    other input, such as a plain array, a string or None, as given) and
    returns `(out, vjp)`. `vjp(g)` yields `(i, contribution)` pairs, and
    backward adds each to `inputs[i].grad` in the order yielded, so a VJP
    can repeat a fine-grained graph's accumulation order exactly. Inputs
    that are not nodes get nothing. With no node among the inputs nothing
    is recorded and the plain `out` is returned.
    """
    values, parents = [], []
    for x in inputs:
        if isinstance(x, DiffNode):
            parents.append(x)
            x = x.value
        values.append(x)
    out, vjp = kernel(*values)
    if not parents:
        return out
    node = DiffNode(out, parents=tuple(parents))

    def _bw(g):
        for i, contribution in vjp(g):
            target = inputs[i]
            if isinstance(target, DiffNode):
                target.grad += contribution

    node._backward = _bw
    return node


def check_same_shape(a: Matrix, b: Matrix, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def check_scalar(a: Matrix, name: str) -> float:
    """The entry of a 1x1 matrix; ShapeError for any other shape."""
    if a.shape != (1, 1):
        raise ShapeError(f"{name} must be 1x1, got {a.shape}")
    return float(a[0, 0])


def dot(a: Matrix, b: Matrix, op: str = "matmul") -> Matrix:
    """a @ b on plain arrays, with the shape check of `matmul`."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"{op}: inner dims differ, {a.shape} @ {b.shape}")
    return a @ b


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


def group_soft_threshold(a: DiffNode, rho: DiffNode, axis: str = "columns") -> DiffNode:
    """Group shrinkage: scale each column (or row) g by (||g|| - rho)/||g||
    when ||g|| > rho, otherwise zero the whole group.

    Backward uses the shrinkage Jacobian on active groups and the zero
    subgradient inside (and on) the dead zone.
    """
    r = check_scalar(rho.value, "group_soft_threshold rho")
    if r < 0.0:
        raise DomainError(f"group_soft_threshold threshold must be >= 0, got {r}")
    if axis not in ("columns", "rows"):
        raise DomainError(f"axis must be 'columns' or 'rows', got {axis!r}")
    ax = 0 if axis == "columns" else 1
    norms = np.sqrt(np.sum(a.value * a.value, axis=ax, keepdims=True))
    active = norms > r
    safe = np.where(active, norms, 1.0)
    factor = np.where(active, (norms - r) / safe, 0.0)
    out = DiffNode(a.value * factor, parents=(a, rho))

    def _bw(g):
        # per active group: da = f*g + (rho/n^3) <a, g> a ; drho = -<a, g>/n
        inner = np.sum(a.value * g, axis=ax, keepdims=True)
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
    if not (1e-7 <= eps <= 1e-3):
        raise DomainError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    anchors = [p.value.copy() for p in params]

    def evaluate(values):
        nodes = [leaf(v) for v in values]
        out = loss_fn(nodes)
        if not np.isfinite(out.value[0, 0]):
            raise NumericError("loss is non-finite during finite-difference check")
        return nodes, out

    nodes, out = evaluate(anchors)
    backward(out)
    analytic = [n.grad.copy() for n in nodes]

    worst = 0.0
    for k, base in enumerate(anchors):
        flat = base.ravel()
        for j in range(flat.size):
            orig = flat[j]
            plus = [v.copy() for v in anchors]
            plus[k].ravel()[j] = orig + eps
            minus = [v.copy() for v in anchors]
            minus[k].ravel()[j] = orig - eps
            f_plus = evaluate(plus)[1].value[0, 0]
            f_minus = evaluate(minus)[1].value[0, 0]
            central = (f_plus - f_minus) / (2.0 * eps)
            err = abs(analytic[k].ravel()[j] - central) / max(1.0, abs(central))
            worst = max(worst, err)
    return worst
