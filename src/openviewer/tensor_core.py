"""Dense float64 matrices with a minimal reverse-mode differentiation tape.

The network's modules and loss terms each enter the tape as one op through
`custom_op`: a plain numpy kernel computes the value and a hand-written
vector-Jacobian product (VJP) sends the gradient back to the op's inputs,
in the style of PyTorch's `autograd.Function` or JAX's `custom_vjp`. The
same kernel called on plain arrays records nothing, which gives the
tape-free inference path.

`central_difference_error` checks a hand-written VJP against central
differences of the loss, one array entry at a time.

Values are 2-D row-major float64 arrays, frozen after construction;
scalars are 1x1 matrices. A fresh graph is built on every forward pass,
gradients accumulate additively, and `backward` walks nodes in reverse
creation order (creation order is always a valid topological order).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable

import numpy as np

Matrix = np.ndarray

_NODE_COUNTER = itertools.count()


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class DomainError(ValueError):
    """A parameter or input is outside the operation's domain."""


class NumericError(ArithmeticError):
    """A computation produced or encountered non-finite values."""


def matrix(values) -> Matrix:
    """Validate and return a row-major float64 2-D array.

    Scalars and 1-D sequences are promoted to 1x1 / 1xN.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"expected at most 2 dimensions, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError("matrix contains non-finite entries")
    return np.ascontiguousarray(arr)


class DiffNode:
    """A matrix value plus its accumulated gradient on the reverse tape."""

    __slots__ = ("value", "grad", "_parents", "_backward", "_order")

    def __init__(self, value: Matrix, parents: tuple = ()):
        value = np.ascontiguousarray(value, dtype=np.float64)
        value.setflags(write=False)
        self.value = value
        self.grad = np.zeros(value.shape)
        self._parents = parents
        self._backward = None
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
    """a @ b on plain arrays; ShapeError if the inner dimensions differ."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"{op}: inner dims differ, {a.shape} @ {b.shape}")
    return a @ b


# ---------------------------------------------------------------------------
# finite differences


def central_difference_error(
    loss: Callable[[], float], array: Matrix, analytic: Matrix, eps: float = 1e-5
) -> float:
    """Largest |analytic - central| / max(1, |central|) over the entries of
    `analytic`, matched in row-major order with those of `array`; pass a
    prefix such as `grad.reshape(-1)[:6]` to check only the first entries.

    Entry j of `array` is set in place to x + eps, then x - eps, with a call
    of `loss()` (which reads `array`) after each, and x is put back bit for
    bit. A non-finite loss or analytic entry raises NumericError.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise DomainError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    worst = 0.0
    for j, grad in enumerate(np.ravel(analytic)):
        orig = array.flat[j]
        try:
            array.flat[j] = orig + eps
            f_plus = loss()
            array.flat[j] = orig - eps
            f_minus = loss()
        finally:
            array.flat[j] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus) and np.isfinite(grad)):
            raise NumericError(f"loss or gradient is non-finite at entry {j} of the check")
        central = (f_plus - f_minus) / (2.0 * eps)
        worst = max(worst, abs(grad - central) / max(1.0, abs(central)))
    return worst
