"""Layer-unrolled multi-view sparse-coding network.

Each layer applies, per view: a redundancy-filtering shrinkage update of
the code Z (RF), a dictionary refresh (CD), and a group-sparse noise
update (DN). The views are fused once, after the last layer, with
weights derived from inter-class centroid separation (CW fusion). With
the analytic parameter choices R = I - D D^T / L, U = I / L,
M = (Z^T Z + beta I)^{-1}, theta = alpha / L, rho = gamma / L a layer
reproduces one iteration of the non-learned alternating solver; during
training all of R, U, M, theta, rho, and the initial dictionaries are
free parameters.

A network stores and runs only what reaches the fused code: layer 0
starts from Z = 0, so it has no R, and the last layer runs RF only, as
nothing reads a D or E it would refresh. `param_shapes` is the one
statement of which layer stores which parameter.

Ablation modes: "no_cd_dn" freezes the dictionaries and drops the noise
path entirely, so it stores no M or rho; "no_dn" keeps the dictionary
refresh but clamps the noise estimate to zero, so it stores no rho.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor_core as tc
from .admm_oracle import AdmmConfig, power_iteration_norm

logger = logging.getLogger(__name__)

ABLATIONS = ("full", "no_cd_dn", "no_dn")

# stand-in for the unknown Z^T Z when building M at initialization
INIT_RIDGE = 1e-8

MIN_CENTROID_DISTANCE = 1e-8


class FusionError(ValueError):
    """Fusion weights cannot be computed from the given labels."""


class StateError(RuntimeError):
    """The network is missing state required for the requested mode."""


@functools.cache
def param_key(kind: str, *index: int) -> str:
    """Parameter name `kind/layer/view` (`d_init/view` for dictionaries)."""
    return "/".join((kind, *map(str, index)))


def param_shapes(view_dims, num_classes: int, num_layers: int, ablation: str = "full"):
    """Name and shape of every stored parameter, in bind order: `d_init/*`,
    then per layer and view its r, u, theta, m, rho. Thresholds are (1, 1);
    an ablation stores no kind it never reads."""
    c = num_classes
    shapes = {param_key("d_init", v): (c, dim) for v, dim in enumerate(view_dims)}
    for l in range(num_layers):
        last = l == num_layers - 1
        for v in range(len(view_dims)):
            if l > 0:
                shapes[param_key("r", l, v)] = (c, c)
            shapes[param_key("u", l, v)] = (c, c)
            shapes[param_key("theta", l, v)] = (1, 1)
            if not last and ablation != "no_cd_dn":
                shapes[param_key("m", l, v)] = (c, c)
            if not last and ablation == "full":
                shapes[param_key("rho", l, v)] = (1, 1)
    return shapes


def _checked(name: str, value, shape: tuple) -> np.ndarray:
    """`value` as a finite C-contiguous float64 array of `shape`; a
    ValueError names `name`."""
    try:
        a = np.ascontiguousarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not a numeric array: {exc}") from exc
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


@dataclass
class UnfoldParams:
    """Learnable parameters, one float64 array per `param_shapes` name,
    plus the frozen fusion weights. Construction checks the arrays against
    the layout and keeps them in bind order; updates write in place."""

    view_dims: list[int]
    num_classes: int
    num_layers: int
    arrays: dict[str, np.ndarray]
    fusion_weights_snapshot: np.ndarray | None = None
    ablation: str = "full"

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        # every layer stores a U per view: a layer count the arrays cannot
        # hold fails here, before its layout is spelt out
        if self.num_layers * self.n_views > len(self.arrays):
            raise ValueError(
                f"{len(self.arrays)} parameter arrays cannot hold {self.num_layers} layers "
                f"of {self.n_views} views"
            )
        shapes = param_shapes(self.view_dims, self.num_classes, self.num_layers, self.ablation)
        missing = [n for n in shapes if n not in self.arrays]
        surplus = [n for n in self.arrays if n not in shapes]
        if missing or surplus:
            raise ValueError(
                f"parameter arrays do not match the layout: missing {missing}, surplus {surplus}"
            )
        self.arrays = {n: _checked(n, self.arrays[n], shape) for n, shape in shapes.items()}
        if self.fusion_weights_snapshot is not None:
            self.fusion_weights_snapshot = _checked(
                "fusion_weights_snapshot", self.fusion_weights_snapshot, (self.n_views,)
            )

    @property
    def n_views(self) -> int:
        return len(self.view_dims)


@dataclass
class LayerState:
    """The per-view code z, dictionary d and noise e after one layer."""

    z: list[np.ndarray]
    d: list[np.ndarray]
    e: list[np.ndarray]


@dataclass
class ForwardResult:
    """`z_fused` is a tape node, or a plain array in inference mode."""

    z_fused: tc.DiffNode | np.ndarray
    param_nodes: dict[str, tc.DiffNode]
    trace: list[LayerState] = field(default_factory=list)
    weights: np.ndarray | None = None


def init_params(
    view_dims,
    num_classes: int,
    admm_config: AdmmConfig | None = None,
    seed: int = 0,
    num_layers: int = 1,
    ablation: str = "full",
    expected_rows: int | None = None,
) -> UnfoldParams:
    """Closed-form initialization from Gaussian row-normalized dictionaries.

    The dictionary refresh matrix M approximates (Z^T Z + beta I)^{-1} with
    Z unknown, so its ridge stand-in for Z^T Z matters: pass the expected
    batch row count via `expected_rows` to keep multi-layer forwards
    well-scaled (Z^T Z grows linearly with the row count); without the hint
    a tiny ridge is used, which is only safe for a 1-layer network (no M).
    """
    cfg = admm_config or AdmmConfig()
    view_dims = [int(d) for d in view_dims]
    c = int(num_classes)
    ridge = INIT_RIDGE if expected_rows is None else float(expected_rows)
    rng = np.random.default_rng(seed)

    d_init = []
    for dim in view_dims:
        dv = rng.normal(size=(c, dim))
        dv /= np.linalg.norm(dv, axis=1, keepdims=True)
        d_init.append(dv)

    eye = np.eye(c)
    l_p = [power_iteration_norm(dv @ dv.T) for dv in d_init]
    make = {
        "d_init": lambda dv, lp: dv,
        "r": lambda dv, lp: eye - (dv @ dv.T) / lp,
        "u": lambda dv, lp: eye / lp,
        "theta": lambda dv, lp: np.array([[cfg.alpha / lp]]),
        "m": lambda dv, lp: eye / (cfg.beta + ridge),
        "rho": lambda dv, lp: np.array([[cfg.gamma / lp]]),
    }
    arrays = {}
    for name in param_shapes(view_dims, c, num_layers, ablation):
        kind, *_, v = name.split("/")
        arrays[name] = make[kind](d_init[int(v)], l_p[int(v)])
    return UnfoldParams(view_dims=view_dims, num_classes=c, num_layers=num_layers,
                        arrays=arrays, ablation=ablation)


# ---------------------------------------------------------------------------
# the four modules
#
# Each module is one tape op (`tc.custom_op`): a numpy kernel plus a
# hand-written VJP. The VJPs repeat the float operations, operand layouts
# and accumulation order of the equivalent fine-grained graph (`sub`,
# `transpose`, `matmul`, ... in `tests/fine_ops.py`), so gradients match it
# bitwise. Plain arrays in give a plain array out, with nothing recorded.


def _residual(x, e_prev, op: str):
    """X - E, or X itself when `e_prev` is None (E = 0)."""
    if e_prev is None:
        return x
    tc.check_same_shape(x, e_prev, op)
    return x - e_prev


def _threshold(value, name: str) -> float:
    """A threshold as a float: NumericError if it is not finite (a NaN or
    infinite one would zero the codes or noise silently), DomainError if
    it is negative."""
    t = tc.check_scalar(value, name)
    if not math.isfinite(t):
        raise tc.NumericError(f"{name} is not finite: {t}")
    if t < 0.0:
        raise tc.DomainError(f"{name} must be >= 0, got {t}")
    return t


def rf_forward(z_prev, x, e_prev, d_prev, r, u, theta):
    """Code update: S_theta(Z R + (X - E) D^T U). `z_prev=None` and
    `e_prev=None` mean zero; a zero code skips Z R (`r` may be None)."""
    return tc.custom_op(_rf_kernel, z_prev, x, e_prev, d_prev, r, u, theta)


def _rf_kernel(z_prev, x, e_prev, d, r, u, theta):
    t = _threshold(theta, "rf_forward theta")
    resid = _residual(x, e_prev, "rf_forward")
    d_t = np.ascontiguousarray(d.T)
    p1 = tc.dot(resid, d_t, "rf_forward")
    pre = tc.dot(p1, u, "rf_forward")
    if z_prev is not None:
        zr = tc.dot(z_prev, r, "rf_forward")
        tc.check_same_shape(zr, pre, "rf_forward")
        pre = zr + pre
    absval = np.abs(pre)
    out = np.sign(pre) * np.maximum(absval - t, 0.0)

    def vjp(g):
        mask = absval > t
        g_pre = g * mask
        yield 6, np.array([[-(np.sign(pre) * mask * g).sum()]])
        if z_prev is not None:
            yield 0, g_pre @ r.T
            yield 4, z_prev.T @ g_pre
        g_p1 = g_pre @ u.T
        yield 5, p1.T @ g_pre
        g_resid = g_p1 @ d_t.T
        yield 3, (resid.T @ g_p1).T
        yield 1, g_resid
        if e_prev is not None:
            yield 2, -g_resid

    return out, vjp


def cd_forward(z, x, e_prev, m):
    """Dictionary refresh: M Z^T (X - E)."""
    return tc.custom_op(_cd_kernel, z, x, e_prev, m)


def _cd_kernel(z, x, e_prev, m):
    resid = _residual(x, e_prev, "cd_forward")
    z_t = np.ascontiguousarray(z.T)
    p = tc.dot(z_t, resid, "cd_forward")
    out = tc.dot(m, p, "cd_forward")

    def vjp(g):
        yield 3, g @ p.T
        g_p = m.T @ g
        yield 0, (g_p @ resid.T).T
        g_resid = z_t.T @ g_p
        yield 1, g_resid
        if e_prev is not None:
            yield 2, -g_resid

    return out, vjp


def dn_forward(x, z, d, rho):
    """Noise update: group shrinkage of the reconstruction residual.
    Each feature column g of X - Z D is scaled by (||g|| - rho)/||g||
    when ||g|| > rho and zeroed otherwise; the subgradient is zero inside
    and on the dead zone."""
    return tc.custom_op(_dn_kernel, x, z, d, rho)


def _dn_kernel(x, z, d, rho):
    r = _threshold(rho, "dn_forward rho")
    zd = tc.dot(z, d, "dn_forward")
    tc.check_same_shape(x, zd, "dn_forward")
    a = x - zd
    norms = np.sqrt((a * a).sum(axis=0, keepdims=True))
    active = norms > r
    safe = np.where(active, norms, 1.0)
    factor = np.where(active, (norms - r) / safe, 0.0)

    def vjp(g):
        # per active group: da = f*g + (rho/n^3) <a, g> a ; drho = -<a, g>/n
        inner = (a * g).sum(axis=0, keepdims=True)
        g_a = factor * g
        g_a += (r / safe**3) * inner * a
        if not active.all():
            g_a = np.where(active, g_a, 0.0)
        yield 3, np.array([[-np.where(active, inner / safe, 0.0).sum()]])
        yield 0, g_a
        # X - Z D: negating the products equals multiplying by -g_a, bit for bit
        yield 1, -(g_a @ d.T)
        yield 2, -(z.T @ g_a)

    return a * factor, vjp


def fusion_weights(z_views: list, labels):
    """Separation-derived view weights (1 x V), differentiable end to end.

    Per view: class centroids of the code rows, the minimum pairwise
    centroid distance d_v (clamped at 1e-8), then
    w = softmax(-(1/d_v) / sum_u (1/d_u)).

    The minimum pair is found in numpy; only that pair's distance carries
    a gradient, as no other pair can reach the loss. On a tie the first
    pair in (i, j) order wins and gives the subgradient.
    """
    labels = np.asarray(labels, dtype=np.int64)
    groups, group_of, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if groups.size < 2:
        raise FusionError(f"need >= 2 distinct labels for fusion weights, got {groups.size}")
    averaging = np.zeros((groups.size, labels.size))
    averaging[group_of, np.arange(labels.size)] = 1.0 / counts[group_of]
    first, second = np.triu_indices(groups.size, k=1)
    floor = MIN_CENTROID_DISTANCE**2

    def kernel(*codes):
        pairs = []  # per view: the minimum pair (i, j), its difference and squared distance
        for z in codes:
            centroids = tc.dot(averaging, z, "fusion_weights")
            diffs = centroids[first] - centroids[second]
            k = int((diffs * diffs).sum(axis=1).argmin())
            diff = centroids[[first[k]]] - centroids[[second[k]]]
            pairs.append((first[k], second[k], diff, np.array([[(diff * diff).sum()]])))
        dvec = np.hstack([np.sqrt(np.maximum(best, floor)) for *_, best in pairs])
        inv = 1.0 / dvec
        total = np.array([[inv.sum()]])
        if total[0, 0] == 0.0:
            raise tc.DomainError("reciprocal of a zero entry")
        scale = 1.0 / total
        sval = float(scale[0, 0])
        neg = (inv * sval) * -1.0
        expv = np.exp(neg - neg.max(axis=1, keepdims=True))
        w = expv / expv.sum(axis=1, keepdims=True)

        def vjp(g):
            inner = (g * w).sum(axis=1, keepdims=True)
            g_dbar = (w * (g - inner)) * -1.0
            g_scale = np.array([[(g_dbar * inv).sum()]])
            g_total = -g_scale * scale * scale
            g_inv = g_dbar * sval + np.full_like(inv, g_total[0, 0])
            g_dvec = -g_inv * inv * inv
            for v in reversed(range(len(pairs))):
                i, j, diff, best = pairs[v]
                dist = dvec[:, v : v + 1]
                safe = np.where(dist > 0.0, dist, 1.0)
                g_best = (g_dvec[:, v : v + 1] * (dist > 0.0) / (2.0 * safe)) * (best > floor)
                g_diff = 2.0 * g_best[0, 0] * diff
                g_centroids = np.zeros((groups.size, diff.shape[1]))
                g_centroids[j] = -g_diff
                g_centroids[i] = g_diff
                yield v, averaging.T @ g_centroids

        return w, vjp

    return tc.custom_op(kernel, *z_views)


def _weighted_sum_kernel(w, *codes):
    """sum_v w_v Z_v for a 1 x V weight row, as the fused code."""
    if w.shape != (1, len(codes)):
        raise tc.ShapeError(f"fusion weights have shape {w.shape}, expected (1, {len(codes)})")
    weights = [float(wv) for wv in w[0]]
    fused = codes[0] * weights[0]
    for z, wv in zip(codes[1:], weights[1:]):
        tc.check_same_shape(fused, z, "weighted view sum")
        fused = fused + z * wv

    def vjp(g):
        for v in reversed(range(len(codes))):
            yield 1 + v, g * weights[v]
        yield 0, np.array([[(g * z).sum() for z in codes]])

    return fused, vjp


# ---------------------------------------------------------------------------
# full forward pass


def _bind_params(params: UnfoldParams) -> dict[str, tc.DiffNode]:
    # copies, so the tape keeps its values while sgd_step writes the arrays
    return {n: tc.DiffNode(a.copy()) for n, a in params.arrays.items()}


def forward(
    batch,
    params: UnfoldParams,
    labels_for_fusion=None,
    inference: bool = False,
) -> ForwardResult:
    """Run the unrolled layers, then fuse the last layer's per-view codes.

    State starts at Z = 0, E = 0, D = D_init; layer 0 has no Z R term.
    The last layer runs RF only, so the last trace entry holds its code
    and the D and E it read. The views are fused once, after the last
    layer. Weight source: the snapshot in inference mode (required),
    label-derived weights when labels are supplied (falling back to
    uniform if fusion is infeasible), uniform otherwise.

    Inference runs the same kernels on plain arrays: it binds no
    parameter nodes and records nothing, and `z_fused` is a plain array.
    Both modes read `params.arrays` as they are, checked when built (and
    by `trainer.train` after each step): a non-finite entry written since
    makes the fused code non-finite, or a threshold raise `NumericError`.
    """
    views = batch.views if hasattr(batch, "views") else list(batch)
    if len(views) != params.n_views:
        raise tc.ShapeError(f"batch has {len(views)} views, params expect {params.n_views}")
    if inference and params.fusion_weights_snapshot is None:
        raise StateError("inference requires a fusion weight snapshot; train first")

    if inference:
        nodes = {}
        p = params.arrays
    else:
        nodes = p = _bind_params(params)
    v_count = params.n_views
    x = [tc.matrix(v) for v in views]
    z: list = [None] * v_count
    e: list = [None] * v_count
    key = param_key
    d = [p[key("d_init", v)] for v in range(v_count)]

    trace: list[LayerState] = []
    for l in range(params.num_layers):
        for v in range(v_count):
            z[v] = rf_forward(
                z[v], x[v], e[v], d[v],
                p[key("r", l, v)] if l else None, p[key("u", l, v)], p[key("theta", l, v)],
            )
            if l == params.num_layers - 1:
                continue
            if params.ablation != "no_cd_dn":
                d[v] = cd_forward(z[v], x[v], e[v], p[key("m", l, v)])
            if params.ablation == "full":
                e[v] = dn_forward(x[v], z[v], d[v], p[key("rho", l, v)])
        trace.append(
            LayerState(
                z=[tc.value_of(zv) for zv in z],
                d=[tc.value_of(dv) for dv in d],
                e=[np.zeros_like(xv) if ev is None else tc.value_of(ev) for ev, xv in zip(e, x)],
            )
        )

    uniform = np.full((1, v_count), 1.0 / v_count)
    if inference:
        w = tc.matrix(params.fusion_weights_snapshot.reshape(1, -1))
    elif labels_for_fusion is not None:
        try:
            w = fusion_weights(z, labels_for_fusion)
        except FusionError as exc:
            logger.warning("fusion fallback to uniform weights: %s", exc)
            w = uniform
    else:
        w = uniform

    z_fused = tc.custom_op(_weighted_sum_kernel, w, *z)
    weights = tc.value_of(w).ravel().copy()
    return ForwardResult(z_fused=z_fused, param_nodes=nodes, trace=trace, weights=weights)


def predict(z_fused: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row argmax class (ties to the smaller index) and max softmax."""
    z = np.asarray(z_fused, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=1, keepdims=True)
    classes = np.argmax(probs, axis=1)
    return classes, probs[np.arange(z.shape[0]), classes]


# ---------------------------------------------------------------------------
# (de)serialization helpers used by checkpoints


def params_to_dict(params: UnfoldParams) -> dict:
    snapshot = params.fusion_weights_snapshot
    return {
        "view_dims": list(params.view_dims),
        "num_classes": params.num_classes,
        "num_layers": params.num_layers,
        "arrays": {name: a.tolist() for name, a in params.arrays.items()},
        "fusion_weights_snapshot": None if snapshot is None else snapshot.tolist(),
        "ablation": params.ablation,
    }


def params_from_dict(data: dict) -> UnfoldParams:
    return UnfoldParams(
        view_dims=[int(d) for d in data["view_dims"]],
        num_classes=int(data["num_classes"]),
        num_layers=int(data["num_layers"]),
        arrays=dict(data["arrays"]),
        fusion_weights_snapshot=data["fusion_weights_snapshot"],
        ablation=data["ablation"],
    )
