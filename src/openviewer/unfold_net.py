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

A network stores and runs only what reaches the fused code. Layer 0
starts from Z = 0, so it has no R; the last layer runs RF only, as
nothing reads a D or E it would refresh. An L-layer network holds U and
theta for layers 0..L-1, R for 1..L-1, and M and rho for 0..L-2.

Ablation modes: "no_cd_dn" freezes the dictionaries and drops the noise
path entirely; "no_dn" keeps the dictionary refresh but clamps the noise
estimate to zero.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from . import tensor_core as tc
from .admm_oracle import AdmmConfig, AdmmState, power_iteration_norm

logger = logging.getLogger(__name__)

ABLATIONS = ("full", "no_cd_dn", "no_dn")

# stand-in for the unknown Z^T Z when building M at initialization
INIT_RIDGE = 1e-8

MIN_CENTROID_DISTANCE = 1e-8


class FusionError(ValueError):
    """Fusion weights cannot be computed from the given labels."""


class StateError(RuntimeError):
    """The network is missing state required for the requested mode."""


@dataclass
class UnfoldParams:
    """Learnable per-view, per-layer parameter set plus frozen fusion weights.
    `u[l]`, `theta[l]` belong to layer l, `r[l]` to layer l + 1, and `m[l]`,
    `rho[l]` to layer l; `theta` and `rho` are 2-D arrays (converted on init)."""

    view_dims: list[int]
    num_classes: int
    num_layers: int
    r: list[list[np.ndarray]]
    u: list[list[np.ndarray]]
    m: list[list[np.ndarray]]
    theta: np.ndarray
    rho: np.ndarray
    d_init: list[np.ndarray]
    fusion_weights_snapshot: np.ndarray | None = None
    group_axis: str = "columns"
    ablation: str = "full"

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        self.theta = np.array(self.theta, dtype=np.float64)
        self.rho = np.array(self.rho, dtype=np.float64)

    @property
    def n_views(self) -> int:
        return len(self.view_dims)

    @staticmethod
    @functools.cache
    def key(kind: str, *index: int) -> str:
        """Parameter name `kind/layer/view` (`d_init/view` for dictionaries)."""
        return "/".join((kind, *map(str, index)))

    def named(self) -> dict[str, np.ndarray]:
        """Every parameter as a writable float64 array keyed by `key`, in bind
        order: `d_init/*`, then per layer and view its r, u, theta, m, rho.
        Thresholds are (1, 1) views, so writes update the parameter set."""
        out = {self.key("d_init", v): d for v, d in enumerate(self.d_init)}
        for l in range(self.num_layers):
            for v in range(self.n_views):
                if l > 0:
                    out[self.key("r", l, v)] = self.r[l - 1][v]
                out[self.key("u", l, v)] = self.u[l][v]
                out[self.key("theta", l, v)] = self.theta[l : l + 1, v : v + 1]
                if l < self.num_layers - 1:
                    out[self.key("m", l, v)] = self.m[l][v]
                    out[self.key("rho", l, v)] = self.rho[l : l + 1, v : v + 1]
        return out

    def clamp_thresholds(self) -> None:
        np.maximum(self.theta, 0.0, out=self.theta)
        np.maximum(self.rho, 0.0, out=self.rho)


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
    warm_start: AdmmState | None = None,
    group_axis: str = "columns",
    ablation: str = "full",
    expected_rows: int | None = None,
) -> UnfoldParams:
    """Closed-form initialization from (possibly warm-started) dictionaries.

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
    for v, dim in enumerate(view_dims):
        if warm_start is not None:
            d_init.append(warm_start.d[v].copy())
        else:
            dv = rng.normal(size=(c, dim))
            dv /= np.linalg.norm(dv, axis=1, keepdims=True)
            d_init.append(dv)

    eye = np.eye(c)
    l_p = [power_iteration_norm(dv @ dv.T) for dv in d_init]

    def per_layer(make, layers=num_layers):
        """Fresh (layers x views) values of `make(D_v, L_v)`."""
        return [[make(dv, lp) for dv, lp in zip(d_init, l_p)] for _ in range(layers)]

    return UnfoldParams(
        view_dims=view_dims,
        num_classes=c,
        num_layers=num_layers,
        r=per_layer(lambda dv, lp: eye - (dv @ dv.T) / lp, num_layers - 1),
        u=per_layer(lambda dv, lp: eye / lp),
        m=per_layer(lambda dv, lp: eye / (cfg.beta + ridge), num_layers - 1),
        theta=per_layer(lambda dv, lp: cfg.alpha / lp),
        rho=per_layer(lambda dv, lp: cfg.gamma / lp, num_layers - 1),
        d_init=d_init,
        group_axis=group_axis,
        ablation=ablation,
    )


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
    t = tc.check_scalar(value, name)
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


def dn_forward(x, z, d, rho, axis: str = "columns"):
    """Noise update: group shrinkage of the reconstruction residual.
    Each column (or row) g of X - Z D is scaled by (||g|| - rho)/||g||
    when ||g|| > rho and zeroed otherwise; the subgradient is zero inside
    and on the dead zone."""
    return tc.custom_op(_dn_kernel, x, z, d, rho, axis)


def _dn_kernel(x, z, d, rho, axis):
    r = _threshold(rho, "dn_forward rho")
    if axis not in ("columns", "rows"):
        raise tc.DomainError(f"axis must be 'columns' or 'rows', got {axis!r}")
    ax = 0 if axis == "columns" else 1
    zd = tc.dot(z, d, "dn_forward")
    tc.check_same_shape(x, zd, "dn_forward")
    a = x - zd
    norms = np.sqrt((a * a).sum(axis=ax, keepdims=True))
    active = norms > r
    safe = np.where(active, norms, 1.0)
    factor = np.where(active, (norms - r) / safe, 0.0)

    def vjp(g):
        # per active group: da = f*g + (rho/n^3) <a, g> a ; drho = -<a, g>/n
        inner = (a * g).sum(axis=ax, keepdims=True)
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


# parameter kinds an ablation never reads, as name prefixes
_INERT = {"full": (), "no_dn": ("rho/",), "no_cd_dn": ("m/", "rho/")}


def _bind_params(params: UnfoldParams) -> dict[str, tc.DiffNode]:
    inert = _INERT[params.ablation]
    return {n: tc.leaf(a) for n, a in params.named().items() if not n.startswith(inert)}


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
    """
    views = batch.views if hasattr(batch, "views") else list(batch)
    if len(views) != params.n_views:
        raise tc.ShapeError(f"batch has {len(views)} views, params expect {params.n_views}")
    if inference and params.fusion_weights_snapshot is None:
        raise StateError("inference requires a fusion weight snapshot; train first")

    if inference:
        nodes = {}
        p = {n: tc.matrix(a) for n, a in params.named().items()}
    else:
        nodes = p = _bind_params(params)
    v_count = params.n_views
    x = [tc.matrix(v) for v in views]
    z: list = [None] * v_count
    e: list = [None] * v_count
    key = params.key
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
                e[v] = dn_forward(x[v], z[v], d[v], p[key("rho", l, v)], params.group_axis)
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
    return {
        "view_dims": list(params.view_dims),
        "num_classes": params.num_classes,
        "num_layers": params.num_layers,
        **{k: [[a.tolist() for a in row] for row in getattr(params, k)] for k in ("r", "u", "m")},
        "theta": params.theta.tolist(),
        "rho": params.rho.tolist(),
        "d_init": [m.tolist() for m in params.d_init],
        "fusion_weights_snapshot": (
            None
            if params.fusion_weights_snapshot is None
            else params.fusion_weights_snapshot.tolist()
        ),
        "group_axis": params.group_axis,
        "ablation": params.ablation,
    }


def params_from_dict(data: dict) -> UnfoldParams:
    snapshot = data["fusion_weights_snapshot"]
    return UnfoldParams(
        view_dims=[int(d) for d in data["view_dims"]],
        num_classes=int(data["num_classes"]),
        num_layers=int(data["num_layers"]),
        **{k: [[np.array(a) for a in layer] for layer in data[k]] for k in ("r", "u", "m")},
        theta=data["theta"],
        rho=data["rho"],
        d_init=[np.array(m) for m in data["d_init"]],
        fusion_weights_snapshot=None if snapshot is None else np.array(snapshot),
        group_axis=data["group_axis"],
        ablation=data["ablation"],
    )
