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

Only what reaches the fused code gets a gradient. Layer 0 starts from
Z = 0 and skips Z R, so `r/0/*` always gets a zero gradient; the last
layer's CD and DN outputs only feed the trace, so `m/{L-1}/*` and
`rho/{L-1}/*` get a zero gradient in training.

Ablation modes: "no_cd_dn" freezes the dictionaries and drops the noise
path entirely; "no_dn" keeps the dictionary refresh but clamps the noise
estimate to zero.
"""

from __future__ import annotations

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
    `theta` and `rho` are (num_layers, n_views) arrays (converted on init)."""

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
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        self.theta = np.array(self.theta, dtype=np.float64)
        self.rho = np.array(self.rho, dtype=np.float64)

    @property
    def n_views(self) -> int:
        return len(self.view_dims)

    @staticmethod
    def key(kind: str, *index: int) -> str:
        """Parameter name `kind/layer/view` (`d_init/view` for dictionaries)."""
        return "/".join((kind, *map(str, index)))

    def named(self) -> dict[str, np.ndarray]:
        """Every parameter as a writable float64 array keyed by `key`, in
        bind order: `d_init/*`, then per layer and view r, u, theta, m, rho.
        Thresholds are (1, 1) views, so writes update the parameter set."""
        out = {self.key("d_init", v): d for v, d in enumerate(self.d_init)}
        for l in range(self.num_layers):
            for v in range(self.n_views):
                out[self.key("r", l, v)] = self.r[l][v]
                out[self.key("u", l, v)] = self.u[l][v]
                out[self.key("theta", l, v)] = self.theta[l : l + 1, v : v + 1]
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
    z_fused: tc.DiffNode
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
    a tiny ridge is used, which is only safe for single-layer networks.
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

    def per_layer(make):
        """Fresh (num_layers x views) values of `make(D_v, L_v)`."""
        return [[make(dv, lp) for dv, lp in zip(d_init, l_p)] for _ in range(num_layers)]

    return UnfoldParams(
        view_dims=view_dims,
        num_classes=c,
        num_layers=num_layers,
        r=per_layer(lambda dv, lp: eye - (dv @ dv.T) / lp),
        u=per_layer(lambda dv, lp: eye / lp),
        m=per_layer(lambda dv, lp: eye / (cfg.beta + ridge)),
        theta=per_layer(lambda dv, lp: cfg.alpha / lp),
        rho=per_layer(lambda dv, lp: cfg.gamma / lp),
        d_init=d_init,
        group_axis=group_axis,
        ablation=ablation,
    )


# ---------------------------------------------------------------------------
# the four modules


def rf_forward(z_prev, x, e_prev, d_prev, r, u, theta) -> tc.DiffNode:
    """Code update: S_theta(Z R + (X - E) D^T U). `z_prev=None` and
    `e_prev=None` mean zero; a zero code skips Z R and the sum."""
    resid = x if e_prev is None else tc.sub(x, e_prev)
    pre = tc.matmul(tc.matmul(resid, tc.transpose(d_prev)), u)
    if z_prev is not None:
        pre = tc.add(tc.matmul(z_prev, r), pre)
    return tc.soft_threshold(pre, theta)


def cd_forward(z, x, e_prev, m) -> tc.DiffNode:
    """Dictionary refresh: M Z^T (X - E)."""
    resid = x if e_prev is None else tc.sub(x, e_prev)
    return tc.matmul(m, tc.matmul(tc.transpose(z), resid))


def dn_forward(x, z, d, rho, axis: str = "columns") -> tc.DiffNode:
    """Noise update: group shrinkage of the reconstruction residual."""
    return tc.group_soft_threshold(tc.sub(x, tc.matmul(z, d)), rho, axis=axis)


def fusion_weights(z_views: list[tc.DiffNode], labels) -> tc.DiffNode:
    """Separation-derived view weights, differentiable end to end.

    Per view: class centroids of the code rows, the minimum pairwise
    centroid distance d_v (clamped at 1e-8), then
    w = softmax(-(1/d_v) / sum_u (1/d_u)).

    The minimum pair is found in numpy; only that pair's distance is put
    on the tape, as no other pair can reach the loss. On a tie the first
    pair in (i, j) order wins and gives the subgradient.
    """
    labels = np.asarray(labels, dtype=np.int64)
    groups = np.unique(labels)
    if groups.size < 2:
        raise FusionError(f"need >= 2 distinct labels for fusion weights, got {groups.size}")
    averaging = np.zeros((groups.size, labels.size))
    for gi, g in enumerate(groups):
        rows = labels == g
        averaging[gi, rows] = 1.0 / rows.sum()
    avg_node = tc.constant(averaging)
    first, second = np.triu_indices(groups.size, k=1)

    min_dists = []
    for z in z_views:
        centroids = tc.matmul(avg_node, z)
        diffs = centroids.value[first] - centroids.value[second]
        k = int(np.argmin(np.sum(diffs * diffs, axis=1)))
        diff = tc.sub(tc.take_rows(centroids, [first[k]]), tc.take_rows(centroids, [second[k]]))
        best = tc.frobenius_sq(diff)
        min_dists.append(tc.sqrt(tc.clamp_min(best, MIN_CENTROID_DISTANCE**2)))

    dvec = tc.hstack(min_dists)
    inv = tc.reciprocal(dvec)
    dbar = tc.mul_scalar_node(inv, tc.reciprocal(tc.sum(inv)))
    return tc.row_softmax(tc.scale(dbar, -1.0))


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
    num_layers: int | None = None,
) -> ForwardResult:
    """Run the unrolled layers, then fuse the last layer's per-view codes.

    State starts at Z = 0, E = 0, D = D_init; layer 0 skips Z R, so
    `r/0/*` always gets a zero gradient. The views are fused once, after
    the last layer; that layer's CD and DN outputs only feed the trace,
    so `m/{L-1}/*` and `rho/{L-1}/*` get a zero gradient in training.
    Weight source: the snapshot in inference mode (required),
    label-derived weights when labels are supplied (falling back to
    uniform if fusion is infeasible), uniform otherwise.
    """
    views = batch.views if hasattr(batch, "views") else list(batch)
    if len(views) != params.n_views:
        raise tc.ShapeError(f"batch has {len(views)} views, params expect {params.n_views}")
    layers = params.num_layers if num_layers is None else num_layers
    if not 1 <= layers <= params.num_layers:
        raise ValueError(f"num_layers must lie in [1, {params.num_layers}], got {layers}")
    if inference and params.fusion_weights_snapshot is None:
        raise StateError("inference requires a fusion weight snapshot; train first")

    nodes = _bind_params(params)
    v_count = params.n_views
    x = [tc.constant(v) for v in views]
    z: list[tc.DiffNode | None] = [None] * v_count
    e: list[tc.DiffNode | None] = [None] * v_count
    key = params.key
    d = [nodes[key("d_init", v)] for v in range(v_count)]

    trace: list[LayerState] = []
    for l in range(layers):
        for v in range(v_count):
            z[v] = rf_forward(
                z[v], x[v], e[v], d[v],
                nodes[key("r", l, v)], nodes[key("u", l, v)], nodes[key("theta", l, v)],
            )
            if params.ablation != "no_cd_dn":
                d[v] = cd_forward(z[v], x[v], e[v], nodes[key("m", l, v)])
            if params.ablation == "full":
                e[v] = dn_forward(x[v], z[v], d[v], nodes[key("rho", l, v)], params.group_axis)
        trace.append(
            LayerState(
                z=[zv.value for zv in z],
                d=[dv.value for dv in d],
                e=[ev.value if ev is not None else np.zeros_like(xv.value) for ev, xv in zip(e, x)],
            )
        )

    uniform = np.full((1, v_count), 1.0 / v_count)
    if inference:
        w = tc.constant(params.fusion_weights_snapshot.reshape(1, -1))
    elif labels_for_fusion is not None:
        try:
            w = fusion_weights(z, labels_for_fusion)
        except FusionError as exc:
            logger.warning("fusion fallback to uniform weights: %s", exc)
            w = tc.constant(uniform)
    else:
        w = tc.constant(uniform)

    w_cols = tc.transpose(w)
    z_fused = tc.mul_scalar_node(z[0], tc.take_rows(w_cols, [0]))
    for v in range(1, v_count):
        z_fused = tc.add(z_fused, tc.mul_scalar_node(z[v], tc.take_rows(w_cols, [v])))
    weights = w.value.ravel().copy()
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
