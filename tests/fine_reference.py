"""Bitwise references: the network modules and loss terms composed from
the fine-grained ops of `fine_ops`, one tape node per elementary step.

The package builds each module and loss term as a single tape op with a
hand-written VJP that must reproduce these graphs exactly: the same
values and, after `tc.backward`, the same input gradients, bit for bit.
`forward` and `total_loss` here are the whole training graph built the
same way, to check the gradient accumulation order across modules.

`power_iteration_norm` is the solver's power iteration as it was written
before it carried the matrix-vector product from one step to the next:
two products per step and `np.linalg.norm`, always from the fixed
seed-12345 vector. The package's one-product loop must return the same
bits and raise the same errors.

`run_gradcheck` is the CLI's gradient audit as it was written before it
shared `tc.central_difference_error`: two deep copies of the whole
parameter set per checked entry. The package's in-place audit must report
the same errors and gradient norms.

`score_with_codes` and `oscr_curve` are the open-set evaluation as it was
written before it worked on columns: one dataclass per test row, built
from numpy scalars, then walked attribute by attribute, with the
standardization written out in `standardize`. The package's columnar path
must give equal rows (with the same Python types) and equal OSCR points.

`update_centers` and `class_means` are the center rules as they were
written before they used `np.add.at`: one boolean mask per class present.

`generate_pseudo`, `batch_stats` and `fusion_weights_unique` are three
per-batch steps of training as they were written before the step was made
cheaper. `generate_pseudo` reads labels and pools through numpy inside its
draw loop; `batch_stats` takes one softmax and one norm pass for the known
rows and another for the pseudo rows; `fusion_weights_unique` runs the
package's fusion op with its former grouping, `np.unique` and a fresh
`np.triu_indices` on every call. The package's versions must give the same
bits and leave the generator in the same state.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from unittest import mock

import numpy as np

import openviewer.tensor_core as tc
from openviewer import unfold_net
from openviewer.admm_oracle import PowerIterationError
from openviewer.cli import build_gradcheck_scenario
from openviewer.dataset import Batch
from openviewer.evaluation import MetricError, OscrCurve
from openviewer.losses import (
    BatchStats,
    LossConfig,
    LossError,
    _one_hot,
    total_loss,
)
from openviewer.pseudo_gen import GenerationError
from openviewer.unfold_net import (
    MIN_CENTROID_DISTANCE,
    FusionError,
    ForwardResult,
    LayerState,
    UnfoldParams,
    _bind_params,
    param_key,
    predict,
)
from openviewer.unfold_net import forward as package_forward

import fine_ops as fo


def power_iteration_norm(mat: np.ndarray, tol: float = 1e-10, max_iter: int = 1000) -> float:
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError(f"power iteration needs a square matrix, got {mat.shape}")
    rng = np.random.default_rng(12345)
    vec = rng.normal(size=n)
    vec /= np.linalg.norm(vec)
    lam = 0.0
    change = np.inf
    for _ in range(max_iter):
        nxt = mat @ vec
        norm = np.linalg.norm(nxt)
        if norm == 0.0:
            return 0.0
        vec = nxt / norm
        lam_new = float(vec @ (mat @ vec))
        change = abs(lam_new - lam) / max(1.0, abs(lam_new))
        if change <= tol:
            return lam_new
        lam = lam_new
    if change <= 1e-5:
        return lam
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} iterations (last change {change:.3e})"
    )


def rf_forward(z_prev, x, e_prev, d_prev, r, u, theta) -> tc.DiffNode:
    resid = x if e_prev is None else fo.sub(x, e_prev)
    pre = fo.matmul(fo.matmul(resid, fo.transpose(d_prev)), u)
    if z_prev is not None:
        pre = fo.add(fo.matmul(z_prev, r), pre)
    return fo.soft_threshold(pre, theta)


def cd_forward(z, x, e_prev, m) -> tc.DiffNode:
    resid = x if e_prev is None else fo.sub(x, e_prev)
    return fo.matmul(m, fo.matmul(fo.transpose(z), resid))


def dn_forward(x, z, d, rho) -> tc.DiffNode:
    return fo.group_soft_threshold(fo.sub(x, fo.matmul(z, d)), rho)


def fusion_weights(z_views, labels) -> tc.DiffNode:
    """Minimum centroid pair per view on the tape (first pair on a tie)."""
    labels = np.asarray(labels, dtype=np.int64)
    groups = np.unique(labels)
    if groups.size < 2:
        raise FusionError(f"need >= 2 distinct labels for fusion weights, got {groups.size}")
    averaging = np.zeros((groups.size, labels.size))
    for gi, g in enumerate(groups):
        rows = labels == g
        averaging[gi, rows] = 1.0 / rows.sum()
    avg_node = tc.leaf(averaging)
    first, second = np.triu_indices(groups.size, k=1)

    min_dists = []
    for z in z_views:
        centroids = fo.matmul(avg_node, z)
        diffs = centroids.value[first] - centroids.value[second]
        k = int(np.argmin(np.sum(diffs * diffs, axis=1)))
        diff = fo.sub(fo.take_rows(centroids, [first[k]]), fo.take_rows(centroids, [second[k]]))
        best = fo.frobenius_sq(diff)
        min_dists.append(fo.sqrt(fo.clamp_min(best, MIN_CENTROID_DISTANCE**2)))

    dvec = fo.hstack(min_dists)
    inv = fo.reciprocal(dvec)
    dbar = fo.mul_scalar_node(inv, fo.reciprocal(fo.sum(inv)))
    return fo.row_softmax(fo.scale(dbar, -1.0))


def weighted_sum(w: tc.DiffNode, z_views) -> tc.DiffNode:
    w_cols = fo.transpose(w)
    z_fused = fo.mul_scalar_node(z_views[0], fo.take_rows(w_cols, [0]))
    for v in range(1, len(z_views)):
        z_fused = fo.add(z_fused, fo.mul_scalar_node(z_views[v], fo.take_rows(w_cols, [v])))
    return z_fused


def forward(batch, params: UnfoldParams, labels_for_fusion=None) -> ForwardResult:
    """The training forward with every step on the tape."""
    nodes, grad = _bind_params(params)
    v_count = params.n_views
    x = [tc.leaf(v) for v in batch.views]
    z = [None] * v_count
    e = [None] * v_count
    key = param_key
    d = [nodes[key("d_init", v)] for v in range(v_count)]
    trace = []
    last = params.num_layers - 1
    for l in range(params.num_layers):
        for v in range(v_count):
            z[v] = rf_forward(
                z[v], x[v], e[v], d[v],
                nodes[key("r", l, v)] if l else None, nodes[key("u", l, v)],
                nodes[key("theta", l, v)],
            )
            if l == last:
                continue
            if params.ablation != "no_cd_dn":
                d[v] = cd_forward(z[v], x[v], e[v], nodes[key("m", l, v)])
            if params.ablation == "full":
                e[v] = dn_forward(x[v], z[v], d[v], nodes[key("rho", l, v)])
        trace.append(LayerState(z=[zv.value for zv in z], d=[dv.value for dv in d], e=[]))

    uniform = tc.leaf(np.full((1, v_count), 1.0 / v_count))
    if labels_for_fusion is None:
        w = uniform
    else:
        try:
            w = fusion_weights(z, labels_for_fusion)
        except FusionError:
            w = uniform
    z_fused = weighted_sum(w, z)
    return ForwardResult(z_fused=z_fused, grad=grad, trace=trace,
                         weights=w.value.ravel().copy())


def known_loss(z_known: tc.DiffNode, labels, xi: float) -> tc.DiffNode:
    n, c = z_known.value.shape
    onehot = tc.leaf(_one_hot(labels, c))
    log_p = fo.row_log_softmax(z_known)
    ce = fo.scale(fo.sum(fo.mul_elem(onehot, log_p)), -1.0 / n)
    hinge = fo.relu(fo.add_scalar(fo.scale(fo.row_l2_norms(z_known), -1.0), xi))
    margin = fo.sum(fo.mul_elem(hinge, hinge))
    return fo.add(ce, margin)


def unknown_loss(z_pseudo: tc.DiffNode) -> tc.DiffNode:
    n, c = z_pseudo.value.shape
    log_p = fo.row_log_softmax(z_pseudo)
    flat = fo.scale(fo.sum(log_p), -1.0 / c)
    return fo.add(flat, fo.frobenius_sq(z_pseudo))


def center_loss(z_known: tc.DiffNode, labels, centers: np.ndarray) -> tc.DiffNode:
    gathered = tc.leaf(centers[np.asarray(labels, dtype=np.int64)])
    return fo.scale(fo.frobenius_sq(fo.sub(z_known, gathered)), 0.5)


def total_loss(z_fused: tc.DiffNode, labels, is_pseudo, centers, config):
    labels = np.asarray(labels, dtype=np.int64)
    is_pseudo = np.asarray(is_pseudo, dtype=bool)
    known_idx = np.flatnonzero(~is_pseudo)
    pseudo_idx = np.flatnonzero(is_pseudo)
    if known_idx.size == 0:
        raise LossError("total_loss needs at least one known sample in the batch")
    z_known = fo.take_rows(z_fused, known_idx)
    total = known_loss(z_known, labels[known_idx], config.xi)
    parts = {"known": total.item(), "unknown": 0.0, "center": 0.0}
    if config.lambda1 > 0 and pseudo_idx.size:
        unk = unknown_loss(fo.take_rows(z_fused, pseudo_idx))
        parts["unknown"] = unk.item()
        total = fo.add(total, fo.scale(unk, config.lambda1))
    if config.lambda2 > 0:
        cen = center_loss(z_known, labels[known_idx], centers)
        parts["center"] = cen.item()
        total = fo.add(total, fo.scale(cen, config.lambda2))
    parts["total"] = total.item()
    return total, parts


def update_centers(centers, z_known, labels, center_lr=1.0):
    labels = np.asarray(labels, dtype=np.int64)
    new = centers.copy()
    for j in np.unique(labels):
        rows = z_known[labels == j]
        delta = np.sum(centers[j] - rows, axis=0) / (1.0 + rows.shape[0])
        new[j] = centers[j] - center_lr * delta
    return new


def class_means(z_known, labels, num_classes):
    centers = np.zeros((num_classes, z_known.shape[1]))
    for j in np.unique(labels):
        centers[j] = z_known[labels == j].mean(axis=0)
    return centers


@dataclass
class ScoredPrediction:
    index: int
    predicted: int
    confidence: float
    true_label: int
    is_unknown_truth: bool


def standardize(view, train_idx):
    """Every row of `view` standardized by the mean and std of its rows
    `train_idx`; a column with std below 1e-12 is centered only."""
    train = view[np.asarray(train_idx, dtype=np.intp)]
    mean, std = train.mean(axis=0), train.std(axis=0)
    return (view - mean) / np.where(std < 1e-12, 1.0, std)


def score_with_codes(params, dataset, split, normalize=True, indices=None):
    """One row object per test sample, each field cast from a numpy scalar."""
    known = sorted(split.known_classes)
    views = dataset.views
    if normalize:
        views = [standardize(v, split.train_idx) for v in views]
    rows = np.asarray(split.test_idx if indices is None else indices, dtype=np.intp)
    batch = Batch(
        views=[v[rows] for v in views],
        labels=dataset.labels[rows],
        is_pseudo=np.zeros(rows.size, dtype=bool),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        fused = package_forward(batch, params, inference=True).z_fused
    classes, confidence = predict(fused)
    unknown = set(split.unknown_classes)
    preds = [
        ScoredPrediction(
            index=int(i),
            predicted=int(known[c]),
            confidence=float(s),
            true_label=int(t),
            is_unknown_truth=bool(int(t) in unknown),
        )
        for i, c, s, t in zip(rows, classes, confidence, batch.labels)
    ]
    return preds, fused


def oscr_curve(preds) -> OscrCurve:
    known = [p for p in preds if not p.is_unknown_truth]
    unknown = [p for p in preds if p.is_unknown_truth]
    if not known or not unknown:
        raise MetricError("OSCR needs at least one known-truth and one unknown-truth sample")
    thresholds = np.unique([p.confidence for p in preds])[::-1]

    def share_at_or_above(conf, total):
        ordered = np.sort(np.asarray(conf, dtype=np.float64))
        return (ordered.size - np.searchsorted(ordered, thresholds, side="left")) / total

    correct = [p.confidence for p in known if p.predicted == p.true_label]
    ccr = share_at_or_above(correct, len(known))
    fpr = share_at_or_above([p.confidence for p in unknown], len(unknown))
    return OscrCurve(thresholds, ccr, fpr)



def run_gradcheck(seed: int = 7, eps: float = 1e-5):
    combined, params = build_gradcheck_scenario(seed)
    loss_cfg = LossConfig(xi=1.0, lambda1=0.3, lambda2=0.2)
    rng = np.random.default_rng([seed, 903])
    centers = rng.normal(size=(5, 5)) * 0.3

    def loss(trial):
        res = package_forward(combined, trial, labels_for_fusion=combined.labels)
        node, _ = total_loss(res.z_fused, combined.labels, combined.is_pseudo, centers, loss_cfg)
        return node, res.grad

    root, grad = loss(params)
    tc.backward(root)

    per_param = {}
    grad_norms = {}
    for name, g in unfold_net._views(grad, params.shapes()).items():
        grad_norms[name] = float(np.linalg.norm(g))
        err_max = 0.0
        for j, analytic in enumerate(g.flat):
            vals = []
            for sign in (1.0, -1.0):
                trial = copy.deepcopy(params)
                trial.arrays[name].flat[j] += sign * eps
                vals.append(loss(trial)[0].item())
            central = (vals[0] - vals[1]) / (2 * eps)
            err_max = max(err_max, abs(analytic - central) / max(1.0, abs(central)))
        per_param[name] = err_max
    return max(per_param.values()), per_param, grad_norms


def generate_pseudo(batch: Batch, config, rng: np.random.Generator, unknown_label: int) -> Batch:
    labels = batch.labels
    classes = np.unique(labels).tolist()
    if len(classes) < 2:
        raise GenerationError("pseudo generation needs at least 2 distinct classes in the batch")
    b = batch.size
    n_pseudo = math.ceil(config.pseudo_ratio * b)
    others = {g: np.flatnonzero(labels != g) for g in classes}
    first = np.empty(n_pseudo, dtype=np.intp)
    second = np.empty(n_pseudo, dtype=np.intp)
    zetas = np.empty((n_pseudo, 1))
    for k in range(n_pseudo):
        first[k] = rng.integers(b)
        pool = others[labels[first[k]].item()]
        second[k] = pool[rng.integers(pool.size)]
        g = rng.gamma(config.omega, 1.0, 2)
        zetas[k] = g[0] / (g[0] + g[1])
    pseudo_rows = [zetas * x[first] + (1.0 - zetas) * x[second] for x in batch.views]
    return Batch(
        views=[np.vstack([v, rows]) for v, rows in zip(batch.views, pseudo_rows)],
        labels=np.concatenate([labels, np.full(n_pseudo, unknown_label, dtype=np.int64)]),
        is_pseudo=np.concatenate([batch.is_pseudo, np.ones(n_pseudo, dtype=bool)]),
    )


def batch_stats(z_values: np.ndarray, labels, is_pseudo, centers: np.ndarray) -> BatchStats:
    labels = np.asarray(labels, dtype=np.int64)
    is_pseudo = np.asarray(is_pseudo, dtype=bool)
    known = z_values[~is_pseudo]
    pseudo = z_values[is_pseudo]
    known_labels = labels[~is_pseudo]
    counts = np.bincount(known_labels, minlength=centers.shape[0])
    present = counts[counts > 0]

    def softmax(mat):
        if not mat.size:
            return np.zeros((0, z_values.shape[1]))
        expv = np.exp(mat - mat.max(axis=1, keepdims=True))
        return expv / expv.sum(axis=1, keepdims=True)

    def max_row_norm(mat):
        if mat.shape[0] == 0:
            return 0.0
        return float(np.max(np.linalg.norm(mat, axis=1)))

    return BatchStats(
        n_known=known.shape[0],
        n_pseudo=pseudo.shape[0],
        num_classes=z_values.shape[1],
        p_known_norm=max_row_norm(softmax(known)),
        y_norm=1.0 if known.shape[0] else 0.0,
        z_known_norm=max_row_norm(known),
        p_pseudo_norm=max_row_norm(softmax(pseudo)),
        z_pseudo_norm=max_row_norm(pseudo),
        center_norm=max_row_norm(centers),
        min_class_count=int(present.min()) if present.size else 0,
    )


def fusion_weights_unique(z_views, labels):
    with mock.patch.multiple(
        unfold_net,
        _group_rows=lambda lab: np.unique(lab, return_inverse=True, return_counts=True),
        _pairs=lambda n: np.triu_indices(n, k=1),
    ):
        return unfold_net.fusion_weights(z_views, labels)
