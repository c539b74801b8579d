"""Open-set training losses on the fused code matrix.

Known rows get mean cross-entropy plus an (unaveraged) squared hinge
pushing row norms past the margin; pseudo-unknown rows get a (1/C)-scaled
confidence-flattening cross-entropy over all classes plus their summed
squared norms; a center loss pulls known rows toward per-class centers
that are themselves refreshed by a running rule rather than by gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc


class LossError(ValueError):
    """Loss inputs outside their domain."""


@dataclass(frozen=True)
class LossConfig:
    xi: float = 5.0
    lambda1: float = 0.1
    lambda2: float = 0.1
    center_lr: float = 1.0

    def __post_init__(self) -> None:
        if self.xi < 0 or self.lambda1 < 0 or self.lambda2 < 0:
            raise LossError("xi, lambda1, lambda2 must be non-negative")
        if not 0.0 < self.center_lr <= 1.0:
            raise LossError(f"center_lr must lie in (0, 1], got {self.center_lr}")


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise LossError(f"label out of range [0, {num_classes})")
    return np.eye(num_classes)[labels]


# Each term is a private kernel on a plain array: it returns the 1x1 value
# and a VJP that lists the term's contributions to the gradient of its
# input, in the order a fine-grained graph (`row_log_softmax`,
# `row_l2_norms`, `relu`, ... in `tests/fine_ops.py`) would add them.
# `total_loss` builds the one loss op on the tape from all three.


def _log_softmax(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row log-softmax and the row softmax."""
    shifted = z - z.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    denom = expv.sum(axis=1, keepdims=True)
    return shifted - np.log(denom), expv / denom


def _known_term(z: np.ndarray, labels, xi: float):
    n, c = z.shape
    onehot = _one_hot(labels, c)
    log_p, p = _log_softmax(z)
    ce = np.array([[(onehot * log_p).sum()]]) * (-1.0 / n)
    norms = np.sqrt((z * z).sum(axis=1, keepdims=True))
    shortfall = norms * -1.0 + float(xi)
    hinge = np.maximum(shortfall, 0.0)
    margin = np.array([[(hinge * hinge).sum()]])

    def vjp(g):
        g_sq = np.full_like(hinge, g[0, 0])
        g_hinge = g_sq * hinge
        g_hinge = g_hinge + g_sq * hinge  # both factors of hinge * hinge
        g_norms = (g_hinge * (shortfall > 0.0)) * -1.0
        nonzero = norms > 0.0
        safe = np.where(nonzero, norms, 1.0)
        norm_part = np.where(nonzero, g_norms / safe, 0.0) * z
        g_log_p = np.full_like(log_p, (g * (-1.0 / n))[0, 0]) * onehot
        return [norm_part, g_log_p - p * g_log_p.sum(axis=1, keepdims=True)]

    return ce + margin, vjp


def _unknown_term(z: np.ndarray):
    c = z.shape[1]
    log_p, p = _log_softmax(z)
    flat = np.array([[log_p.sum()]]) * (-1.0 / c)

    def vjp(g):
        g_log_p = np.full_like(log_p, (g * (-1.0 / c))[0, 0])
        return [2.0 * g[0, 0] * z, g_log_p - p * g_log_p.sum(axis=1, keepdims=True)]

    return flat + np.array([[(z * z).sum()]]), vjp


def _center_term(z: np.ndarray, labels, centers: np.ndarray):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= centers.shape[0]):
        raise LossError(f"label out of range [0, {centers.shape[0]})")
    gathered = centers[labels]
    if not np.isfinite(gathered).all():
        raise LossError("centers contain non-finite entries")
    tc.check_same_shape(z, gathered, "total_loss")
    diff = z - gathered

    def vjp(g):
        return [2.0 * (g * 0.5)[0, 0] * diff]

    return np.array([[(diff * diff).sum()]]) * 0.5, vjp


def _class_sums(rows: np.ndarray, labels, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-class sums of `rows`, added onto 0.0 in row order as `np.sum(axis=0)`
    adds them, and per-class row counts."""
    sums = np.zeros((num_classes, rows.shape[1]))
    np.add.at(sums, labels, rows)
    return sums, np.bincount(labels, minlength=num_classes)[:, None]


def class_means(z: np.ndarray, labels, num_classes: int) -> np.ndarray:
    """Mean row of `z` per class; zeros for classes with no rows."""
    sums, counts = _class_sums(z, labels, num_classes)
    return sums / np.maximum(counts, 1)


def update_centers(
    centers: np.ndarray, z_known: np.ndarray, labels, center_lr: float = 1.0
) -> np.ndarray:
    """Running center update c_j <- c_j - lr * sum(c_j - z_i) / (1 + count_j).

    Classes absent from the batch are unchanged. Pure function.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= centers.shape[0]):
        raise LossError(f"label out of range [0, {centers.shape[0]})")
    sums, counts = _class_sums(centers[labels] - z_known, labels, centers.shape[0])
    return np.where(counts > 0, centers - center_lr * (sums / (1.0 + counts)), centers)


def total_loss(
    z_fused,
    labels,
    is_pseudo,
    centers: np.ndarray,
    config: LossConfig,
) -> tuple[tc.DiffNode, dict[str, float]]:
    """Weighted sum of the three losses as one tape op; returns the node
    and the scalar parts.

    Labels of pseudo rows are ignored (they carry the synthetic unknown
    label); known rows must exist. `centers` enter as constants: they are
    refreshed by `update_centers`, not by gradient descent, and non-finite
    centers of the batch's classes raise `LossError`. Calling
    tensor_core.backward on the returned node populates the gradients of
    every bound parameter.
    """
    labels = np.asarray(labels, dtype=np.int64)
    is_pseudo = np.asarray(is_pseudo, dtype=bool)
    known_idx = np.flatnonzero(~is_pseudo)
    pseudo_idx = np.flatnonzero(is_pseudo)
    if known_idx.size == 0:
        raise LossError("total_loss needs at least one known sample in the batch")
    lambda1, lambda2 = float(config.lambda1), float(config.lambda2)
    parts = {"known": 0.0, "unknown": 0.0, "center": 0.0}

    def kernel(z):
        z_known = z[known_idx]
        total, known_vjp = _known_term(z_known, labels[known_idx], config.xi)
        parts["known"] = float(total[0, 0])
        unknown_vjp = center_vjp = None
        if lambda1 > 0 and pseudo_idx.size:
            unk, unknown_vjp = _unknown_term(z[pseudo_idx])
            parts["unknown"] = float(unk[0, 0])
            total = total + unk * lambda1
        if lambda2 > 0:
            cen, center_vjp = _center_term(z_known, labels[known_idx], centers)
            parts["center"] = float(cen[0, 0])
            total = total + cen * lambda2
        parts["total"] = float(total[0, 0])

        def vjp(g):
            # terms in reverse creation order: center, unknown, known
            g_z = np.zeros(z.shape)
            g_known = None
            if center_vjp is not None:
                (g_known,) = center_vjp(g * lambda2)
            if unknown_vjp is not None:
                norm_part, soft_part = unknown_vjp(g * lambda1)
                g_z[pseudo_idx] = norm_part + soft_part
            for part in known_vjp(g):
                g_known = part if g_known is None else g_known + part
            g_z[known_idx] = g_known
            yield 0, g_z

        return total, vjp

    return tc.custom_op(kernel, z_fused), parts


# ---------------------------------------------------------------------------
# gradient-norm bound


@dataclass
class BatchStats:
    """Norm statistics entering the per-sample gradient bound."""

    n_known: int
    n_pseudo: int
    num_classes: int
    p_known_norm: float
    y_norm: float
    z_known_norm: float
    p_pseudo_norm: float
    z_pseudo_norm: float
    center_norm: float
    min_class_count: int


def batch_stats(z_values: np.ndarray, labels, is_pseudo, centers: np.ndarray) -> BatchStats:
    labels = np.asarray(labels, dtype=np.int64)
    is_pseudo = np.asarray(is_pseudo, dtype=bool)
    known = z_values[~is_pseudo]
    pseudo = z_values[is_pseudo]
    known_labels = labels[~is_pseudo]
    counts = np.bincount(known_labels, minlength=centers.shape[0])
    present = counts[counts > 0]
    probs_known = _log_softmax(known)[1] if known.size else np.zeros((0, z_values.shape[1]))
    probs_pseudo = _log_softmax(pseudo)[1] if pseudo.size else np.zeros((0, z_values.shape[1]))

    def max_row_norm(mat):
        if mat.shape[0] == 0:
            return 0.0
        return float(np.max(np.linalg.norm(mat, axis=1)))

    return BatchStats(
        n_known=known.shape[0],
        n_pseudo=pseudo.shape[0],
        num_classes=z_values.shape[1],
        p_known_norm=max_row_norm(probs_known),
        y_norm=1.0 if known.shape[0] else 0.0,
        z_known_norm=max_row_norm(known),
        p_pseudo_norm=max_row_norm(probs_pseudo),
        z_pseudo_norm=max_row_norm(pseudo),
        center_norm=max_row_norm(centers),
        min_class_count=int(present.min()) if present.size else 0,
    )


def gradient_bound(config: LossConfig, stats: BatchStats) -> float:
    """Upper bound on the per-sample norm of dL_total/dz, evaluated termwise.

    Uses batch-maximum norms for every statistic; the center-update
    constant is taken as center_lr over (1 + smallest per-class count).
    """
    n_o = max(stats.n_known, 1)
    c = stats.num_classes
    eps = (
        stats.p_known_norm / n_o
        + stats.y_norm / n_o
        + 2.0 * stats.z_known_norm
        + 2.0 * config.xi
    )
    if stats.n_pseudo:
        eps += config.lambda1 * (stats.p_pseudo_norm / c + 1.0 / c + 2.0 * stats.z_pseudo_norm)
    phi = config.center_lr / (1.0 + stats.min_class_count) if stats.min_class_count else 0.0
    eps += config.lambda2 * (stats.z_known_norm + stats.center_norm + phi)
    return float(eps)


def measured_gradient_norm(z_grad: np.ndarray) -> float:
    """Largest per-row gradient norm, the measured side of the bound."""
    if z_grad.shape[0] == 0:
        return 0.0
    return float(np.max(np.linalg.norm(z_grad, axis=1)))
