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


@dataclass
class LossConfig:
    xi: float = 5.0
    lambda1: float = 0.1
    lambda2: float = 0.1
    center_lr: float = 1.0

    def validate(self) -> None:
        if self.xi < 0 or self.lambda1 < 0 or self.lambda2 < 0:
            raise LossError("xi, lambda1, lambda2 must be non-negative")
        if not 0.0 < self.center_lr <= 1.0:
            raise LossError(f"center_lr must lie in (0, 1], got {self.center_lr}")


@dataclass
class CenterState:
    """One center vector per known class in the fused code space."""

    centers: np.ndarray

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if not np.all(np.isfinite(self.centers)):
            raise LossError("centers contain non-finite entries")


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise LossError(f"label out of range [0, {num_classes})")
    return np.eye(num_classes)[labels]


def known_loss(z_known: tc.DiffNode, labels, xi: float) -> tc.DiffNode:
    """Mean cross-entropy plus the summed squared norm-margin hinge."""
    n, c = z_known.value.shape
    if n < 1:
        raise LossError("known_loss needs at least one sample")
    onehot = tc.constant(_one_hot(labels, c))
    log_p = tc.row_log_softmax(z_known)
    ce = tc.scale(tc.sum(tc.mul_elem(onehot, log_p)), -1.0 / n)
    hinge = tc.relu(tc.add_scalar(tc.scale(tc.row_l2_norms(z_known), -1.0), xi))
    margin = tc.sum(tc.mul_elem(hinge, hinge))
    return tc.add(ce, margin)


def unknown_loss(z_pseudo: tc.DiffNode) -> tc.DiffNode:
    """Confidence-flattening term plus the summed squared row norms."""
    n, c = z_pseudo.value.shape
    if n < 1:
        raise LossError("unknown_loss needs at least one sample")
    log_p = tc.row_log_softmax(z_pseudo)
    flat = tc.scale(tc.sum(log_p), -1.0 / c)
    return tc.add(flat, tc.frobenius_sq(z_pseudo))


def center_loss(z_known: tc.DiffNode, labels, centers: np.ndarray) -> tc.DiffNode:
    """Half the summed squared distance to each row's class center.

    Centers enter as constants; they are updated by `update_centers`, not
    by gradient descent.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= centers.shape[0]):
        raise LossError(f"label out of range [0, {centers.shape[0]})")
    gathered = tc.constant(centers[labels])
    return tc.scale(tc.frobenius_sq(tc.sub(z_known, gathered)), 0.5)


def update_centers(
    centers: np.ndarray, z_known: np.ndarray, labels, center_lr: float = 1.0
) -> np.ndarray:
    """Running center update c_j <- c_j - lr * sum(c_j - z_i) / (1 + count_j).

    Classes absent from the batch are unchanged. Pure function.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= centers.shape[0]):
        raise LossError(f"label out of range [0, {centers.shape[0]})")
    new = centers.copy()
    for j in np.unique(labels):
        rows = z_known[labels == j]
        delta = np.sum(centers[j] - rows, axis=0) / (1.0 + rows.shape[0])
        new[j] = centers[j] - center_lr * delta
    return new


def total_loss(
    z_fused: tc.DiffNode,
    labels,
    is_pseudo,
    centers: np.ndarray,
    config: LossConfig,
) -> tuple[tc.DiffNode, dict[str, float]]:
    """Weighted sum of the three losses; returns the node and scalar parts.

    Labels of pseudo rows are ignored (they carry the synthetic unknown
    label); known rows must exist. Calling tensor_core.backward on the
    returned node populates the gradients of every bound parameter.
    """
    config.validate()
    labels = np.asarray(labels, dtype=np.int64)
    is_pseudo = np.asarray(is_pseudo, dtype=bool)
    known_idx = np.flatnonzero(~is_pseudo)
    pseudo_idx = np.flatnonzero(is_pseudo)
    if known_idx.size == 0:
        raise LossError("total_loss needs at least one known sample in the batch")

    z_known = tc.take_rows(z_fused, known_idx)
    total = known_loss(z_known, labels[known_idx], config.xi)
    parts = {"known": total.item(), "unknown": 0.0, "center": 0.0}

    if config.lambda1 > 0 and pseudo_idx.size:
        unk = unknown_loss(tc.take_rows(z_fused, pseudo_idx))
        parts["unknown"] = unk.item()
        total = tc.add(total, tc.scale(unk, config.lambda1))
    if config.lambda2 > 0:
        cen = center_loss(z_known, labels[known_idx], centers)
        parts["center"] = cen.item()
        total = tc.add(total, tc.scale(cen, config.lambda2))
    parts["total"] = total.item()
    return total, parts


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


def _row_softmax_values(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    return expv / expv.sum(axis=1, keepdims=True)


def batch_stats(z_values: np.ndarray, labels, is_pseudo, centers: np.ndarray) -> BatchStats:
    labels = np.asarray(labels, dtype=np.int64)
    is_pseudo = np.asarray(is_pseudo, dtype=bool)
    known = z_values[~is_pseudo]
    pseudo = z_values[is_pseudo]
    known_labels = labels[~is_pseudo]
    counts = np.bincount(known_labels, minlength=centers.shape[0])
    present = counts[counts > 0]
    probs_known = _row_softmax_values(known) if known.size else np.zeros((0, z_values.shape[1]))
    probs_pseudo = _row_softmax_values(pseudo) if pseudo.size else np.zeros((0, z_values.shape[1]))

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
