"""Open-set evaluation and theory diagnostics.

Scoring runs the trained network in inference mode over the test split;
the OSCR curve sweeps a confidence threshold and reports, per threshold,
the correct-classification rate on known-class samples against the
false-positive rate on unknown-class samples. The diagnostic covers the
contraction property of the code-update map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import tensor_core as tc
from .dataset import Batch, MultiViewDataset, OpennessSplit, checked_indices, zscore
from .unfold_net import UnfoldParams, forward, param_key, predict, rf_forward
from .admm_oracle import power_iteration_norm


class MetricError(ValueError):
    """Metric inputs are degenerate (missing known or unknown samples)."""


@dataclass(frozen=True)
class EvalConfig:
    fpr_targets: tuple[float, ...] = (0.005, 0.01, 0.05, 0.1, 0.5)

    def __post_init__(self) -> None:
        if not all(0.0 < t <= 1.0 for t in self.fpr_targets):
            raise MetricError(f"fpr_targets must lie in (0, 1], got {self.fpr_targets}")


class ScoredPrediction(NamedTuple):
    """One scored test row; every field is a plain Python scalar."""
    index: int
    predicted: int
    confidence: float
    true_label: int
    is_unknown_truth: bool


@dataclass
class OscrCurve:
    """The OSCR sweep as three float64 arrays of one length: thresholds
    from high to low, and at each the CCR and FPR at or above it."""

    thresholds: np.ndarray
    ccr: np.ndarray
    fpr: np.ndarray

    @cached_property
    def points(self) -> list[tuple[float, float, float]]:
        """(threshold, ccr, fpr) triples of Python floats, built on first read."""
        return list(zip(self.thresholds.tolist(), self.ccr.tolist(), self.fpr.tolist()))


def score_test_set(
    params: UnfoldParams,
    centers: np.ndarray,
    dataset: MultiViewDataset,
    split: OpennessSplit,
    normalize: bool = True,
    indices=None,
) -> list[ScoredPrediction]:
    """One score per test row, as `score_with_codes`; `centers` is unused."""
    return score_with_codes(params, dataset, split, normalize, indices)[0]


def score_with_codes(
    params: UnfoldParams,
    dataset: MultiViewDataset,
    split: OpennessSplit,
    normalize: bool = True,
    indices=None,
) -> tuple[list[ScoredPrediction], np.ndarray]:
    """Inference-mode forward over the test rows (or `indices`): one score
    per sample, plus the fused codes. Predicted classes are dataset class
    ids; the confidence is the max softmax probability. With `normalize`,
    the rows are standardized by `split.train_idx` (`dataset.zscore`).
    Raises `tc.NumericError` if any fused code is not finite."""
    if dataset.view_dims != params.view_dims:
        raise MetricError(
            f"checkpoint dims {params.view_dims} do not match dataset {dataset.view_dims}"
        )
    known = sorted(split.known_classes)
    if len(known) != params.num_classes:
        raise MetricError(
            f"checkpoint has {params.num_classes} classes, split has {len(known)}"
        )
    rows = checked_indices(split.test_idx if indices is None else indices,
                           dataset.n_samples, "indices", MetricError)
    if normalize:
        views = zscore(dataset, split.train_idx, rows)
    else:
        views = [v[rows] for v in dataset.views]
    batch = Batch(
        views=views,
        labels=dataset.labels[rows],
        is_pseudo=np.zeros(rows.size, dtype=bool),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        fused = forward(batch, params, inference=True).z_fused
    bad = int(np.count_nonzero(~np.isfinite(fused).all(axis=1)))
    if bad:
        raise tc.NumericError(f"fused codes are not finite in {bad} of {rows.size} rows")
    classes, confidence = predict(fused)
    # one Python list per field, then every row in one C-level pass
    labels = batch.labels.tolist()
    cols = (
        rows.tolist(),
        np.asarray(known)[classes].tolist(),
        confidence.tolist(),
        labels,
        map(set(split.unknown_classes).__contains__, labels),
    )
    return list(map(tuple.__new__, repeat(ScoredPrediction), zip(*cols))), fused


def oscr_curve(preds: list[ScoredPrediction]) -> OscrCurve:
    """Threshold sweep over the distinct confidences, high to low.

    The counts at or above each threshold come from sorted confidences
    and `np.searchsorted`; CCR and FPR are those counts divided by the
    number of known and unknown samples."""
    unknown = _column(preds, "is_unknown_truth", bool)
    if unknown.all() or not unknown.any():
        raise MetricError("OSCR needs at least one known-truth and one unknown-truth sample")
    confidence = _column(preds, "confidence", np.float64)
    thresholds = np.unique(confidence)[::-1]

    def share_at_or_above(conf: np.ndarray, total: int) -> np.ndarray:
        ordered = np.sort(conf)
        return (ordered.size - np.searchsorted(ordered, thresholds, side="left")) / total

    correct = ~unknown & (_column(preds, "predicted", int) == _column(preds, "true_label", int))
    ccr = share_at_or_above(confidence[correct], np.count_nonzero(~unknown))
    fpr = share_at_or_above(confidence[unknown], np.count_nonzero(unknown))
    return OscrCurve(thresholds, ccr, fpr)


def ccr_at_fpr(curve: OscrCurve, target_fpr: float) -> float:
    """Largest CCR among curve points with FPR <= target; 0 if none qualify."""
    if not 0.0 < target_fpr <= 1.0:
        raise MetricError(f"target FPR must lie in (0, 1], got {target_fpr}")
    eligible = curve.ccr[curve.fpr <= target_fpr]
    return float(eligible.max()) if eligible.size else 0.0


def summary(curve: OscrCurve, targets=EvalConfig.fpr_targets) -> dict[str, float]:
    return {f"ccr_at_fpr_{t:g}": ccr_at_fpr(curve, t) for t in targets}


def _column(preds: list[ScoredPrediction], name: str, dtype) -> np.ndarray:
    """Field `name` of every row as an array, in one C-level pass."""
    field_of = itemgetter(ScoredPrediction._fields.index(name))
    return np.fromiter(map(field_of, preds), dtype, len(preds))


# ---------------------------------------------------------------------------
# theory diagnostics


@dataclass
class ContractionReport:
    spectral_norm_r: float
    contractive: bool
    max_ratio: float
    trials: int
    passed: bool


def contraction_diagnostic(
    params: UnfoldParams, view: int = 0, trials: int = 1000, seed: int = 0
) -> ContractionReport:
    """Empirically check that layer 1's code-update map shrinks pairs by ||R||_2.

    The shrinkage activation is nonexpansive, so the map contracts whenever
    ||R||_2 < 1; with ||R||_2 >= 1 the report flags "not contractive" but
    still records the observed ratio.
    """
    if trials < 1:
        raise MetricError("trials must be >= 1")
    if params.num_layers < 2:
        raise MetricError("layer 0 has no R: the contraction diagnostic needs >= 2 layers")
    rng = np.random.default_rng(seed)
    d = params.arrays[param_key("d_init", view)]
    r, u, theta = (params.arrays[param_key(kind, 1, view)] for kind in ("r", "u", "theta"))
    norm_r = float(np.sqrt(power_iteration_norm(r.T @ r)))
    c = params.num_classes
    n = 16
    x = rng.normal(size=(n, params.view_dims[view]))

    max_ratio = 0.0
    for _ in range(trials):
        za = rng.normal(size=(n, c)) * rng.uniform(0.1, 5.0)
        zb = rng.normal(size=(n, c)) * rng.uniform(0.1, 5.0)
        fa = rf_forward(za, x, None, d, r, u, theta)
        fb = rf_forward(zb, x, None, d, r, u, theta)
        denom = np.linalg.norm(za - zb)
        if denom == 0.0:
            continue
        max_ratio = max(max_ratio, float(np.linalg.norm(fa - fb) / denom))
    contractive = norm_r < 1.0
    passed = (not contractive) or (max_ratio <= norm_r + 1e-9)
    return ContractionReport(
        spectral_norm_r=norm_r,
        contractive=contractive,
        max_ratio=max_ratio,
        trials=trials,
        passed=passed,
    )
