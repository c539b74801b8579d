"""Training loop: batches, pseudo-sample generation, forward, loss, plain
gradient descent, running center updates, and JSON checkpointing.

Every batch also evaluates the per-sample gradient-norm bound against the
measured gradient of the fused code and aborts if the bound is violated,
so a completed run certifies the bound held throughout.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import CHECKPOINT_SCHEMA_VERSION
from . import tensor_core as tc
from ._io import atomic_write_text, canonical_json, float_repr
from .admm_oracle import AdmmConfig
from .dataset import MultiViewDataset, OpennessSplit, SplitError, checked_indices, make_batches
from .dataset import zscore
from .losses import (
    LossConfig,
    batch_stats,
    class_means,
    gradient_bound,
    measured_gradient_norm,
    total_loss,
    update_centers,
)
from .pseudo_gen import GenerationError, MixConfig, generate_pseudo
from .unfold_net import UnfoldParams, forward, init_params, params_from_dict, params_to_dict
from .unfold_net import _checked

logger = logging.getLogger(__name__)

# rng substream tags; epochs tag the shuffle stream directly and stay far
# below these offsets
_BETA_STREAM = 1 << 20
_INIT_STREAM = (1 << 20) + 1

EMA_DECAY = 0.9


class TrainerError(RuntimeError):
    """Training aborted: bad configuration or a failed runtime guarantee."""


class CheckpointError(ValueError):
    """Checkpoint file is unreadable or incompatible."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 50
    learning_rate: float = 0.01
    layers: int = 1
    seed: int = 0
    mix: MixConfig = field(default_factory=MixConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    admm: AdmmConfig = field(default_factory=AdmmConfig)
    ablation: str = "full"
    normalize: bool = True
    warm_start: bool = False  # only False: kept because existing configs still set it
    threshold_step_scale: float | None = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise TrainerError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate < 0:
            raise TrainerError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 2:
            raise TrainerError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.layers < 1:
            raise TrainerError(f"layers must be >= 1, got {self.layers}")
        if self.warm_start:
            raise TrainerError("warm_start must be false: training starts from the analytic init")


@dataclass
class EpochStats:
    epoch: int
    total: float
    known: float
    unknown: float
    center: float
    fusion_ema: list[float]
    bound_margin: float
    wall_time: float


@dataclass
class TrainLog:
    epochs: list[EpochStats] = field(default_factory=list)

    def to_csv(self) -> str:
        if not self.epochs:
            return "epoch\n"
        n_views = len(self.epochs[0].fusion_ema)
        ema_cols = [f"ema_w{v}" for v in range(n_views)]
        header = ["epoch", "total_loss", "known_loss", "unknown_loss", "center_loss"]
        header += ema_cols + ["bound_margin", "time_s"]
        lines = [",".join(header)]
        for e in self.epochs:
            row = [str(e.epoch)]
            row += [float_repr(x) for x in (e.total, e.known, e.unknown, e.center)]
            row += [float_repr(w) for w in e.fusion_ema]
            row += [float_repr(e.bound_margin), float_repr(e.wall_time)]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def step_preconditioner(params: UnfoldParams, threshold_step_scale: float | None = None) -> dict[str, float]:
    """Constant per-parameter step scaling fixed at initialization.

    The parameter kinds live on very different natural scales (the
    dictionary-refresh matrix is ~1/(beta + batch rows) while the code-mix
    matrices are ~1), so a single global learning rate cannot serve all of
    them: scaling each kind's step by the square of its initial magnitude
    is equivalent to running plain descent on unit-scale reparameterized
    variables. Thresholds default to the same rule; pass
    `threshold_step_scale` to let them travel across their operating range.
    """
    scales: dict[str, float] = {}
    for name, value in params.arrays.items():
        if name.startswith(("theta/", "rho/")):
            scales[name] = (
                threshold_step_scale
                if threshold_step_scale is not None
                else max(float(value[0, 0]), 1e-3) ** 2
            )
        elif name.startswith(("u/", "m/")):
            scales[name] = float(value[0, 0]) ** 2
        else:
            scales[name] = 1.0
    return scales


def sgd_step(params: UnfoldParams, gradients: dict[str, np.ndarray], eta: float) -> UnfoldParams:
    """Plain descent step; thresholds are clamped back to >= 0 afterward."""
    for name, grad in gradients.items():
        target = params.arrays.get(name)
        if target is None:
            raise TrainerError(f"unknown parameter name {name!r}")
        if target.shape != grad.shape:
            raise TrainerError(f"gradient shape {grad.shape} mismatches {name} {target.shape}")
        target -= eta * grad
    for name, value in params.arrays.items():
        if name.startswith(("theta/", "rho/")):
            np.maximum(value, 0.0, out=value)
    return params


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(
    dataset: MultiViewDataset, split: OpennessSplit, config: TrainConfig
) -> tuple[UnfoldParams, np.ndarray, TrainLog]:
    """Run the full loop; deterministic given the config seed. Returns the
    parameters, the float64 classes x classes centers and the log.

    The split is checked against `dataset` first (`SplitError`). Every batch
    checks the forward, the loss and the stepped parameters for finiteness
    (naming the epoch and batch), so numpy's overflow warnings stay silenced.
    """
    known = checked_indices(split.known_classes, dataset.class_count, "split.known_classes")
    if np.unique(known).size != known.size:
        raise SplitError(f"split.known_classes: repeated entries in {known.tolist()}")
    if len(known) < 2:
        raise TrainerError("training needs at least 2 known classes")
    num_classes = len(known)
    # class id -> training label; -1 for classes outside the split's known set
    lut = np.full(dataset.class_count, -1, dtype=np.int64)
    lut[np.sort(known)] = np.arange(num_classes)
    rows = checked_indices(split.train_idx, dataset.n_samples, "split.train_idx")
    stray = rows[lut[dataset.labels[rows]] < 0]
    if stray.size:
        raise SplitError(f"split.train_idx: {stray.size} of {rows.size} rows are not of a "
                         f"class in split.known_classes, first {stray[:5].tolist()}")

    work = replace(dataset, views=zscore(dataset, rows)) if config.normalize else dataset

    expected_rows = config.batch_size + math.ceil(
        config.mix.pseudo_ratio * config.batch_size
    )
    params = init_params(
        work.view_dims,
        num_classes,
        config.admm,
        seed=[config.seed, _INIT_STREAM],
        num_layers=config.layers,
        ablation=config.ablation,
        expected_rows=expected_rows,
    )
    beta_rng = np.random.default_rng([config.seed, _BETA_STREAM])
    scales = step_preconditioner(params, config.threshold_step_scale)

    centers: np.ndarray | None = None
    ema: np.ndarray | None = None
    log = TrainLog()

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        sums = {"total": 0.0, "known": 0.0, "unknown": 0.0, "center": 0.0}
        margin = np.inf
        batches = make_batches(work, split, config.batch_size, seed=config.seed, epoch=epoch)
        if not batches:
            raise TrainerError("split has no training samples")
        for b_idx, batch in enumerate(batches):
            batch.labels = lut[batch.labels]
            try:
                combined = generate_pseudo(batch, config.mix, beta_rng, num_classes)
            except GenerationError as exc:
                logger.warning("epoch %d batch %d: %s; skipping pseudo rows", epoch, b_idx, exc)
                combined = batch

            try:
                res = forward(combined, params, labels_for_fusion=combined.labels)
            except (tc.DomainError, tc.NumericError) as exc:
                raise TrainerError(
                    f"non-finite forward at epoch {epoch} batch {b_idx}: {exc}"
                ) from exc
            known_rows = ~combined.is_pseudo
            if centers is None:
                centers = class_means(
                    res.z_fused.value[known_rows], combined.labels[known_rows], num_classes
                )

            node, parts = total_loss(
                res.z_fused, combined.labels, combined.is_pseudo, centers, config.loss
            )
            if not np.isfinite(parts["total"]):
                raise TrainerError(
                    f"non-finite loss at epoch {epoch} batch {b_idx}: {parts}"
                )
            tc.backward(node)

            stats = batch_stats(res.z_fused.value, combined.labels, combined.is_pseudo, centers)
            bound = gradient_bound(config.loss, stats)
            measured = measured_gradient_norm(res.z_fused.grad)
            if measured > bound:
                raise TrainerError(
                    f"gradient bound violated at epoch {epoch} batch {b_idx}: "
                    f"{measured:.6g} > {bound:.6g}"
                )
            margin = min(margin, bound - measured)

            grads = {name: n.grad * scales[name] for name, n in res.param_nodes.items()}
            sgd_step(params, grads, config.learning_rate)
            for name, value in params.arrays.items():
                if not np.isfinite(value).all():
                    raise TrainerError(f"non-finite {name} after epoch {epoch} batch {b_idx}")
            centers = update_centers(
                centers,
                res.z_fused.value[known_rows],
                combined.labels[known_rows],
                config.loss.center_lr,
            )
            ema = res.weights if ema is None else EMA_DECAY * ema + (1 - EMA_DECAY) * res.weights
            for key in sums:
                sums[key] += parts[key]

        n_batches = max(len(batches), 1)
        log.epochs.append(
            EpochStats(
                epoch=epoch,
                total=sums["total"] / n_batches,
                known=sums["known"] / n_batches,
                unknown=sums["unknown"] / n_batches,
                center=sums["center"] / n_batches,
                fusion_ema=[float(w) for w in ema],
                bound_margin=float(margin),
                wall_time=time.perf_counter() - t0,
            )
        )

    params.fusion_weights_snapshot = ema / ema.sum()
    return params, centers, log


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(
    params: UnfoldParams, centers: np.ndarray, config: TrainConfig, path
) -> None:
    payload = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "params": params_to_dict(params),
        "centers": centers.tolist(),
        "config": asdict(config),
    }
    atomic_write_text(path, canonical_json(payload))


def load_checkpoint(path) -> tuple[UnfoldParams, np.ndarray, dict]:
    import json

    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"checkpoint {path} must hold a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {path}: schema {version!r} does not match supported "
            f"{CHECKPOINT_SCHEMA_VERSION!r}"
        )
    try:
        params = params_from_dict(payload["params"])
        centers = _checked("centers", payload["centers"], (params.num_classes,) * 2)
        config = payload["config"]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"checkpoint {path} is missing fields: {exc}") from exc
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc
    return params, centers, config
