"""Pseudo-unknown sample generation by cross-class convex mixing.

Each pseudo sample interpolates two batch rows with different labels using
one Beta(omega, omega) coefficient, shared across all views of the sample
so the mixed object stays consistent between views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Batch


class ParameterError(ValueError):
    """Mixing parameter outside its domain."""


class GenerationError(ValueError):
    """Batch cannot support pseudo-sample generation."""


@dataclass(frozen=True)
class MixConfig:
    omega: float = 2.0
    pseudo_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.omega <= 0:
            raise ParameterError(f"omega must be positive, got {self.omega}")
        if not 0.0 < self.pseudo_ratio <= 1.0:
            raise ParameterError(f"pseudo_ratio must lie in (0, 1], got {self.pseudo_ratio}")


def generate_pseudo(
    batch: Batch, config: MixConfig, rng: np.random.Generator, unknown_label: int
) -> Batch:
    """Append ceil(pseudo_ratio * B) mixed rows per view to the batch.

    Source pairs always carry different labels; pseudo rows get
    `unknown_label` and raised is_pseudo flags. Draw order per pseudo
    sample is (i, j, zeta), so generation is reproducible from the
    generator state; zeta = g[0] / (g[0] + g[1]) for g = rng.gamma(omega, 1.0, 2).
    """
    labels = batch.labels
    classes = np.unique(labels).tolist()
    if len(classes) < 2:
        raise GenerationError("pseudo generation needs at least 2 distinct classes in the batch")
    b = batch.size
    n_pseudo = math.ceil(config.pseudo_ratio * b)

    # draws stay per sample to keep the stream order; the mixing is one step
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
