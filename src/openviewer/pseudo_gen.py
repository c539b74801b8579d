"""Pseudo-unknown sample generation by cross-class convex mixing.

Each pseudo sample interpolates two batch rows with different labels using
a Beta(omega, omega) coefficient; by default one coefficient is shared
across all views of a sample so the mixed object stays consistent between
views.
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


@dataclass
class MixConfig:
    omega: float = 2.0
    pseudo_ratio: float = 1.0
    unknown_label: int = 0
    per_view_zeta: bool = False

    def validate(self) -> None:
        if self.omega <= 0:
            raise ParameterError(f"omega must be positive, got {self.omega}")
        if not 0.0 < self.pseudo_ratio <= 1.0:
            raise ParameterError(f"pseudo_ratio must lie in (0, 1], got {self.pseudo_ratio}")


def sample_beta(omega: float, rng: np.random.Generator) -> float:
    """Draw Beta(omega, omega) via two Gamma(omega, 1) variates."""
    if omega <= 0:
        raise ParameterError(f"omega must be positive, got {omega}")
    g1 = rng.gamma(omega, 1.0)
    g2 = rng.gamma(omega, 1.0)
    return float(g1 / (g1 + g2))


def generate_pseudo(batch: Batch, config: MixConfig, rng: np.random.Generator) -> Batch:
    """Append ceil(pseudo_ratio * B) mixed rows per view to the batch.

    Source pairs always carry different labels; pseudo rows get
    `config.unknown_label` and raised is_pseudo flags. Draw order per
    pseudo sample is (i, j, zeta...), so generation is reproducible from
    the generator state.
    """
    config.validate()
    labels = batch.labels
    classes = np.unique(labels).tolist()
    if len(classes) < 2:
        raise GenerationError("pseudo generation needs at least 2 distinct classes in the batch")
    b = batch.size
    n_pseudo = math.ceil(config.pseudo_ratio * b)
    n_views = len(batch.views)

    # draws stay per sample to keep the stream order; the mixing is one step
    others = {g: np.flatnonzero(labels != g) for g in classes}
    first = np.empty(n_pseudo, dtype=np.intp)
    second = np.empty(n_pseudo, dtype=np.intp)
    zetas = np.empty((n_pseudo, n_views))
    for k in range(n_pseudo):
        first[k] = rng.integers(b)
        pool = others[labels[first[k]].item()]
        second[k] = pool[rng.integers(pool.size)]
        if config.per_view_zeta:
            zetas[k] = [sample_beta(config.omega, rng) for _ in range(n_views)]
        else:
            zetas[k] = sample_beta(config.omega, rng)
    pseudo_rows = [
        zeta[:, None] * x[first] + (1.0 - zeta[:, None]) * x[second]
        for zeta, x in zip(zetas.T, batch.views)
    ]

    return Batch(
        views=[np.vstack([v, rows]) for v, rows in zip(batch.views, pseudo_rows)],
        labels=np.concatenate([labels, np.full(n_pseudo, config.unknown_label, dtype=np.int64)]),
        is_pseudo=np.concatenate([batch.is_pseudo, np.ones(n_pseudo, dtype=bool)]),
    )
