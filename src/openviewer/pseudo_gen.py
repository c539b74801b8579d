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

    def pseudo_rows(self, batch_rows: int) -> int:
        """The pseudo rows mixed into a batch of `batch_rows`: pseudo_ratio of it, rounded up."""
        return math.ceil(self.pseudo_ratio * batch_rows)


def generate_pseudo(
    batch: Batch, config: MixConfig, rng: np.random.Generator, unknown_label: int
) -> Batch:
    """Append `config.pseudo_rows(B)` mixed rows per view to the batch.

    Source pairs always carry different labels; pseudo rows get
    `unknown_label` and raised is_pseudo flags. Draw order per pseudo
    sample is (i, j, zeta), so generation is reproducible from the
    generator state; zeta = g[0] / (g[0] + g[1]) for g = rng.gamma(omega, 1.0, 2).
    """
    labels = batch.labels
    label_list = labels.tolist()
    classes = set(label_list)
    if len(classes) < 2:
        raise GenerationError("pseudo generation needs at least 2 distinct classes in the batch")
    b = batch.size
    n_pseudo = config.pseudo_rows(b)

    # draws stay per sample to keep the stream order, read through Python
    # lists; the mixing is one step
    others = {g: np.flatnonzero(labels != g).tolist() for g in classes}
    first, second, zetas = [], [], []
    for _ in range(n_pseudo):
        i = rng.integers(b)
        pool = others[label_list[i]]
        first.append(i)
        second.append(pool[rng.integers(len(pool))])
        g0, g1 = rng.gamma(config.omega, 1.0, 2).tolist()
        zetas.append(g0 / (g0 + g1))
    zetas = np.array(zetas).reshape(-1, 1)
    first, second = np.array(first, dtype=np.intp), np.array(second, dtype=np.intp)
    pseudo_rows = [zetas * x[first] + (1.0 - zetas) * x[second] for x in batch.views]

    return Batch(
        views=[np.vstack([v, rows]) for v, rows in zip(batch.views, pseudo_rows)],
        labels=np.concatenate([labels, np.full(n_pseudo, unknown_label, dtype=np.int64)]),
        is_pseudo=np.concatenate([batch.is_pseudo, np.ones(n_pseudo, dtype=bool)]),
    )
