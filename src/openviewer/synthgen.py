"""Planted multi-view data generation.

Each view is produced from the decomposition the solver and network assume:
X_v = Z* D_v* + E_v* (+ Gaussian jitter), where Z* rows are scaled class
one-hots, D_v* has orthonormal rows, and E_v* concentrates on a fixed
subset of noise columns. The planted factors are returned alongside the
dataset so recovery can be scored exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import MultiViewDataset


@dataclass(frozen=True)
class SynthSpec:
    classes: int = 7
    samples_per_class: int = 40
    views: int = 2
    dims: tuple[int, ...] = (24, 20)
    sep_scale: float = 5.0
    noise_col_frac: float = 0.1
    noise_magnitude: float = 1.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.classes < 3:
            raise ValueError("need at least 3 classes")
        if self.samples_per_class < 2:
            raise ValueError("need at least 2 samples per class")
        if len(self.dims) != self.views:
            raise ValueError(f"dims has {len(self.dims)} entries for {self.views} views")
        if any(d < self.classes for d in self.dims):
            raise ValueError("every view dim must be >= the class count (orthonormal rows)")
        if not 0.0 <= self.noise_col_frac <= 0.5:
            raise ValueError("noise_col_frac must lie in [0, 0.5]")
        if self.sep_scale <= 0 or self.noise_magnitude < 0 or self.jitter < 0:
            raise ValueError("scales must be non-negative (sep_scale positive)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class PlantedFactors:
    z: np.ndarray
    d: list[np.ndarray] = field(default_factory=list)
    e: list[np.ndarray] = field(default_factory=list)
    noise_columns: list[np.ndarray] = field(default_factory=list)


def _orthonormal_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    gauss = rng.normal(size=(cols, rows))
    q, _ = np.linalg.qr(gauss)
    return q[:, :rows].T.copy()


def generate(spec: SynthSpec) -> tuple[MultiViewDataset, PlantedFactors]:
    """Build the planted dataset and its ground-truth factors."""
    n = spec.classes * spec.samples_per_class
    labels = np.repeat(np.arange(spec.classes), spec.samples_per_class)

    root = np.random.SeedSequence(spec.seed)
    z_seq, *view_seqs = root.spawn(1 + spec.views)

    z_rng = np.random.default_rng(z_seq)
    z_true = spec.sep_scale * np.eye(spec.classes)[labels]
    if spec.jitter > 0:
        z_true = z_true + z_rng.normal(scale=spec.jitter, size=z_true.shape)

    views, d_true, e_true, noise_cols = [], [], [], []
    for dim, seq in zip(spec.dims, view_seqs):
        rng = np.random.default_rng(seq)
        dv = _orthonormal_rows(rng, spec.classes, dim)
        n_noise = int(round(spec.noise_col_frac * dim))
        cols = np.sort(rng.choice(dim, size=n_noise, replace=False))
        ev = np.zeros((n, dim))
        if n_noise:
            signs = rng.choice([-1.0, 1.0], size=(n, n_noise))
            ev[:, cols] = spec.noise_magnitude * signs
        xv = z_true @ dv + ev
        if spec.jitter > 0:
            xv = xv + rng.normal(scale=spec.jitter, size=xv.shape)
        views.append(xv)
        d_true.append(dv)
        e_true.append(ev)
        noise_cols.append(cols)

    dataset = MultiViewDataset(views=views, labels=labels, class_count=spec.classes)
    planted = PlantedFactors(z=z_true, d=d_true, e=e_true, noise_columns=noise_cols)
    return dataset, planted
