"""Workload parameters and the benchmark's own input generator.

The parameters are copied here on purpose: an edit to a test fixture, or a
move of the test helpers' generator into the package, must not change what
the benchmark measures.

Every generator draws its planted factors (dictionaries, noise columns,
blend pairs and coefficients) from a seed stream that does not depend on
any row count, and draws rows from separate streams afterwards. A
training set and a much larger evaluation set built from the same seed
therefore share one set of factors, so a model trained on the first is
scored on data from the same distribution.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from openviewer.admm_oracle import AdmmConfig
from openviewer.dataset import MultiViewDataset, OpennessSplit, openness_split
from openviewer.losses import LossConfig
from openviewer.pseudo_gen import MixConfig
from openviewer.trainer import TrainConfig

# Canonical open-set data (values of tests/fixtures/benchmark.json at the
# time the benchmark was defined).
OPENSET = {
    "classes": 7,
    "samples_per_class": 60,
    "dims": (24, 20),
    "sep_scale": 2.0,
    "noise_col_frac": 0.2,
    "noise_magnitude": 1.5,
    "jitter": 0.1,
    "blend_lo": 0.7,
    "blend_hi": 0.8,
    "openness": 0.1,
    "ratios": (0.3, 0.1, 0.6),
}

# Canonical training configuration (same source).
TRAIN = {
    "epochs": 300,
    "batch_size": 50,
    "learning_rate": 0.03,
    "layers": 2,
    "normalize": False,
    "warm_start": False,
    "threshold_step_scale": 0.02,
    "mix": {"omega": 2.0, "pseudo_ratio": 1.0},
    "loss": {"xi": 0.6, "lambda1": 0.3, "lambda2": 0.1, "center_lr": 1.0},
    "admm": {"alpha": 0.01, "beta": 0.1, "gamma": 10.0},
}

# Held-out evaluation set: 7 x 3000 = 21,000 rows, scored in chunks of the
# canonical test-split size (about 300 rows).
EVAL_PER_CLASS = 3000
EVAL_CHUNK = 300

# Planted recovery set for the reference solver: the instance the solver
# defaults were calibrated on (data section of admm_defaults.json). With
# 400 rows per class the same settings keep the reconstruction error near
# 0.002 but no longer isolate the noise columns (support F1 about 0.2).
ORACLE = {
    "classes": 5,
    "samples_per_class": 40,
    "dims": (40, 40),
    "sep_scale": 5.0,
    "noise_col_frac": 0.1,
    "noise_magnitude": 1.0,
}

# Solver settings: the AdmmConfig defaults pinned by admm_defaults.json.
ORACLE_SOLVER = {
    "alpha": 0.02,
    "beta": 0.1,
    "gamma": 4.0,
    "max_iter": 300,
    "tol": 1e-08,
    "seed": 0,
    "exact_e_prox": False,
    "group_axis": "columns",
}

CCR_FPR = 0.1

# Canonical instances. Training always uses seed 1 for data, split and
# trainer, because the canonical configuration diverges (the trainer aborts
# on a non-finite loss or forward pass) on about one draw in six: 6 of 32
# data seeds and 7 of 40 trainer seeds measured. The solver always gets
# planted instance 0 with solver seed 0, because those defaults miss the
# noise-column support (F1 < 0.9) on about one draw in forty, over
# instances and over solver seeds alike. The workload seed varies what
# cannot make either fail: the held-out rows and their chunking, and the
# row order of the solver's instance, to which the solver is equivariant.
CANONICAL_SEED = 1
ORACLE_INSTANCE = 0
# CCR@FPR=10% of the canonical run on its own test split, scored as one
# batch; train_canonical checks every run against it.
CANONICAL_CCR_FPR10 = 0.5777777777777777

# seed-stream tags: factors first, then rows per set, then the eval order
_FACTORS, _TRAIN_ROWS, _EVAL_ROWS, _EVAL_ORDER = 101, 102, 103, 104
_ORACLE_FACTORS, _ORACLE_ROWS, _ORACLE_ORDER = 201, 202, 203


def train_config() -> TrainConfig:
    """The canonical training configuration."""
    return TrainConfig(
        epochs=TRAIN["epochs"],
        batch_size=TRAIN["batch_size"],
        learning_rate=TRAIN["learning_rate"],
        layers=TRAIN["layers"],
        seed=CANONICAL_SEED,
        mix=MixConfig(**TRAIN["mix"]),
        loss=LossConfig(**TRAIN["loss"]),
        admm=AdmmConfig(**TRAIN["admm"]),
        normalize=TRAIN["normalize"],
        warm_start=TRAIN["warm_start"],
        threshold_step_scale=TRAIN["threshold_step_scale"],
    )


def _orthonormal_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(cols, rows)))
    return q[:, :rows].T.copy()


class OpenSetFactors:
    """Planted class codes, dictionaries and noise columns of one seed."""

    def __init__(self, seed: int, known: list[int]):
        cfg = OPENSET
        rng = np.random.default_rng([seed, _FACTORS])
        code_dim = len(known)
        kmap = {c: i for i, c in enumerate(known)}
        s = cfg["sep_scale"]
        self.class_codes = np.zeros((cfg["classes"], code_dim))
        for c in range(cfg["classes"]):
            if c in kmap:
                self.class_codes[c, kmap[c]] = s
            else:
                a, b = rng.choice(code_dim, size=2, replace=False)
                zeta = rng.uniform(cfg["blend_lo"], cfg["blend_hi"])
                self.class_codes[c, a] = s * zeta
                self.class_codes[c, b] = s * (1.0 - zeta)
        self.dictionaries = []
        self.noise_columns = []
        for dim in cfg["dims"]:
            self.dictionaries.append(_orthonormal_rows(rng, code_dim, dim))
            n_noise = int(round(cfg["noise_col_frac"] * dim))
            self.noise_columns.append(np.sort(rng.choice(dim, size=n_noise, replace=False)))

    def rows(self, labels: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
        cfg = OPENSET
        n = labels.size
        z = self.class_codes[labels] + rng.normal(scale=cfg["jitter"], size=(n, self.class_codes.shape[1]))
        views = []
        for d, cols in zip(self.dictionaries, self.noise_columns):
            dim = d.shape[1]
            e = np.zeros((n, dim))
            e[:, cols] = cfg["noise_magnitude"] * rng.choice([-1.0, 1.0], size=(n, cols.size))
            views.append(z @ d + e + rng.normal(scale=cfg["jitter"], size=(n, dim)))
        return views


def openset_train() -> tuple[MultiViewDataset, OpennessSplit, OpenSetFactors]:
    """The canonical training data (7 classes x 60 rows) and its split."""
    cfg = OPENSET
    labels = np.repeat(np.arange(cfg["classes"]), cfg["samples_per_class"])
    # The split picks known classes and stratifies row indices; it reads
    # only the labels, so it can run before the rows exist.
    provisional = MultiViewDataset(views=[np.zeros((labels.size, 1))], labels=labels,
                                   class_count=cfg["classes"])
    split = openness_split(provisional, cfg["openness"], cfg["ratios"], seed=CANONICAL_SEED)
    factors = OpenSetFactors(CANONICAL_SEED, sorted(split.known_classes))
    views = factors.rows(labels, np.random.default_rng([CANONICAL_SEED, _TRAIN_ROWS]))
    dataset = MultiViewDataset(views=views, labels=labels, class_count=cfg["classes"])
    return dataset, split, factors


def openset_eval(seed: int, split: OpennessSplit, factors: OpenSetFactors):
    """A held-out set drawn from `factors` with rows from `seed`, its split
    record and the seeded row chunks."""
    cfg = OPENSET
    labels = np.repeat(np.arange(cfg["classes"]), EVAL_PER_CLASS)
    views = factors.rows(labels, np.random.default_rng([seed, _EVAL_ROWS]))
    dataset = MultiViewDataset(views=views, labels=labels, class_count=cfg["classes"])
    # Rows come sorted by class; scores depend on which rows share a batch,
    # so chunks are cut from a seeded shuffle, never from the sorted order.
    order = np.random.default_rng([seed, _EVAL_ORDER]).permutation(labels.size)
    chunks = [order[i : i + EVAL_CHUNK] for i in range(0, order.size, EVAL_CHUNK)]
    eval_split = OpennessSplit(
        known_classes=list(split.known_classes),
        unknown_classes=list(split.unknown_classes),
        train_idx=[],
        val_idx=[],
        test_idx=order.tolist(),
        openness_requested=split.openness_requested,
        openness_achieved=split.openness_achieved,
        seed=split.seed,
    )
    return dataset, eval_split, chunks


def _csv(mat: np.ndarray) -> str:
    return "\n".join(",".join(repr(float(x)) for x in row) for row in mat) + "\n"


def write_oracle_inputs(seed: int, out: Path) -> dict:
    """Write a planted CSV manifest and solver config; return the truth.

    X_v = Z* D_v* + E_v*, with Z* scaled class one-hots, D_v* orthonormal
    rows and E_v* random signs on a fixed subset of noise columns. The
    instance is always ORACLE_INSTANCE; `seed` shuffles its rows.
    """
    cfg = ORACLE
    classes, spc = cfg["classes"], cfg["samples_per_class"]
    factor_rng = np.random.default_rng([ORACLE_INSTANCE, _ORACLE_FACTORS])
    dictionaries, noise_columns = [], []
    for dim in cfg["dims"]:
        dictionaries.append(_orthonormal_rows(factor_rng, classes, dim))
        n_noise = int(round(cfg["noise_col_frac"] * dim))
        noise_columns.append(np.sort(factor_rng.choice(dim, size=n_noise, replace=False)))

    row_rng = np.random.default_rng([ORACLE_INSTANCE, _ORACLE_ROWS])
    order = np.random.default_rng([seed, _ORACLE_ORDER]).permutation(classes * spc)
    labels = np.repeat(np.arange(classes), spc)
    z = cfg["sep_scale"] * np.eye(classes)[labels]
    out.mkdir(parents=True, exist_ok=True)
    views, names = [], []
    for v, (d, cols) in enumerate(zip(dictionaries, noise_columns)):
        e = np.zeros((labels.size, d.shape[1]))
        e[:, cols] = cfg["noise_magnitude"] * row_rng.choice([-1.0, 1.0], size=(labels.size, cols.size))
        x = (z @ d + e)[order]
        names.append(f"view_{v}.csv")
        (out / names[-1]).write_text(_csv(x))
        views.append(x)
    (out / "labels.csv").write_text("\n".join(str(c) for c in labels[order]) + "\n")
    (out / "manifest.json").write_text(
        json.dumps({"views": names, "labels": "labels.csv", "name": f"oracle-{ORACLE_INSTANCE}-{seed}"})
    )
    (out / "config.json").write_text(json.dumps({"oracle": ORACLE_SOLVER}))
    return {"views": views, "noise_columns": noise_columns}
