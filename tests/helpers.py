"""Shared builders for the test suite: small planted datasets and the
oracle-replay construction of analytically parameterized networks."""

from __future__ import annotations

import numpy as np

from openviewer import admm_oracle, synthgen
from openviewer.dataset import Batch
from openviewer.unfold_net import UnfoldParams


def small_spec(**overrides) -> synthgen.SynthSpec:
    base = dict(
        classes=5,
        samples_per_class=8,
        views=2,
        dims=(12, 10),
        sep_scale=5.0,
        noise_col_frac=0.1,
        noise_magnitude=1.0,
        jitter=0.1,
        seed=7,
    )
    base.update(overrides)
    return synthgen.SynthSpec(**base)


def batch_from_dataset(dataset, rows) -> Batch:
    rows = np.asarray(rows, dtype=np.intp)
    return Batch(
        views=[v[rows] for v in dataset.views],
        labels=dataset.labels[rows],
        is_pseudo=np.zeros(rows.size, dtype=bool),
    )


def analytic_params_from_oracle(
    x_views, config: admm_oracle.AdmmConfig, code_dim: int, num_layers: int
):
    """Replay the alternating solver, harvesting the closed-form layer
    parameters it implies, and return (params, per-iteration snapshots).

    Layer l uses R/U/theta from the pre-iteration dictionaries, M from the
    freshly updated codes, and rho from the post-refresh step constant, so
    an L-layer forward of the returned params must reproduce the codes of
    L solver iterations and the dictionaries and noise of the first L - 1.
    As in the network, layer 0 has no R and the last layer no M or rho.
    """
    state = admm_oracle.init_state(x_views, config, code_dim)
    arrays = {f"d_init/{v}": d.copy() for v, d in enumerate(state.d)}
    eye = np.eye(code_dim)
    snapshots = []
    for l in range(num_layers):
        last = l == num_layers - 1
        for v, (d, lp) in enumerate(zip(state.d, state.l_p)):
            if l > 0:
                arrays[f"r/{l}/{v}"] = eye - (d @ d.T) / lp
            arrays[f"u/{l}/{v}"] = eye / lp
            arrays[f"theta/{l}/{v}"] = np.array([[config.alpha / lp]])
        state = admm_oracle.z_step(state, x_views, config)
        if not last:
            for v, z in enumerate(state.z):
                arrays[f"m/{l}/{v}"] = np.linalg.inv(z.T @ z + config.beta * eye)
        state = admm_oracle.d_step(state, x_views, config)
        if not last:
            for v, lp in enumerate(state.l_p):
                arrays[f"rho/{l}/{v}"] = np.array([[config.gamma / lp]])
        state = admm_oracle.e_step(state, x_views, config)
        snapshots.append(
            {
                "z": [z.copy() for z in state.z],
                "d": [d.copy() for d in state.d],
                "e": [e.copy() for e in state.e],
            }
        )
    params = UnfoldParams(
        view_dims=[x.shape[1] for x in x_views],
        num_classes=code_dim,
        num_layers=num_layers,
        arrays=arrays,
        ablation="full",
    )
    return params, snapshots


# ---------------------------------------------------------------------------
# canonical open-set benchmark (fixtures/benchmark.json)

import json
from pathlib import Path

from openviewer.dataset import MultiViewDataset, openness_split
from openviewer.losses import LossConfig
from openviewer.pseudo_gen import MixConfig
from openviewer.trainer import TrainConfig

FIXTURES = Path(__file__).parent / "fixtures"


def load_benchmark_fixture() -> dict:
    return json.loads((FIXTURES / "benchmark.json").read_text())


def make_openset_benchmark(seed: int, data_cfg: dict | None = None):
    """Planted benchmark: known classes on orthonormal dictionary rows,
    unknown classes as unbalanced blends of two known classes, shared noise
    columns across all samples. Returns (dataset, split)."""
    cfg = data_cfg or load_benchmark_fixture()["data"]
    classes, spc = cfg["classes"], cfg["samples_per_class"]
    dims = tuple(cfg["dims"])
    s, jitter, m = cfg["sep_scale"], cfg["jitter"], cfg["noise_magnitude"]
    n = classes * spc
    labels = np.repeat(np.arange(classes), spc)
    provisional = MultiViewDataset(
        views=[np.zeros((n, 1))], labels=labels, class_count=classes
    )
    split = openness_split(provisional, cfg["openness"], tuple(cfg["ratios"]), seed=seed)
    known = sorted(split.known_classes)
    rng = np.random.default_rng([seed, 777])
    code_dim = len(known)
    kmap = {c: i for i, c in enumerate(known)}
    z = np.zeros((n, code_dim))
    for c in range(classes):
        rows = labels == c
        if c in kmap:
            z[rows, kmap[c]] = s
        else:
            a, b = rng.choice(code_dim, size=2, replace=False)
            zeta = rng.uniform(cfg["blend_lo"], cfg["blend_hi"])
            z[rows, a] = s * zeta
            z[rows, b] = s * (1.0 - zeta)
    z = z + rng.normal(scale=jitter, size=z.shape)
    views = []
    for dim in dims:
        gauss = rng.normal(size=(dim, code_dim))
        q, _ = np.linalg.qr(gauss)
        d = q[:, :code_dim].T
        n_noise = int(round(cfg["noise_col_frac"] * dim))
        cols = rng.choice(dim, size=n_noise, replace=False)
        e = np.zeros((n, dim))
        e[:, cols] = m * rng.choice([-1.0, 1.0], size=(n, n_noise))
        views.append(z @ d + e + rng.normal(scale=jitter, size=(n, dim)))
    dataset = MultiViewDataset(views=views, labels=labels, class_count=classes)
    return dataset, split


def benchmark_train_config(seed: int, ablation: str = "full",
                           lambda1: float | None = None) -> TrainConfig:
    raw = load_benchmark_fixture()["train"]
    loss = LossConfig(**raw["loss"])
    if lambda1 is not None:
        loss.lambda1 = lambda1
    from openviewer.admm_oracle import AdmmConfig

    return TrainConfig(
        epochs=raw["epochs"],
        batch_size=raw["batch_size"],
        learning_rate=raw["learning_rate"],
        layers=raw["layers"],
        seed=seed,
        mix=MixConfig(**raw["mix"]),
        loss=loss,
        admm=AdmmConfig(**raw["admm"]),
        ablation=ablation,
        normalize=raw["normalize"],
        warm_start=raw["warm_start"],
        threshold_step_scale=raw["threshold_step_scale"],
    )
