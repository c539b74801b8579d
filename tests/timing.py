"""Wall time of one forward+backward pass, for the scaling checks. The package
keeps no timer: perfbench measures wall time end to end and layer by layer."""

import gc
import time

import numpy as np

import openviewer.tensor_core as tc
from openviewer.dataset import Batch
from openviewer.losses import LossConfig, total_loss
from openviewer.unfold_net import forward, init_params


def forward_backward_seconds(n_grid, num_layers=1, seed=0, repeats=5) -> list[float]:
    """Seconds of forward plus `backward(total_loss)` per size in `n_grid` on a 6-class net
    over 16- and 12-column views, initialised for the largest size so deep nets stay finite.
    Each is the minimum over `repeats` passes after one warm-up, with GC off."""
    params = init_params([16, 12], 6, seed=seed, num_layers=num_layers, expected_rows=max(n_grid))
    centers = np.zeros((6, 6))
    seconds = []
    for n in n_grid:
        rng = np.random.default_rng(seed)
        views = [rng.normal(size=(n, d)) for d in params.view_dims]
        labels = rng.integers(0, 6, size=n)
        batch = Batch(views=views, labels=labels, is_pseudo=np.zeros(n, dtype=bool))
        times = []
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for _ in range(repeats + 1):
                t0 = time.perf_counter()
                res = forward(batch, params, labels_for_fusion=labels)
                tc.backward(total_loss(res.z_fused, labels, batch.is_pseudo, centers, LossConfig())[0])
                times.append(time.perf_counter() - t0)
        finally:
            if gc_was_enabled:
                gc.enable()
        seconds.append(min(times[1:]))  # after a warm-up: the least load-sensitive estimate
    return seconds
