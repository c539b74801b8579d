"""End-to-end coverage of the documented config alternatives."""

import json

import numpy as np

from openviewer import evaluation as ev
from openviewer import synthgen, trainer
from openviewer.cli import main
from openviewer.dataset import openness_split
from openviewer.pseudo_gen import MixConfig
from openviewer.unfold_net import forward, init_params

from helpers import batch_from_dataset, small_spec
from test_trainer import quick_config, tiny_run_inputs


def test_pseudo_ratio_below_one():
    dataset, split = tiny_run_inputs()
    cfg = quick_config(mix=MixConfig(pseudo_ratio=0.25))
    _, _, log = trainer.train(dataset, split, cfg)
    assert np.isfinite(log.epochs[-1].total)


def test_normalized_pipeline_roundtrip():
    dataset, split = tiny_run_inputs()
    cfg = quick_config(normalize=True, learning_rate=0.01)
    params, centers, _ = trainer.train(dataset, split, cfg)
    preds = ev.score_test_set(params, centers, dataset, split, normalize=True)
    assert len(preds) == len(split.test_idx)
    curve = ev.oscr_curve(preds)
    assert ev.ccr_at_fpr(curve, 0.5) >= 0.0


def test_truncated_forward_layers():
    dataset, _ = synthgen.generate(small_spec())
    batch = batch_from_dataset(dataset, range(6))
    # a 1-layer net is the first layer of a deeper net built from the same seed
    res1 = forward(batch, init_params(dataset.view_dims, dataset.class_count, seed=5))
    res3 = forward(batch, init_params(dataset.view_dims, dataset.class_count, seed=5,
                                      num_layers=3))
    assert len(res1.trace) == 1
    assert len(res3.trace) == 3
    assert np.array_equal(res1.trace[0].z[0], res3.trace[0].z[0])


def test_split_ratio_flag(tmp_path):
    config = {
        "synth": {
            "classes": 4, "samples_per_class": 10, "views": 1, "dims": [8],
            "sep_scale": 1.0, "noise_col_frac": 0.0, "noise_magnitude": 0.0,
            "jitter": 0.0, "seed": 2,
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    data_dir = tmp_path / "data"
    assert main(["synth", "--config", str(cfg_path), "--out", str(data_dir), "--quiet"]) == 0
    split_path = tmp_path / "split.json"
    assert main([
        "split", "--manifest", str(data_dir / "manifest.json"),
        "--openness", "0.0", "--ratios", "0.5,0.2,0.3",
        "--seed", "2", "--out", str(split_path), "--quiet",
    ]) == 0
    split = json.loads(split_path.read_text())
    assert len(split["train_idx"]) == 20  # 0.5 of 40
