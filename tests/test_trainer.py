import json

import numpy as np
import pytest

from openviewer import synthgen
from openviewer.admm_oracle import AdmmConfig
from openviewer.dataset import openness_split
from openviewer.losses import LossConfig
from openviewer.trainer import (
    CheckpointError,
    TrainConfig,
    TrainerError,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    step_preconditioner,
    train,
)
from openviewer.unfold_net import init_params, params_to_dict

from helpers import small_spec


def tiny_run_inputs(seed=0):
    spec = small_spec(samples_per_class=12, sep_scale=1.0, jitter=0.08,
                      noise_magnitude=0.5, seed=seed)
    dataset, _ = synthgen.generate(spec)
    split = openness_split(dataset, 0.2, (0.5, 0.1, 0.4), seed=seed)
    return dataset, split


def quick_config(seed=0, **overrides):
    base = dict(
        epochs=3,
        batch_size=16,
        learning_rate=0.02,
        layers=2,
        seed=seed,
        loss=LossConfig(xi=0.3, lambda1=0.1, lambda2=0.1),
        admm=AdmmConfig(alpha=0.01, beta=0.1, gamma=2.0),
        normalize=False,
        threshold_step_scale=0.01,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestConfigValidation:
    def test_epochs_floor(self):
        with pytest.raises(TrainerError):
            quick_config(epochs=0).validate()

    def test_batch_floor(self):
        with pytest.raises(TrainerError):
            quick_config(batch_size=1).validate()


class TestSgdStep:
    def test_zero_gradients_identity(self):
        params = init_params([8, 6], 3, seed=0, num_layers=2)
        before = params_to_dict(params)
        grads = {"r/1/0": np.zeros((3, 3)), "theta/0/1": np.zeros((1, 1))}
        sgd_step(params, grads, 0.1)
        assert params_to_dict(params) == before

    def test_scalar_arithmetic(self):
        params = init_params([8], 3, seed=0)
        params.theta[0][0] = 1.0
        sgd_step(params, {"theta/0/0": np.array([[2.0]])}, 0.1)
        assert params.theta[0][0] == pytest.approx(0.8)

    def test_threshold_clamped_at_zero(self):
        params = init_params([8], 3, seed=0)
        params.theta[0][0] = 0.05
        sgd_step(params, {"theta/0/0": np.array([[1.0]])}, 0.1)
        assert params.theta[0][0] == 0.0

    def test_noise_threshold_clamped_at_zero(self):
        params = init_params([8], 3, seed=0, num_layers=2)
        params.rho[0][0] = 0.05
        sgd_step(params, {"rho/0/0": np.array([[1.0]])}, 0.1)
        assert params.rho[0][0] == 0.0

    def test_shape_mismatch_rejected(self):
        params = init_params([8], 3, seed=0)
        with pytest.raises(TrainerError):
            sgd_step(params, {"u/0/0": np.zeros((2, 2))}, 0.1)

    def test_unknown_name_rejected(self):
        params = init_params([8], 3, seed=0)
        with pytest.raises(TrainerError):
            sgd_step(params, {"bogus/0/0": np.zeros((3, 3))}, 0.1)

    def test_preconditioner_scales(self):
        params = init_params([8, 6], 3, seed=1, num_layers=2, expected_rows=20)
        scales = step_preconditioner(params, threshold_step_scale=0.02)
        assert scales["d_init/0"] == 1.0
        assert scales["r/1/1"] == 1.0
        assert scales["u/0/0"] == pytest.approx(float(params.u[0][0][0, 0]) ** 2)
        assert scales["m/0/0"] == pytest.approx(float(params.m[0][0][0, 0]) ** 2)
        assert scales["theta/1/0"] == 0.02


class TestTrain:
    def test_zero_learning_rate_keeps_params(self):
        dataset, split = tiny_run_inputs()
        params, _, _ = train(dataset, split, quick_config(learning_rate=0.0, epochs=2))
        fresh = init_params(
            dataset.view_dims,
            len(split.known_classes),
            quick_config().admm,
            seed=[0, (1 << 20) + 1],
            num_layers=2,
            expected_rows=32,
        )
        named = params.named()
        assert list(named) == list(fresh.named())
        for name, value in fresh.named().items():
            assert np.array_equal(named[name], value), name

    def test_deterministic_checkpoints(self, tmp_path):
        dataset, split = tiny_run_inputs()
        outs = []
        for run_dir in ("a", "b"):
            cfg = quick_config()
            params, centers, _ = train(dataset, split, cfg)
            path = tmp_path / run_dir / "ckpt.json"
            save_checkpoint(params, centers, cfg, path)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_loss_logged_per_epoch(self):
        dataset, split = tiny_run_inputs()
        cfg = quick_config(epochs=4)
        _, _, log = train(dataset, split, cfg)
        assert [e.epoch for e in log.epochs] == [1, 2, 3, 4]
        assert all(np.isfinite(e.total) for e in log.epochs)
        assert all(e.bound_margin >= 0 for e in log.epochs)

    def test_snapshot_on_simplex(self):
        dataset, split = tiny_run_inputs()
        params, _, _ = train(dataset, split, quick_config())
        w = params.fusion_weights_snapshot
        assert w.shape == (dataset.n_views,)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0)

    def test_warm_start_runs(self):
        dataset, split = tiny_run_inputs()
        params, _, _ = train(dataset, split, quick_config(warm_start=True, epochs=1))
        assert params.fusion_weights_snapshot is not None

    def test_single_class_batches_skip_pseudo(self, caplog):
        # batch_size 2 with shuffling will hit single-class batches; the
        # trainer must skip pseudo generation for them and keep training
        dataset, split = tiny_run_inputs(seed=3)
        cfg = quick_config(seed=3, batch_size=2, epochs=1, learning_rate=0.005)
        params, _, log = train(dataset, split, cfg)
        assert np.isfinite(log.epochs[-1].total)

    def test_no_hidden_global_randomness(self):
        # polluting numpy's legacy global RNG between runs must not matter
        dataset, split = tiny_run_inputs()
        np.random.seed(1)
        a, _, _ = train(dataset, split, quick_config(epochs=2))
        np.random.seed(999)
        np.random.rand(100)
        b, _, _ = train(dataset, split, quick_config(epochs=2))
        for v in range(dataset.n_views):
            assert np.array_equal(a.d_init[v], b.d_init[v])
        assert np.array_equal(a.fusion_weights_snapshot, b.fusion_weights_snapshot)

    def test_needs_two_known_classes(self):
        dataset, split = tiny_run_inputs()
        split.known_classes = split.known_classes[:1]
        with pytest.raises(TrainerError):
            train(dataset, split, quick_config())

    def test_csv_format(self):
        dataset, split = tiny_run_inputs()
        _, _, log = train(dataset, split, quick_config(epochs=2))
        text = log.to_csv()
        lines = text.strip().split("\n")
        assert lines[0].startswith("epoch,total_loss,known_loss,unknown_loss,center_loss,ema_w0")
        assert len(lines) == 3


class TestCheckpoints:
    def _trained(self, tmp_path):
        dataset, split = tiny_run_inputs()
        cfg = quick_config(epochs=1)
        params, centers, _ = train(dataset, split, cfg)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, centers, cfg, path)
        return params, centers, cfg, path

    def test_roundtrip_byte_identical(self, tmp_path):
        params, centers, cfg, path = self._trained(tmp_path)
        loaded_params, loaded_centers, _ = load_checkpoint(path)
        again = tmp_path / "again.json"
        save_checkpoint(loaded_params, loaded_centers, cfg, again)
        assert path.read_bytes() == again.read_bytes()

    def test_every_entry_preserved(self, tmp_path):
        params, centers, _, path = self._trained(tmp_path)
        loaded_params, loaded_centers, _ = load_checkpoint(path)
        assert np.array_equal(loaded_centers.centers, centers.centers)
        for v in range(len(params.view_dims)):
            assert np.array_equal(loaded_params.d_init[v], params.d_init[v])

    def test_truncated_file_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_schema_mismatch_names_version(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = "1"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=r"ckpt\.json: schema '1'"):
            load_checkpoint(path)

    def test_parameter_shape_mismatch_names_file_and_field(self, tmp_path):
        params, _, _, path = self._trained(tmp_path)
        payload = json.loads(path.read_text())
        c = params.num_classes
        payload["params"]["r"][0][1] = np.eye(c - 1).tolist()  # layer 1's R
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=r"ckpt\.json.*r/1/1"):
            load_checkpoint(path)

    def test_missing_layer_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        payload = json.loads(path.read_text())
        payload["params"]["theta"] = payload["params"]["theta"][:1]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=r"ckpt\.json: theta holds 1 layers, expected 2"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, shrink, message", [
        ("u", lambda p: p["u"].pop(), r"u holds 1 layers, expected 2"),
        ("r", lambda p: p["r"][0].pop(), r"r\[0\] holds 1 views, expected 2"),
    ])
    def test_short_entries_rejected(self, tmp_path, field, shrink, message):
        params, _, _, path = self._trained(tmp_path)
        assert (params.num_layers, params.n_views) == (2, 2)
        payload = json.loads(path.read_text())
        shrink(payload["params"])
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=r"ckpt\.json: " + message):
            load_checkpoint(path)

    def test_one_dimensional_theta_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        payload = json.loads(path.read_text())
        payload["params"]["theta"] = payload["params"]["theta"][0]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=r"ckpt\.json: malformed parameters"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, grow, message", [
        ("u", lambda p: p["u"].append(p["u"][-1]), r"u holds 3 layers, expected 2"),
        ("theta", lambda p: p["theta"].append(p["theta"][-1]), r"theta holds 3 layers, expected 2"),
        ("d_init", lambda p: p["d_init"].append(p["d_init"][-1]), r"d_init holds 3 views, expected 2"),
        ("r", lambda p: p["r"][0].append(p["r"][0][0]), r"r\[0\] holds 3 views, expected 2"),
        ("rho", lambda p: p["rho"][0].append(0.1), r"rho\[0\] holds 3 views, expected 2"),
        ("m", lambda p: p["m"].append(p["m"][0]), r"m holds 2 layers, expected 1"),
    ])
    def test_surplus_entries_rejected(self, tmp_path, field, grow, message):
        params, _, _, path = self._trained(tmp_path)
        assert (params.num_layers, params.n_views) == (2, 2)
        payload = json.loads(path.read_text())
        grow(payload["params"])
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=r"ckpt\.json: " + message):
            load_checkpoint(path)

    def test_missing_view_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        payload = json.loads(path.read_text())
        payload["params"]["d_init"].pop()
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=r"ckpt\.json: d_init holds 1 views, expected 2"):
            load_checkpoint(path)

    def test_zero_layers_rejected_at_load(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        payload = json.loads(path.read_text())
        payload["params"]["num_layers"] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=r"ckpt\.json.*num_layers must be >= 1"):
            load_checkpoint(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        payload = json.loads(path.read_text())
        payload["params"]["u"][1][0][0][0] = float("nan")
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=r"ckpt\.json.*u/1/0"):
            load_checkpoint(path)

    def test_unknown_ablation_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        payload = json.loads(path.read_text())
        payload["params"]["ablation"] = "no_cd"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=r"ckpt\.json.*no_cd"):
            load_checkpoint(path)

    def test_wrong_class_count_fails_at_eval(self, tmp_path):
        from openviewer.evaluation import MetricError, score_test_set

        params, centers, cfg, path = self._trained(tmp_path)
        dataset, split = tiny_run_inputs()
        split.known_classes = split.known_classes + split.unknown_classes[:1]
        with pytest.raises(MetricError):
            score_test_set(params, centers, dataset, split, normalize=False)
