import dataclasses
import json
import re

import numpy as np
import pytest

from openviewer import synthgen, unfold_net
from openviewer.admm_oracle import AdmmConfig
from openviewer.dataset import SplitError, openness_split
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

from helpers import benchmark_train_config, make_openset_benchmark, small_spec


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
            quick_config(epochs=0)

    def test_batch_floor(self):
        with pytest.raises(TrainerError):
            quick_config(batch_size=1)

    def test_warm_start_refused(self):
        with pytest.raises(TrainerError, match="warm_start"):
            quick_config(warm_start=True)

    def test_frozen_and_rechecked_on_replace(self):
        cfg = quick_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 1
        assert dataclasses.replace(cfg, seed=1).seed == 1
        with pytest.raises(TrainerError, match="epochs"):
            dataclasses.replace(cfg, epochs=0)


class TestSgdStep:
    def test_zero_gradients_identity(self):
        params = init_params([8, 6], 3, seed=0, num_layers=2)
        before = params_to_dict(params)
        grads = {"r/1/0": np.zeros((3, 3)), "theta/0/1": np.zeros((1, 1))}
        sgd_step(params, grads, 0.1)
        assert params_to_dict(params) == before

    def test_scalar_arithmetic(self):
        params = init_params([8], 3, seed=0)
        params.arrays["theta/0/0"][0, 0] = 1.0
        sgd_step(params, {"theta/0/0": np.array([[2.0]])}, 0.1)
        assert params.arrays["theta/0/0"][0, 0] == pytest.approx(0.8)

    def test_threshold_clamped_at_zero(self):
        params = init_params([8], 3, seed=0)
        params.arrays["theta/0/0"][0, 0] = 0.05
        sgd_step(params, {"theta/0/0": np.array([[1.0]])}, 0.1)
        assert params.arrays["theta/0/0"][0, 0] == 0.0

    def test_noise_threshold_clamped_at_zero(self):
        params = init_params([8], 3, seed=0, num_layers=2)
        params.arrays["rho/0/0"][0, 0] = 0.05
        sgd_step(params, {"rho/0/0": np.array([[1.0]])}, 0.1)
        assert params.arrays["rho/0/0"][0, 0] == 0.0

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
        assert scales["u/0/0"] == pytest.approx(float(params.arrays["u/0/0"][0, 0]) ** 2)
        assert scales["m/0/0"] == pytest.approx(float(params.arrays["m/0/0"][0, 0]) ** 2)
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
        assert list(params.arrays) == list(fresh.arrays)
        for name, value in fresh.arrays.items():
            assert np.array_equal(params.arrays[name], value), name

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

    def test_never_runs_the_solver(self, monkeypatch):
        # the network starts from one solver iteration's analytic parameters,
        # not from a solved decomposition
        from openviewer import admm_oracle

        def refuse(*args, **kwargs):
            raise AssertionError("training ran the ADMM solver")

        for name in ("solve", "init_state", "z_step", "d_step", "e_step"):
            monkeypatch.setattr(admm_oracle, name, refuse)
        dataset, split = tiny_run_inputs()
        params, _, _ = train(dataset, split, quick_config(epochs=1))
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
            assert np.array_equal(a.arrays[f"d_init/{v}"], b.arrays[f"d_init/{v}"])
        assert np.array_equal(a.fusion_weights_snapshot, b.fusion_weights_snapshot)

    def test_non_finite_step_names_epoch_batch_and_parameter(self):
        # one batch whose step overflows d_init/*, u/0/0 and r/1/*: checked
        # after the step, before a checkpoint could be written
        dataset, split = make_openset_benchmark(1)
        cfg = dataclasses.replace(benchmark_train_config(1), epochs=1, batch_size=1000,
                                  learning_rate=1.7e308)
        assert len(split.train_idx) <= cfg.batch_size
        with pytest.raises(TrainerError, match=r"^non-finite d_init/0 after epoch 1 batch 0$"):
            train(dataset, split, cfg)

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


class TestSplitChecks:
    """A split that does not fit its dataset fails before training, naming
    the field and the first bad entries."""

    @pytest.mark.parametrize("edit, message", [
        # wraps to a known-class row when used as an index
        (lambda d, s: s.train_idx.append(s.train_idx[0] - d.n_samples),
         r"split\.train_idx: 1 of \d+ entries outside \[0, 60\), first \[-\d+\]"),
        (lambda d, s: s.train_idx.append(10**6),
         r"split\.train_idx: 1 of \d+ entries outside \[0, 60\), first \[1000000\]"),
        (lambda d, s: s.train_idx.append(1.5),
         r"split\.train_idx: \d+ of \d+ entries not integers \(float64\)"),
        (lambda d, s: s.train_idx.append(int(np.flatnonzero(d.labels == s.unknown_classes[0])[0])),
         r"split\.train_idx: 1 of \d+ rows are not of a class in split\.known_classes, "
         r"first \[\d+\]$"),
        (lambda d, s: s.known_classes.append(99),
         r"split\.known_classes: 1 of \d+ entries outside \[0, 5\), first \[99\]"),
        (lambda d, s: s.known_classes.append(-1),
         r"split\.known_classes: 1 of \d+ entries outside \[0, 5\), first \[-1\]"),
        # would train a model with one class too many
        (lambda d, s: s.known_classes.append(s.known_classes[0]),
         r"split\.known_classes: repeated entries in \[2, 4, 2\]"),
    ], ids=["negative_row", "row_past_end", "float_row", "unknown_class_row",
            "class_past_end", "negative_class", "repeated_class"])
    def test_bad_split_rejected(self, edit, message):
        dataset, split = tiny_run_inputs()
        edit(dataset, split)
        with pytest.raises(SplitError, match=message):
            train(dataset, split, quick_config(epochs=1))


class TestCheckpoints:
    def _trained(self, tmp_path, ablation="full"):
        dataset, split = tiny_run_inputs()
        cfg = quick_config(epochs=1, ablation=ablation)
        params, centers, _ = train(dataset, split, cfg)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, centers, cfg, path)
        return params, centers, cfg, path

    @staticmethod
    def _edit_arrays(path, edit):
        """Apply `edit` to the checkpoint's flat name -> array map."""
        payload = json.loads(path.read_text())
        edit(payload["params"]["arrays"])
        path.write_text(json.dumps(payload))

    def test_roundtrip_byte_identical(self, tmp_path):
        params, centers, cfg, path = self._trained(tmp_path)
        loaded_params, loaded_centers, _ = load_checkpoint(path)
        again = tmp_path / "again.json"
        save_checkpoint(loaded_params, loaded_centers, cfg, again)
        assert path.read_bytes() == again.read_bytes()

    @pytest.mark.parametrize("ablation, dead", [("no_dn", {"rho"}), ("no_cd_dn", {"m", "rho"})],
                             ids=["no_dn", "no_cd_dn"])
    def test_ablation_roundtrip_byte_identical(self, tmp_path, ablation, dead):
        params, centers, cfg, path = self._trained(tmp_path, ablation)
        stored = json.loads(path.read_text())["params"]["arrays"]
        assert {n.split("/")[0] for n in stored} == {"d_init", "r", "u", "theta", "m"} - dead
        loaded_params, loaded_centers, _ = load_checkpoint(path)
        again = tmp_path / "again.json"
        save_checkpoint(loaded_params, loaded_centers, cfg, again)
        assert path.read_bytes() == again.read_bytes()

    def test_every_entry_preserved(self, tmp_path):
        params, centers, _, path = self._trained(tmp_path)
        loaded_params, loaded_centers, _ = load_checkpoint(path)
        assert loaded_centers.dtype == centers.dtype == np.float64
        assert loaded_centers.shape == centers.shape == (params.num_classes,) * 2
        assert np.array_equal(loaded_centers, centers)
        assert list(loaded_params.arrays) == list(params.arrays)
        for name, value in params.arrays.items():
            assert np.array_equal(loaded_params.arrays[name], value), name
        assert np.array_equal(loaded_params.fusion_weights_snapshot,
                              params.fusion_weights_snapshot)

    def test_truncated_file_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("document, kind", [("[1, 2]", "list"), ("null", "NoneType"),
                                                ('"x"', "str"), ("3", "int")])
    def test_non_object_document_names_file(self, tmp_path, document, kind):
        path = tmp_path / "ckpt.json"
        path.write_text(document)
        with pytest.raises(CheckpointError, match=rf"ckpt\.json must hold a JSON object, got {kind}"):
            load_checkpoint(path)

    def test_schema_mismatch_names_version(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = "1"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=r"ckpt\.json: schema '1'"):
            load_checkpoint(path)

    def test_schema_2_file_rejected(self, tmp_path):
        # schema 2 nested each kind by layer and view; it is not read
        _, _, _, path = self._trained(tmp_path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = "2"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=r"ckpt\.json: schema '2' does not match supported '4'"):
            load_checkpoint(path)

    def test_params_store_no_group_axis(self, tmp_path):
        # noise groups are always feature columns, so schema 4 does not store their axis
        _, _, _, path = self._trained(tmp_path)
        assert set(json.loads(path.read_text())["params"]) == set(
            params_to_dict(init_params((3, 2), 2, seed=0)))
        assert "group_axis" not in json.loads(path.read_text())["params"]

    def test_schema_3_file_rejected(self, tmp_path):
        # schema 3 stored the noise groups' axis, which is now always columns
        _, _, _, path = self._trained(tmp_path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = "3"
        payload["params"]["group_axis"] = "columns"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=r"ckpt\.json: schema '3' does not match supported '4'"):
            load_checkpoint(path)

    def test_parameter_shape_mismatch_names_file_and_field(self, tmp_path):
        params, _, _, path = self._trained(tmp_path)
        c = params.num_classes
        self._edit_arrays(path, lambda a: a.update({"r/1/1": np.eye(c - 1).tolist()}))
        with pytest.raises(CheckpointError,
                           match=rf"ckpt\.json: r/1/1 has shape \({c - 1}, {c - 1}\), expected"):
            load_checkpoint(path)

    def test_missing_layer_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        self._edit_arrays(path, lambda a: [a.pop(f"theta/1/{v}") for v in (0, 1)])
        with pytest.raises(CheckpointError,
                           match=r"ckpt\.json: .*missing \['theta/1/0', 'theta/1/1'\], surplus \[\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize("names", [["u/1/0", "u/1/1"], ["r/1/1"]], ids=["u-layer", "r-view"])
    def test_short_entries_rejected(self, tmp_path, names):
        params, _, _, path = self._trained(tmp_path)
        assert (params.num_layers, params.n_views) == (2, 2)
        self._edit_arrays(path, lambda a: [a.pop(n) for n in names])
        with pytest.raises(CheckpointError, match=r"ckpt\.json: .*missing " + re.escape(str(names))):
            load_checkpoint(path)

    def test_one_dimensional_theta_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        self._edit_arrays(path, lambda a: a.update({"theta/0/0": a["theta/0/0"][0]}))
        with pytest.raises(CheckpointError,
                           match=r"ckpt\.json: theta/0/0 has shape \(1,\), expected \(1, 1\)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("ablation, added", [
        ("full", {"u/2/0": "u/1/0", "u/2/1": "u/1/1"}),
        ("full", {"theta/2/0": "theta/1/0", "theta/2/1": "theta/1/1"}),
        ("full", {"d_init/2": "d_init/1"}),
        ("full", {"r/1/2": "r/1/0"}),
        ("full", {"rho/0/2": "rho/0/0"}),
        ("full", {"m/1/0": "m/0/0"}),
        ("no_dn", {"rho/0/0": "theta/0/0"}),
    ], ids=["u-layer", "theta-layer", "d_init-view", "r-view", "rho-view", "m-last-layer",
            "rho-no_dn"])
    def test_surplus_entries_rejected(self, tmp_path, ablation, added):
        params, _, _, path = self._trained(tmp_path, ablation)
        assert (params.num_layers, params.n_views) == (2, 2)
        self._edit_arrays(path, lambda a: a.update({n: a[src] for n, src in added.items()}))
        with pytest.raises(CheckpointError,
                           match=r"ckpt\.json: .*missing \[\], surplus " + re.escape(str(list(added)))):
            load_checkpoint(path)

    def test_missing_view_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        self._edit_arrays(path, lambda a: a.pop("d_init/1"))
        with pytest.raises(CheckpointError, match=r"ckpt\.json: .*missing \['d_init/1'\]"):
            load_checkpoint(path)

    def test_zero_layers_rejected_at_load(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        payload = json.loads(path.read_text())
        payload["params"]["num_layers"] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=r"ckpt\.json.*num_layers must be >= 1"):
            load_checkpoint(path)

    def test_absurd_layer_count_rejected_on_array_count(self, tmp_path, monkeypatch):
        _, _, _, path = self._trained(tmp_path)
        payload = json.loads(path.read_text())
        payload["params"]["num_layers"] = 10**9
        path.write_text(json.dumps(payload))

        def refuse(*args):
            raise AssertionError("the layout of a rejected layer count was spelt out")

        monkeypatch.setattr(unfold_net, "param_shapes", refuse)
        with pytest.raises(CheckpointError,
                           match=r"ckpt\.json: 16 parameter arrays cannot hold 1000000000 layers"):
            load_checkpoint(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        self._edit_arrays(path, lambda a: a["u/1/0"][0].__setitem__(0, float("nan")))
        with pytest.raises(CheckpointError, match=r"ckpt\.json: u/1/0 has non-finite entries"):
            load_checkpoint(path)

    def test_non_finite_snapshot_rejected(self, tmp_path):
        _, _, _, path = self._trained(tmp_path)
        payload = json.loads(path.read_text())
        payload["params"]["fusion_weights_snapshot"][0] = float("nan")
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError,
                           match=r"ckpt\.json: fusion_weights_snapshot has non-finite entries"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c[1].__setitem__(0, float("nan")), "centers has non-finite entries"),
        (lambda c: c[0].__setitem__(1, float("inf")), "centers has non-finite entries"),
        (lambda c: c.pop(), r"centers has shape \(\d, \d\), expected \((\d), \1\)"),
        (lambda c: [row.pop() for row in c], r"centers has shape \(\d, \d\), expected"),
        (lambda c: c.append(c[0]), r"centers has shape \(\d, \d\), expected"),
        (lambda c: c[0].append([1.0]), "centers is not a numeric array"),
    ], ids=["nan", "inf", "short", "narrow", "extra_row", "ragged"])
    def test_bad_centers_rejected(self, tmp_path, edit, message):
        _, _, _, path = self._trained(tmp_path)
        payload = json.loads(path.read_text())
        edit(payload["centers"])
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=rf"checkpoint .*ckpt\.json: {message}"):
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
