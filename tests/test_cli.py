import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from openviewer import CHECKPOINT_SCHEMA_VERSION
from openviewer._io import float_repr
from openviewer.admm_oracle import AdmmConfig, solve
from openviewer.cli import EXIT_RUNTIME, _write_matrix_csv, main, run_gradcheck, version_info
from openviewer.dataset import load

import fine_reference as ref

SRC = Path(__file__).resolve().parent.parent / "src"


def write_experiment_config(path, epochs=3):
    config = {
        "synth": {
            "classes": 5,
            "samples_per_class": 12,
            "views": 2,
            "dims": [12, 10],
            "sep_scale": 1.0,
            "noise_col_frac": 0.1,
            "noise_magnitude": 0.5,
            "jitter": 0.08,
            "seed": 4,
        },
        "split": {"openness": 0.2, "ratios": [0.5, 0.1, 0.4], "seed": 4},
        "train": {
            "epochs": epochs,
            "batch_size": 16,
            "learning_rate": 0.02,
            "layers": 2,
            "seed": 4,
            "normalize": False,
            "threshold_step_scale": 0.01,
            "loss": {"xi": 0.3, "lambda1": 0.1, "lambda2": 0.1},
            "admm": {"alpha": 0.01, "beta": 0.1, "gamma": 2.0},
        },
        "eval": {"fpr_targets": [0.05, 0.1, 0.5]},
        "oracle": {"max_iter": 30},
    }
    path.write_text(json.dumps(config))
    return path


@pytest.fixture
def workspace(tmp_path):
    cfg = write_experiment_config(tmp_path / "config.json")
    data_dir = tmp_path / "data"
    assert main(["synth", "--config", str(cfg), "--out", str(data_dir), "--quiet"]) == 0
    assert main([
        "split", "--manifest", str(data_dir / "manifest.json"),
        "--config", str(cfg), "--out", str(tmp_path / "split.json"), "--quiet",
    ]) == 0
    return tmp_path, cfg, data_dir


class TestVersionAndUsage:
    def test_version_string(self):
        assert CHECKPOINT_SCHEMA_VERSION in version_info()
        assert version_info() == version_info()

    def test_version_flag_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "openviewer" in capsys.readouterr().out

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self):
        assert main(["train", "--manifest", "x"]) == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"synth": {"classses": 3}}))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    # each key is refused before any input file is read, so the paths need not exist
    @pytest.mark.parametrize("command, config, message", [
        ("train", {"train": {"precondition": False}}, r"'train': \['precondition'\]"),
        ("train", {"train": {"mix": {"per_view_zeta": True}}},
         r"'train\.mix': \['per_view_zeta'\]"),
        ("train", {"train": {"mix": {"unknown_label": 3}}}, r"'train\.mix': \['unknown_label'\]"),
        ("eval", {"eval": {"score": "norm"}}, r"'eval': \['score'\]"),
        ("train", {"trian": {"epochs": 1}}, r"'config': \['trian'\]"),
        ("split", {"split": {"opennes": 0.5}}, r"'split': \['opennes'\]"),
    ], ids=["precondition", "per_view_zeta", "unknown_label", "score", "section", "split_key"])
    def test_removed_or_misspelt_key_is_usage_error(self, tmp_path, caplog, command, config,
                                                   message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        inputs = {"train": ["--manifest", "m.json", "--split", "s.json"],
                  "eval": ["--checkpoint", "c.json", "--manifest", "m.json", "--split", "s.json"],
                  "split": ["--manifest", "m.json"]}[command]
        out = tmp_path / "out"
        assert main([command, *inputs, "--config", str(cfg), "--out", str(out)]) == 1
        assert re.search(f"unknown config keys in {message}", caplog.text)
        assert not out.exists()

    # the section check runs before any command does, so the paths need not exist
    @pytest.mark.parametrize("command, inputs", [
        ("synth", ["--out", "o"]),
        ("split", ["--manifest", "m.json", "--out", "o"]),
        ("train", ["--manifest", "m.json", "--split", "s.json", "--out", "o"]),
        ("eval", ["--checkpoint", "c.json", "--manifest", "m.json", "--split", "s.json",
                  "--out", "o"]),
        ("oracle", ["--manifest", "m.json", "--out", "o"]),
        ("gradcheck", []),
        ("diag", ["--out", "o"]),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_unknown_section_is_refused_by_every_command(self, tmp_path, monkeypatch, caplog,
                                                         command, inputs):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"synth": {}, "orcale": {"max_iter": 5}}))
        assert main([command, *inputs, "--config", str(cfg)]) == 1
        assert "unknown config keys in 'config': ['orcale']" in caplog.text
        assert not (tmp_path / "o").exists()


class TestRefusedConfig:
    """A value the code no longer honours, or a key of a section the command
    does not read, fails the command, and the log names the field."""

    @pytest.mark.parametrize("command, config, code, field", [
        ("train", {"train": {"warm_start": True}}, EXIT_RUNTIME, "warm_start"),
        ("oracle", {"oracle": {"group_axis": "rows"}}, EXIT_RUNTIME, "group_axis"),
        ("train", {"train": {"admm": {"max_iter": 40}}}, 1, "'train.admm': ['max_iter']"),
        ("train", {"train": {"admm": {"tol": 1e-9}}}, 1, "'train.admm': ['tol']"),
        ("train", {"train": {"admm": {"group_axis": "columns"}}}, 1,
         "'train.admm': ['group_axis']"),
        ("train", {"eval": {"score": "norm"}}, 1, "'eval': ['score']"),
        ("train", {"oracle": {"max_iters": 3}}, 1, "'oracle': ['max_iters']"),
        ("oracle", {"train": {"epochz": 1}}, 1, "'train': ['epochz']"),
        ("train", {"train": {"admm": 5}}, 1, "'train.admm' must be an object"),
        ("train", {"train": {"mix": [1]}}, 1, "'train.mix' must be an object"),
        # checked when built, before the (missing) checkpoint is read
        ("eval", {"eval": {"fpr_targets": [0.1, 0.0]}}, EXIT_RUNTIME,
         "fpr_targets must lie in (0, 1], got (0.1, 0.0)"),
        ("oracle", {"train": {"epochs": 0}}, EXIT_RUNTIME, "epochs must be >= 1"),
    ], ids=["warm_start", "group_axis_rows", "train_admm_max_iter", "train_admm_tol",
            "train_admm_group_axis", "stale_eval_key", "stale_oracle_key", "stale_train_key",
            "admm_not_object", "mix_not_object", "zero_fpr_target", "unread_section_range"])
    def test_refused(self, workspace, caplog, command, config, code, field):
        tmp_path, _, data_dir = workspace
        cfg = tmp_path / "refused.json"
        cfg.write_text(json.dumps(config))
        inputs = {"train": ["--split", str(tmp_path / "split.json")], "oracle": [],
                  "eval": ["--split", str(tmp_path / "split.json"),
                           "--checkpoint", str(tmp_path / "missing.json")]}[command]
        out = tmp_path / "out"
        assert main([command, "--manifest", str(data_dir / "manifest.json"), *inputs,
                     "--config", str(cfg), "--out", str(out), "--quiet"]) == code
        assert field in caplog.text
        assert not out.exists()

    def test_oracle_only_config_imports_no_training_code(self, workspace):
        # a fresh interpreter: pytest's own process has imported every module
        tmp_path, _, data_dir = workspace
        cfg = tmp_path / "oracle.json"
        cfg.write_text(json.dumps({"oracle": {"max_iter": 3}}))
        script = (
            "import sys; from openviewer import cli\n"
            f"assert cli.main(['oracle', '--config', {str(cfg)!r}, '--manifest', "
            f"{str(data_dir / 'manifest.json')!r}, '--out', {str(tmp_path / 'o')!r}, "
            "'--quiet']) == 0\n"
            "loaded = {m for m in sys.modules if m.startswith('openviewer.')}\n"
            "assert loaded <= {'openviewer._io', 'openviewer.admm_oracle', 'openviewer.cli', "
            "'openviewer.dataset'}, sorted(loaded)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


class TestConfigValueTypes:
    """A config value of the wrong JSON type is a usage error (exit 1) that
    names its section and field, before any input file is read."""

    @pytest.mark.parametrize("command, config, field", [
        ("oracle", {"oracle": {"max_iter": "many"}}, "oracle.max_iter"),
        ("train", {"train": {"epochs": 2.5}}, "train.epochs"),
        ("train", {"train": {"normalize": "yes"}}, "train.normalize"),
        ("eval", {"eval": {"fpr_targets": [0.1, "0.5"]}}, "eval.fpr_targets"),
        ("synth", {"synth": {"dims": 24}}, "synth.dims"),
        ("train", {"train": {"learning_rate": True}}, "train.learning_rate"),
        ("train", {"train": {"loss": {"xi": None}}}, "train.loss.xi"),
        ("train", {"train": {"threshold_step_scale": "0.02"}}, "train.threshold_step_scale"),
        ("split", {"split": {"openness": "0.5"}}, "split.openness"),
        ("split", {"split": {"seed": 1.5}}, "split.seed"),
        ("split", {"split": {"ratios": 5}}, "split.ratios"),
        ("split", {"split": {"ratios": [0.5, 0.5]}}, "split.ratios"),
    ], ids=["string_int", "fractional_int", "string_bool", "string_in_tuple", "number_for_tuple",
            "bool_for_float", "null_for_float", "string_for_optional", "split_string_float",
            "split_fractional_seed", "split_number_for_tuple", "split_short_tuple"])
    def test_wrong_type_is_usage_error(self, tmp_path, caplog, command, config, field):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        inputs = {"train": ["--manifest", "m.json", "--split", "s.json"],
                  "eval": ["--checkpoint", "c.json", "--manifest", "m.json", "--split", "s.json"],
                  "oracle": ["--manifest", "m.json"], "split": ["--manifest", "m.json"],
                  "synth": []}[command]
        out = tmp_path / "out"
        assert main([command, *inputs, "--config", str(cfg), "--out", str(out)]) == 1
        assert f"config value '{field}' must be" in caplog.text
        assert "TypeError" not in caplog.text
        assert not out.exists()

    def test_configs_in_use_load(self):
        from openviewer.cli import _build_sections

        bench = json.loads((Path(__file__).parent / "fixtures" / "benchmark.json").read_text())
        train = _build_sections({"train": bench["train"]})["train"]
        assert (train.epochs, train.learning_rate, train.normalize) == (300, 0.03, False)
        # ints where floats are declared, null for an optional float
        built = _build_sections({
            "train": {"learning_rate": 1, "threshold_step_scale": None, "mix": {"omega": 2}},
            "oracle": {"max_iter": 300, "tol": 1e-08, "exact_e_prox": False,
                       "group_axis": "columns", "alpha": 1},
            "synth": {"dims": [24, 20], "sep_scale": 2},
            "eval": {"fpr_targets": [1, 0.5]},
            "split": {"openness": 0, "ratios": [1, 0, 0]},
        })
        assert built["train"].learning_rate == 1 and built["train"].threshold_step_scale is None
        assert built["oracle"].group_axis == "columns" and built["oracle"].exact_e_prox is False
        assert built["synth"].dims == (24, 20)
        assert built["eval"].fpr_targets == (1, 0.5)
        assert (built["split"].openness, built["split"].ratios, built["split"].seed) == \
            (0, (1, 0, 0), 0)

    @pytest.mark.parametrize("ratios", ["0.5,0.5,x", "0.5,0.5", "0.2,0.2,0.2,0.4"])
    def test_bad_ratios_flag_is_usage_error(self, tmp_path, capsys, ratios):
        out = tmp_path / "split.json"
        assert main(["split", "--manifest", "m.json", "--ratios", ratios, "--out", str(out)]) == 1
        assert "argument --ratios" in capsys.readouterr().err
        assert not out.exists()


class TestConfigLoading:
    def test_sections_follow_type_hints(self):
        from openviewer.cli import _dataclass_from_dict
        from openviewer.evaluation import EvalConfig
        from openviewer.trainer import TrainConfig

        cfg = _dataclass_from_dict(TrainConfig, {"mix": {"omega": 3.0}, "admm": {"gamma": 3.0}},
                                   "train")
        assert cfg.mix.omega == 3.0
        assert cfg.admm.gamma == 3.0
        assert cfg.loss == TrainConfig().loss
        ev = _dataclass_from_dict(EvalConfig, {"fpr_targets": [0.1, 0.2]}, "eval")
        assert ev.fpr_targets == (0.1, 0.2)

    def test_unknown_nested_key_names_its_section(self):
        from openviewer.cli import ConfigError, _dataclass_from_dict
        from openviewer.trainer import TrainConfig

        with pytest.raises(ConfigError, match=r"train\.admm"):
            _dataclass_from_dict(TrainConfig, {"admm": {"gama": 1.0}}, "train")


class TestSynth:
    def test_outputs_are_loadable_and_planted(self, tmp_path):
        cfg = write_experiment_config(tmp_path / "config.json")
        out = tmp_path / "data"
        assert main(["synth", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        from openviewer.dataset import load

        dataset = load(out / "manifest.json")
        assert dataset.n_samples == 60 and dataset.n_views == 2
        truth = json.loads((out / "planted.json").read_text())
        z = np.loadtxt(out / "planted_z.csv", delimiter=",")
        d0 = np.loadtxt(out / truth["d"][0], delimiter=",")
        e0 = np.loadtxt(out / truth["e"][0], delimiter=",")
        # jitter is nonzero in this spec, so reconstruction is approximate
        resid = dataset.views[0] - (z @ d0 + e0)
        assert np.abs(resid).max() < 0.5

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_experiment_config(tmp_path / "config.json")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["synth", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
            outs.append((out / "view_0.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_exact_plant_when_noiseless(self, tmp_path):
        spec = {
            "classes": 4, "samples_per_class": 4, "views": 1, "dims": [8],
            "sep_scale": 1.0, "noise_col_frac": 0.0, "noise_magnitude": 0.0,
            "jitter": 0.0, "seed": 1,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "data"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out), "--quiet"]) == 0
        view = np.loadtxt(out / "view_0.csv", delimiter=",")
        z = np.loadtxt(out / "planted_z.csv", delimiter=",")
        d = np.loadtxt(out / "planted_d_0.csv", delimiter=",")
        assert np.array_equal(view, z @ d)


class TestPipeline:
    def test_split_file_contents(self, workspace):
        tmp_path, _, _ = workspace
        split = json.loads((tmp_path / "split.json").read_text())
        assert set(split["known_classes"]) | set(split["unknown_classes"]) == set(range(5))
        assert 0 <= split["openness_achieved"] < 1

    def test_split_flags_override_the_section(self, workspace):
        from openviewer.dataset import openness_split

        tmp_path, cfg, data_dir = workspace
        dataset = load(data_dir / "manifest.json")
        section = openness_split(dataset, 0.2, (0.5, 0.1, 0.4), 4)
        assert (tmp_path / "split.json").read_text() == section.to_json()
        out = tmp_path / "flagged.json"
        assert main(["split", "--manifest", str(data_dir / "manifest.json"), "--config", str(cfg),
                     "--openness", "0.4", "--ratios", "0.3,0.2,0.5", "--seed", "9",
                     "--out", str(out), "--quiet"]) == 0
        flagged = openness_split(dataset, 0.4, (0.3, 0.2, 0.5), 9)
        assert out.read_text() == flagged.to_json()

    def test_train_then_eval(self, workspace):
        tmp_path, cfg, data_dir = workspace
        run = tmp_path / "run"
        assert main([
            "train", "--manifest", str(data_dir / "manifest.json"),
            "--split", str(tmp_path / "split.json"),
            "--config", str(cfg), "--out", str(run), "--quiet",
        ]) == 0
        assert (run / "checkpoint.json").exists()
        assert (run / "train_log.csv").read_text().startswith("epoch,")
        ev_dir = tmp_path / "eval"
        assert main([
            "eval", "--checkpoint", str(run / "checkpoint.json"),
            "--manifest", str(data_dir / "manifest.json"),
            "--split", str(tmp_path / "split.json"),
            "--config", str(cfg), "--out", str(ev_dir), "--quiet",
        ]) == 0
        summary = json.loads((ev_dir / "summary.json").read_text())
        assert "ccr_at_fpr_0.1" in summary
        curve = (ev_dir / "oscr_curve.csv").read_text().strip().split("\n")
        assert curve[0] == "threshold,ccr,fpr"
        fused = np.loadtxt(ev_dir / "fused.csv", delimiter=",", ndmin=2)
        assert fused.shape[0] == summary["n_test"]
        assert sorted(p.name for p in ev_dir.iterdir()) == [
            "fused.csv", "oscr_curve.csv", "summary.json"]

    def test_eval_outputs_match_per_row_reference(self, workspace):
        from openviewer._io import canonical_json, float_repr
        from openviewer.dataset import OpennessSplit, load
        from openviewer.evaluation import EvalConfig, summary as ccr_summary
        from openviewer.trainer import load_checkpoint


        tmp_path, cfg, data_dir = workspace
        run, ev_dir = tmp_path / "run", tmp_path / "eval"
        common = ["--manifest", str(data_dir / "manifest.json"),
                  "--split", str(tmp_path / "split.json"), "--config", str(cfg), "--quiet"]
        assert main(["train", *common, "--out", str(run)]) == 0
        assert main(["eval", "--checkpoint", str(run / "checkpoint.json"),
                     *common, "--out", str(ev_dir)]) == 0

        params, _, train_cfg = load_checkpoint(run / "checkpoint.json")
        split = OpennessSplit.from_json((tmp_path / "split.json").read_text())
        eval_cfg = EvalConfig(fpr_targets=(0.05, 0.1, 0.5))
        preds, _ = ref.score_with_codes(params, load(data_dir / "manifest.json"), split,
                                        normalize=train_cfg["normalize"])
        curve = ref.oscr_curve(preds)
        lines = ["threshold,ccr,fpr"]
        lines += [f"{float_repr(t)},{float_repr(c)},{float_repr(f)}" for t, c, f in curve.points]
        summary = ccr_summary(curve, eval_cfg.fpr_targets)
        hits = [p.predicted == p.true_label for p in preds if not p.is_unknown_truth]
        summary["known_accuracy"] = float(np.mean(hits)) if hits else 0.0
        summary["n_test"] = len(preds)
        assert (ev_dir / "oscr_curve.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
        assert (ev_dir / "summary.json").read_bytes() == canonical_json(summary).encode()

    def test_eval_of_non_finite_codes_is_runtime_error(self, workspace, caplog):
        tmp_path, cfg, data_dir = workspace
        run = tmp_path / "run"
        assert main([
            "train", "--manifest", str(data_dir / "manifest.json"),
            "--split", str(tmp_path / "split.json"),
            "--config", str(cfg), "--out", str(run), "--quiet",
        ]) == 0
        checkpoint = run / "checkpoint.json"
        payload = json.loads(checkpoint.read_text())
        arrays = payload["params"]["arrays"]
        for name in arrays:
            if name.startswith("u/"):
                arrays[name] = (np.array(arrays[name]) * 1e300).tolist()
        checkpoint.write_text(json.dumps(payload))
        ev_dir = tmp_path / "eval"
        assert main([
            "eval", "--checkpoint", str(checkpoint),
            "--manifest", str(data_dir / "manifest.json"),
            "--split", str(tmp_path / "split.json"),
            "--config", str(cfg), "--out", str(ev_dir), "--quiet",
        ]) == EXIT_RUNTIME
        assert "NumericError" in caplog.text
        assert not (ev_dir / "summary.json").exists()

    def test_oracle_outputs(self, workspace):
        tmp_path, cfg, data_dir = workspace
        out = tmp_path / "oracle"
        assert main([
            "oracle", "--manifest", str(data_dir / "manifest.json"),
            "--config", str(cfg), "--out", str(out), "--quiet",
        ]) == 0
        trace = (out / "objective_trace.csv").read_text().strip().split("\n")
        assert trace[0] == "iteration,objective"
        values = [float(line.split(",")[1]) for line in trace[1:]]
        assert values[-1] <= values[0]
        assert (out / "z_0.csv").exists() and (out / "d_1.csv").exists()

    def test_oracle_csvs_round_trip_the_solve(self, workspace):
        tmp_path, cfg, data_dir = workspace
        out = tmp_path / "oracle"
        assert main([
            "oracle", "--manifest", str(data_dir / "manifest.json"),
            "--config", str(cfg), "--out", str(out), "--quiet",
        ]) == 0
        dataset = load(data_dir / "manifest.json")
        state = solve(dataset.views, AdmmConfig(max_iter=30), code_dim=dataset.class_count)
        for v in range(state.n_views):
            for kind, mat in (("z", state.z[v]), ("d", state.d[v]), ("e", state.e[v])):
                read = np.loadtxt(out / f"{kind}_{v}.csv", delimiter=",", ndmin=2)
                assert np.array_equal(read, mat), (kind, v)
        trace = np.loadtxt(out / "objective_trace.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(trace[:, 1], state.objective_trace)

    def test_checkpoint_schema_round(self, workspace):
        tmp_path, cfg, data_dir = workspace
        run = tmp_path / "run"
        main([
            "train", "--manifest", str(data_dir / "manifest.json"),
            "--split", str(tmp_path / "split.json"),
            "--config", str(cfg), "--out", str(run), "--quiet",
        ])
        payload = json.loads((run / "checkpoint.json").read_text())
        assert payload["schema_version"] == CHECKPOINT_SCHEMA_VERSION


def rows_of_class(data_dir, cls):
    labels = np.loadtxt(data_dir / "labels.csv", dtype=np.int64)
    return np.flatnonzero(labels == cls).tolist()


class TestMatrixCsv:
    """`_write_matrix_csv` writes what the `float_repr` join of each row gives."""

    @staticmethod
    def float_repr_join(mat):
        lines = [",".join(float_repr(x) for x in row) for row in np.atleast_2d(mat)]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("mat", [
        np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 5e-324], [1e16, 1.0 / 3.0, -2.5]]),
        np.array([[0.1, -1.0 / 3.0], [np.nan, 3.4028235e38]], dtype=np.float32),
        np.array([[1, -2, 2**53 + 1], [0, 7, -(2**62)]], dtype=np.int64),
        np.array([[True, False], [False, True]]),
        np.array([1.5, -0.0, 1e-300, 123456789.125]),
        np.array([[-7.25]]),
        np.random.default_rng(60).normal(size=(9, 13)) * 10.0 ** np.arange(-6, 7),
    ], ids=["float64-specials", "float32", "int64", "bool", "1-D", "1x1", "random"])
    def test_bytes_equal_float_repr_join(self, tmp_path, mat):
        path = tmp_path / "m.csv"
        _write_matrix_csv(path, mat)
        assert path.read_bytes() == self.float_repr_join(mat).encode()


class TestBadSplitFile:
    """`train` exits 2 on a split file that does not fit, and the message
    names the file or the field."""

    @pytest.mark.parametrize("edit, message", [
        (lambda s, d: s["train_idx"].append(-21), r"split\.train_idx: .*first \[-21\]"),
        (lambda s, d: s["train_idx"].append(s["train_idx"][0] - 60),
         r"split\.train_idx: .*first \[-\d+\]"),
        (lambda s, d: s["train_idx"].append(10**6), r"split\.train_idx: .*first \[1000000\]"),
        (lambda s, d: s["train_idx"].append(rows_of_class(d, s["unknown_classes"][0])[0]),
         r"split\.train_idx: 1 of \d+ rows are not of a class in split\.known_classes"),
        (lambda s, d: s["known_classes"].append(7), r"split\.known_classes: .*first \[7\]"),
        (lambda s, d: s.update(extra=1), r"split file .*split\.json: .*unknown \['extra'\]"),
        (lambda s, d: s.pop("seed"), r"split file .*split\.json: .*missing \['seed'\]"),
    ], ids=["negative_row", "negative_known_row", "row_past_end", "unknown_class_row",
            "class_past_end", "extra_key", "missing_key"])
    def test_train_rejects(self, workspace, caplog, edit, message):
        tmp_path, cfg, data_dir = workspace
        path = tmp_path / "split.json"
        split = json.loads(path.read_text())
        edit(split, data_dir)
        path.write_text(json.dumps(split))
        run = tmp_path / "run"
        assert main([
            "train", "--manifest", str(data_dir / "manifest.json"), "--split", str(path),
            "--config", str(cfg), "--out", str(run), "--quiet",
        ]) == EXIT_RUNTIME
        assert re.search(message, caplog.text)
        assert not (run / "checkpoint.json").exists()

    @pytest.mark.parametrize("text", ["[1, 2]", "{not json"], ids=["not_object", "not_json"])
    def test_unreadable_split_names_file(self, workspace, caplog, text):
        tmp_path, cfg, data_dir = workspace
        path = tmp_path / "split.json"
        path.write_text(text)
        assert main([
            "train", "--manifest", str(data_dir / "manifest.json"), "--split", str(path),
            "--config", str(cfg), "--out", str(tmp_path / "run"), "--quiet",
        ]) == EXIT_RUNTIME
        assert f"split file {path}:" in caplog.text


class TestNormalizedEval:
    """`eval` of a model trained with `normalize` standardizes the test rows by
    the split's train rows, so a bad `train_idx` entry fails the command."""

    @pytest.fixture
    def normalized_run(self, workspace):
        tmp_path, cfg, data_dir = workspace
        config = json.loads(cfg.read_text())
        config["train"].update(normalize=True, learning_rate=0.005)
        cfg.write_text(json.dumps(config))
        run = tmp_path / "run"
        assert main(["train", "--manifest", str(data_dir / "manifest.json"),
                     "--split", str(tmp_path / "split.json"), "--config", str(cfg),
                     "--out", str(run), "--quiet"]) == 0
        return tmp_path, cfg, data_dir, run / "checkpoint.json"

    def _eval(self, normalized_run, split_path):
        tmp_path, cfg, data_dir, checkpoint = normalized_run
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(checkpoint),
                     "--manifest", str(data_dir / "manifest.json"), "--split", str(split_path),
                     "--config", str(cfg), "--out", str(out), "--quiet"])
        return code, out

    def test_normalized_eval_runs(self, normalized_run):
        code, out = self._eval(normalized_run, normalized_run[0] / "split.json")
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["n_test"] > 0

    @pytest.mark.parametrize("bad, message", [
        (-1, r"split\.train_idx: 1 of \d+ entries outside \[0, 60\), first \[-1\]"),
        (2.7, r"split\.train_idx: \d+ of \d+ entries not integers \(float64\)"),
        (10**6, r"split\.train_idx: 1 of \d+ entries outside \[0, 60\), first \[1000000\]"),
    ], ids=["negative", "fraction", "past_end"])
    def test_bad_train_row_is_runtime_error(self, normalized_run, caplog, bad, message):
        path = normalized_run[0] / "split.json"
        split = json.loads(path.read_text())
        split["train_idx"][0] = bad
        path.write_text(json.dumps(split))
        code, out = self._eval(normalized_run, path)
        assert code == EXIT_RUNTIME
        assert re.search(r"SplitError: " + message, caplog.text)
        assert not (out / "summary.json").exists()


class TestGradcheckCommand:
    def test_exit_zero_when_passing(self, capsys):
        assert main(["gradcheck", "--seed", "7", "--quiet"]) == 0
        assert "max relative error" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [3, 7])
    def test_matches_deep_copy_loop(self, seed):
        # the in-place audit perturbs and restores the same entries the
        # deep-copy loop perturbed on fresh copies, so every figure is equal
        assert run_gradcheck(seed) == ref.run_gradcheck(seed)


class TestDiagCommand:
    def test_report_structure(self, tmp_path, capsys):
        code = main(["diag", "--trials", "50", "--out", str(tmp_path), "--quiet"])
        assert code == 0
        report = json.loads((tmp_path / "diag.json").read_text())
        assert report["contraction"]["passed"]
        assert report["gradient_bound"]["holds"]
        assert "512->1024" in report["scaling"]["ratios"]
