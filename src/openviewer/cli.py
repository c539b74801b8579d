"""Command-line entry point.

Subcommands: synth (planted data), split (openness split), train, eval,
oracle (non-learned solver), gradcheck (finite-difference audit), diag
(theory diagnostics). Every run is a pure function of its config file,
flags, and input files; outputs are written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
import time
import typing
from pathlib import Path

import numpy as np

from . import CHECKPOINT_SCHEMA_VERSION, __version__
from ._io import atomic_write_text, canonical_json, float_repr

logger = logging.getLogger("openviewer")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class ConfigError(ValueError):
    """Bad config file contents."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def version_info() -> str:
    return f"openviewer {__version__} (checkpoint-schema {CHECKPOINT_SCHEMA_VERSION})"


def _reject_unknown(data: dict, known, where: str) -> None:
    unknown = set(data).difference(known)
    if unknown:
        raise ConfigError(f"unknown config keys in '{where}': {sorted(unknown)}")


def _fits(hint, value) -> bool:
    """Whether a JSON value has a config field's type: a bool is no number, an int is a float,
    a float is finite, and a list is a tuple of the hint's length, or of any length if the
    hint ends in `...`."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        seq = isinstance(value, (list, tuple))
        kinds = args[:1] * len(value) if seq and args[-1] is ... else args
        return seq and len(value) == len(kinds) and all(map(_fits, kinds, value))
    if args:  # X | None
        return any(_fits(arg, value) for arg in args)
    kinds = (int, float) if hint is float else hint
    if not isinstance(value, kinds) or (hint is not bool and isinstance(value, bool)):
        return False
    try:
        return hint is not float or math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _dataclass_from_dict(cls, data: dict, where: str):
    """Build a dataclass from a dict, rejecting unknown keys and values not
    of their field's type. Fields typed as a dataclass are built
    recursively; JSON lists become tuples for tuple-typed fields."""
    hints = typing.get_type_hints(cls)
    _reject_unknown(data, (f.name for f in dataclasses.fields(cls)), where)
    kwargs = {}
    for name, value in data.items():
        hint = hints[name]
        if dataclasses.is_dataclass(hint):
            if not isinstance(value, dict):
                raise ConfigError(f"config section '{where}.{name}' must be an object")
            value = _dataclass_from_dict(hint, value, f"{where}.{name}")
        elif not _fits(hint, value):
            kind = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ConfigError(f"config value '{where}.{name}' must be {kind}, got {value!r}")
        elif typing.get_origin(hint) is tuple:
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


def _build_sections(config: dict) -> dict:
    """Each section of `config` built as its command reads it, so every command refuses
    a bad key in any section; a section's dataclass is imported only if it is present."""
    _reject_unknown(config, ("synth", "split", "train", "eval", "oracle"), "config")
    built = {}
    for name, data in config.items():
        if not isinstance(data, dict):
            raise ConfigError(f"config section '{name}' must be an object")
        if name == "synth":
            from .synthgen import SynthSpec as cls
        elif name == "split":
            from .dataset import SplitConfig as cls
        elif name == "train":
            from .trainer import TrainConfig as cls
            # init_params reads only these; the solver's other settings do nothing in training
            if isinstance(data.get("admm"), dict):
                _reject_unknown(data["admm"], ("alpha", "beta", "gamma"), "train.admm")
        elif name == "eval":
            from .evaluation import EvalConfig as cls
        else:
            from .admm_oracle import AdmmConfig as cls
        built[name] = _dataclass_from_dict(cls, data, name)
    return built


def _write_matrix_csv(path, mat) -> None:
    """A float64 row's `tolist()` holds Python floats, whose `repr` is exactly `float_repr`."""
    # row by row: one tolist() of the whole matrix raised the oracle's peak RSS by ~0.3 MB
    rows = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    lines = [",".join(map(repr, row.tolist())) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args, configs):
    from .synthgen import SynthSpec, generate

    spec = configs.get("synth") or SynthSpec()
    if args.spec:
        spec = _dataclass_from_dict(SynthSpec, _load_config_file(args.spec), "synth")
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    dataset, planted = generate(spec)

    out = Path(args.out)
    view_files = []
    for v, mat in enumerate(dataset.views):
        name = f"view_{v}.csv"
        _write_matrix_csv(out / name, mat)
        view_files.append(name)
    atomic_write_text(out / "labels.csv", "\n".join(str(c) for c in dataset.labels) + "\n")
    manifest = {"views": view_files, "labels": "labels.csv", "name": f"synth-{spec.seed}"}
    atomic_write_text(out / "manifest.json", canonical_json(manifest))

    _write_matrix_csv(out / "planted_z.csv", planted.z)
    truth = {"z": "planted_z.csv", "d": [], "e": [], "noise_columns": []}
    for v in range(dataset.n_views):
        d_name, e_name = f"planted_d_{v}.csv", f"planted_e_{v}.csv"
        _write_matrix_csv(out / d_name, planted.d[v])
        _write_matrix_csv(out / e_name, planted.e[v])
        truth["d"].append(d_name)
        truth["e"].append(e_name)
        truth["noise_columns"].append([int(c) for c in planted.noise_columns[v]])
    atomic_write_text(out / "planted.json", canonical_json(truth))
    logger.info("wrote synthetic dataset (%d samples, %d views) to %s",
                dataset.n_samples, dataset.n_views, out)
    return EXIT_OK


def _cmd_split(args, configs):
    from .dataset import SplitConfig, load, openness_split

    flags = {k: v for k in ("openness", "ratios", "seed") if (v := getattr(args, k)) is not None}
    cfg = dataclasses.replace(configs.get("split") or SplitConfig(), **flags)
    dataset = load(args.manifest)
    split = openness_split(dataset, cfg.openness, cfg.ratios, cfg.seed)
    out = Path(args.out)
    path = out / "split.json" if out.suffix == "" else out
    atomic_write_text(path, split.to_json())
    logger.info(
        "split: %d known / %d unknown classes, openness %.4f (requested %.4f)",
        len(split.known_classes), len(split.unknown_classes),
        split.openness_achieved, split.openness_requested,
    )
    return EXIT_OK


def _load_split(path):
    from .dataset import OpennessSplit, SplitError

    try:
        return OpennessSplit.from_json(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise SplitError(f"split file {path}: {exc}") from exc


def _cmd_train(args, configs):
    from .dataset import load
    from .trainer import TrainConfig, save_checkpoint, train

    cfg = configs.get("train") or TrainConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    dataset = load(args.manifest)
    split = _load_split(args.split)
    params, centers, log = train(dataset, split, cfg)
    out = Path(args.out)
    save_checkpoint(params, centers, cfg, out / "checkpoint.json")
    atomic_write_text(out / "train_log.csv", log.to_csv())
    weights = params.fusion_weights_snapshot
    atomic_write_text(
        out / "fusion_weights.json",
        canonical_json({"weights": [float(w) for w in weights]}),
    )
    logger.info("trained %d epochs; checkpoint at %s", cfg.epochs, out / "checkpoint.json")
    return EXIT_OK


def _cmd_eval(args, configs):
    from .dataset import load
    from .evaluation import EvalConfig, oscr_curve, score_with_codes, summary as ccr_summary
    from .trainer import load_checkpoint

    eval_cfg = configs.get("eval") or EvalConfig()
    params, _, train_cfg = load_checkpoint(args.checkpoint)
    dataset = load(args.manifest)
    split = _load_split(args.split)
    preds, fused = score_with_codes(
        params, dataset, split, normalize=train_cfg.get("normalize", True)
    )
    curve = oscr_curve(preds)
    out = Path(args.out)

    columns = (curve.thresholds.tolist(), curve.ccr.tolist(), curve.fpr.tolist())
    lines = ["threshold,ccr,fpr"]
    lines += [",".join(map(float_repr, row)) for row in zip(*columns)]
    atomic_write_text(out / "oscr_curve.csv", "\n".join(lines) + "\n")

    summary = ccr_summary(curve, eval_cfg.fpr_targets)
    known_hits = [p.predicted == p.true_label for p in preds if not p.is_unknown_truth]
    summary["known_accuracy"] = float(np.mean(known_hits)) if known_hits else 0.0
    summary["n_test"] = len(preds)
    atomic_write_text(out / "summary.json", canonical_json(summary))

    _write_matrix_csv(out / "fused.csv", fused)
    logger.info("eval summary: %s", summary)
    return EXIT_OK


def _cmd_oracle(args, configs):
    from .admm_oracle import AdmmConfig, solve
    from .dataset import load

    cfg = configs.get("oracle") or AdmmConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    dataset = load(args.manifest)
    state = solve(dataset.views, cfg, code_dim=dataset.class_count)
    out = Path(args.out)
    trace_lines = ["iteration,objective"]
    trace_lines += [f"{i},{float_repr(v)}" for i, v in enumerate(state.objective_trace)]
    atomic_write_text(out / "objective_trace.csv", "\n".join(trace_lines) + "\n")
    for v in range(state.n_views):
        _write_matrix_csv(out / f"z_{v}.csv", state.z[v])
        _write_matrix_csv(out / f"d_{v}.csv", state.d[v])
        _write_matrix_csv(out / f"e_{v}.csv", state.e[v])
    logger.info(
        "oracle: %d iterations, objective %.6g -> %.6g",
        len(state.objective_trace) - 1, state.objective_trace[0], state.objective_trace[-1],
    )
    return EXIT_OK


def build_gradcheck_scenario(seed: int):
    """The canonical audit batch: 10 known samples over 5 classes in 2
    views, plus mixed pseudo rows, through a 2-layer network."""
    from .admm_oracle import AdmmConfig
    from .dataset import Batch
    from .pseudo_gen import MixConfig, generate_pseudo
    from .unfold_net import init_params

    rng = np.random.default_rng([seed, 900])
    c, dims = 5, (12, 10)
    labels = np.arange(10) % c
    views = [rng.normal(size=(10, d)) for d in dims]
    batch = Batch(views=views, labels=labels, is_pseudo=np.zeros(10, dtype=bool))
    mix = MixConfig(omega=2.0, pseudo_ratio=0.5)
    combined = generate_pseudo(batch, mix, np.random.default_rng([seed, 901]), c)
    params = init_params(
        dims, c, AdmmConfig(alpha=0.05, beta=0.1, gamma=0.5),
        seed=[seed, 902], num_layers=2, expected_rows=batch.size + mix.pseudo_rows(batch.size),
    )
    return combined, params


def run_gradcheck(seed: int = 7, eps: float = 1e-5):
    """Max relative error of the analytic gradient of the full training
    loss over every parameter, against central finite differences."""
    from . import tensor_core as tc
    from .losses import LossConfig, total_loss
    from .unfold_net import _views, forward

    combined, params = build_gradcheck_scenario(seed)
    loss_cfg = LossConfig(xi=1.0, lambda1=0.3, lambda2=0.2)
    rng = np.random.default_rng([seed, 903])
    centers = rng.normal(size=(5, 5)) * 0.3

    def loss():
        res = forward(combined, params, labels_for_fusion=combined.labels)
        node, _ = total_loss(res.z_fused, combined.labels, combined.is_pseudo, centers, loss_cfg)
        return node, res.grad

    # analytic gradients come from the tape's gradient vector; the
    # finite-difference twin perturbs raw entries through the whole pipeline
    root, grad = loss()
    tc.backward(root)

    grads = _views(grad, params.shapes())
    per_param = {
        name: tc.central_difference_error(lambda: loss()[0].item(), params.arrays[name], g, eps)
        for name, g in grads.items()
    }
    grad_norms = {name: float(np.linalg.norm(g)) for name, g in grads.items()}
    return max(per_param.values()), per_param, grad_norms


def _cmd_gradcheck(args, configs):
    seed = args.seed if args.seed is not None else 7
    start = time.perf_counter()
    worst, per_param, _ = run_gradcheck(seed)
    elapsed = time.perf_counter() - start
    print(f"gradcheck seed {seed}: max relative error {worst:.3e} ({elapsed:.1f}s)")
    if not args.quiet:
        for name in sorted(per_param, key=per_param.get, reverse=True)[:5]:
            print(f"  {name}: {per_param[name]:.3e}")
    return EXIT_OK if worst < 1e-4 else EXIT_RUNTIME


def _cmd_diag(args, configs):
    from .evaluation import contraction_diagnostic
    from .losses import LossConfig, batch_stats, gradient_bound, measured_gradient_norm, total_loss
    from .unfold_net import forward, init_params
    from . import tensor_core as tc

    seed = args.seed if args.seed is not None else 0
    report = {"version": version_info()}

    params = init_params([16, 12], 6, seed=[seed, 100], num_layers=2)
    contraction = contraction_diagnostic(params, view=0, trials=args.trials, seed=seed)
    report["contraction"] = dataclasses.asdict(contraction)

    scenario, gparams = build_gradcheck_scenario(seed)
    res = forward(scenario, gparams, labels_for_fusion=scenario.labels)
    cfg = LossConfig(xi=1.0, lambda1=0.3, lambda2=0.2)
    centers = np.zeros((5, 5))
    node, _ = total_loss(res.z_fused, scenario.labels, scenario.is_pseudo, centers, cfg)
    tc.backward(node)
    stats = batch_stats(res.z_fused.value, scenario.labels, scenario.is_pseudo, centers)
    bound = gradient_bound(cfg, stats)
    measured = measured_gradient_norm(res.z_fused.grad)
    report["gradient_bound"] = {
        "bound": bound,
        "measured": measured,
        "holds": bool(measured <= bound),
    }

    ok = contraction.passed and measured <= bound
    text = canonical_json(report)
    if args.out:
        atomic_write_text(Path(args.out) / "diag.json", text)
    print(text, end="")
    return EXIT_OK if ok else EXIT_RUNTIME


# ---------------------------------------------------------------------------
# argument wiring


def _ratios(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 3:  # a part that is no number raises argparse's usage error too
        raise argparse.ArgumentTypeError(f"needs three comma-separated numbers, got {text!r}")
    return tuple(map(float, parts))


def _seed(text: str) -> int:
    if not text.isdecimal():  # a sign, a fraction or no number at all
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="openviewer", description=__doc__)
    parser.add_argument("--version", action="version", version=version_info())
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=_seed, default=None)
        p.add_argument("--quiet", action="store_true")
        if out_required:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate a planted multi-view dataset")
    p.add_argument("--spec", default=None, help="JSON file with the data spec")
    common(p)

    p = sub.add_parser("split", help="compute an openness-based class split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--openness", type=float, default=None)
    p.add_argument("--ratios", type=_ratios, default=None, help="train,val,test")
    common(p)

    p = sub.add_parser("train", help="train the unfolded network")
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", required=True)
    common(p)

    p = sub.add_parser("eval", help="open-set evaluation of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", required=True)
    common(p)

    p = sub.add_parser("oracle", help="run the non-learned solver on a manifest")
    p.add_argument("--manifest", required=True)
    common(p)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    common(p, out_required=False)

    p = sub.add_parser("diag", help="contraction and gradient-bound diagnostics")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--out", default=None, help="output directory")
    common(p, out_required=False)

    return parser


_COMMANDS = {
    "synth": _cmd_synth,
    "split": _cmd_split,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "oracle": _cmd_oracle,
    "gradcheck": _cmd_gradcheck,
    "diag": _cmd_diag,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.WARNING if getattr(args, "quiet", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        configs = _build_sections(_load_config_file(getattr(args, "config", None)))
        return _COMMANDS[args.command](args, configs)
    except ConfigError as exc:
        logger.error("%s", exc)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        logger.error("%s: %s", type(exc).__name__, exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
