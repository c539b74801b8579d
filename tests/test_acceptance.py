"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line. Tolerances are pinned here and nowhere else."""

import json
import time

import numpy as np
import pytest

import openviewer.tensor_core as tc
from openviewer import admm_oracle as ao
from openviewer import evaluation as ev
from openviewer import synthgen, trainer
from openviewer.cli import main as cli_main, run_gradcheck
from openviewer.dataset import Batch
from openviewer.evaluation import contraction_diagnostic
from openviewer.unfold_net import forward, init_params

from helpers import (
    analytic_params_from_oracle,
    benchmark_train_config,
    load_benchmark_fixture,
    make_openset_benchmark,
)
from test_evaluation import brute_force_curve, random_predictions
from timing import forward_backward_seconds

FIXTURE_DIR = __file__.rsplit("/", 1)[0] + "/fixtures"


def report(number, name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {name} {detail}")
    assert ok, f"criterion {number} failed: {name} {detail}"


@pytest.fixture(scope="module")
def canonical_run():
    """The default synthetic training run (benchmark fixture, seed 1)."""
    data, split = make_openset_benchmark(1)
    cfg = benchmark_train_config(1)
    params, centers, log = trainer.train(data, split, cfg)
    return data, split, cfg, params, centers, log


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    worst, per_param, grad_norms = run_gradcheck(seed=7, eps=1e-5)
    elapsed = time.perf_counter() - start
    kinds = {name.split("/")[0] for name in per_param}
    # each kind must actually receive gradient somewhere (non-vacuous check)
    live = {k: max(v for n, v in grad_norms.items() if n.startswith(k)) for k in kinds}
    ok = (
        worst < 1e-4
        and elapsed < 30.0
        and kinds == {"r", "u", "m", "theta", "rho", "d_init"}
        and all(v > 0 for v in live.values())
    )
    report(1, "gradient correctness", ok, f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_unfolded_admm_equivalence():
    rng = np.random.default_rng(14)
    x_views = [rng.normal(size=(12, 9)), rng.normal(size=(12, 7))]
    cfg = ao.AdmmConfig(alpha=0.15, beta=0.4, gamma=0.6, seed=14)
    worst_stack = 0.0
    # z of every layer; d and e of every layer but the last, which runs RF
    # only: 5 layers cover d and e of solver iterations 1-4
    for layers in (1, 2, 4, 5):
        params, snapshots = analytic_params_from_oracle(x_views, cfg, 5, layers)
        batch = Batch(
            views=x_views,
            labels=np.zeros(12, dtype=np.int64),
            is_pseudo=np.zeros(12, dtype=bool),
        )
        res = forward(batch, params)
        for l in range(layers):
            for v in range(2):
                for key in "zde" if l < layers - 1 else "z":
                    mine = getattr(res.trace[l], key)[v]
                    worst_stack = max(
                        worst_stack, float(np.max(np.abs(mine - snapshots[l][key][v])))
                    )
    # per-module single-step check at a random interior point
    state = ao.init_state(x_views, cfg, code_dim=5)
    state.z = [rng.normal(size=z.shape) for z in state.z]
    state.e = [rng.normal(size=e.shape) * 0.2 for e in state.e]
    z_next = ao.z_step(state, x_views, cfg)
    d_next = ao.d_step(z_next, x_views, cfg)
    e_next = ao.e_step(d_next, x_views, cfg)
    worst_mod = 0.0
    from openviewer.unfold_net import cd_forward, dn_forward, rf_forward

    for v in range(2):
        lp = state.l_p[v]
        rf = rf_forward(
            tc.leaf(state.z[v]), tc.leaf(x_views[v]), tc.leaf(state.e[v]),
            tc.leaf(state.d[v]),
            tc.leaf(np.eye(5) - (state.d[v] @ state.d[v].T) / lp),
            tc.leaf(np.eye(5) / lp), tc.leaf([[cfg.alpha / lp]]),
        )
        worst_mod = max(worst_mod, float(np.max(np.abs(rf.value - z_next.z[v]))))
        cd = cd_forward(
            tc.leaf(z_next.z[v]), tc.leaf(x_views[v]), tc.leaf(state.e[v]),
            tc.leaf(np.linalg.inv(z_next.z[v].T @ z_next.z[v] + cfg.beta * np.eye(5))),
        )
        worst_mod = max(worst_mod, float(np.max(np.abs(cd.value - d_next.d[v]))))
        dn = dn_forward(
            tc.leaf(x_views[v]), tc.leaf(d_next.z[v]), tc.leaf(d_next.d[v]),
            tc.leaf([[cfg.gamma / d_next.l_p[v]]]),
        )
        worst_mod = max(worst_mod, float(np.max(np.abs(dn.value - e_next.e[v]))))
    ok = worst_stack <= 1e-10 and worst_mod <= 1e-10
    report(2, "unfolded/solver equivalence", ok,
           f"(stack {worst_stack:.2e}, modules {worst_mod:.2e})")


def test_criterion_3_planted_recovery():
    fixture = json.loads(open(f"{FIXTURE_DIR}/admm_defaults.json").read())
    spec = synthgen.SynthSpec(**fixture["data"])
    cfg = ao.AdmmConfig(**fixture["config"])
    assert cfg == ao.AdmmConfig(seed=cfg.seed)  # fixture matches library defaults
    data, planted = synthgen.generate(spec)
    start = time.perf_counter()
    state = ao.solve(data.views, cfg, code_dim=spec.classes)
    elapsed = time.perf_counter() - start
    errs, f1s = [], []
    for v in range(data.n_views):
        recon = state.z[v] @ state.d[v] + state.e[v]
        errs.append(
            float(np.linalg.norm(data.views[v] - recon) / np.linalg.norm(data.views[v]))
        )
        found = set(np.flatnonzero(np.linalg.norm(state.e[v], axis=0) > 1e-8).tolist())
        true = set(planted.noise_columns[v].tolist())
        tp = len(found & true)
        precision = tp / len(found) if found else 0.0
        recall = tp / len(true) if true else 1.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    trace = np.array(state.objective_trace)
    monotone = bool(np.all(np.diff(trace) <= 0.0))
    iterations = len(trace) - 1
    ok = (
        max(errs) <= fixture["targets"]["max_relative_reconstruction_error"]
        and min(f1s) >= fixture["targets"]["min_noise_support_f1"]
        and iterations <= fixture["targets"]["max_iterations"]
        and monotone
        and elapsed < 60.0
    )
    report(3, "planted recovery", ok,
           f"(rel err {max(errs):.4f}, F1 {min(f1s):.3f}, {iterations} iters, "
           f"monotone {monotone}, {elapsed:.1f}s)")


def test_criterion_4_ablation_trend():
    fixture = load_benchmark_fixture()["ablation_targets"]
    start = time.perf_counter()
    means = {}
    for tag, kwargs in (
        ("full", {}),
        ("lambda1_zero", {"lambda1": 0.0}),
        ("no_dn", {"ablation": "no_dn"}),
    ):
        ccrs = []
        for seed in fixture["seeds"]:
            data, split = make_openset_benchmark(seed)
            cfg = benchmark_train_config(seed, **kwargs)
            params, centers, _ = trainer.train(data, split, cfg)
            preds = ev.score_test_set(params, centers, data, split, normalize=False)
            ccrs.append(ev.ccr_at_fpr(ev.oscr_curve(preds), fixture["ccr_at_fpr"]))
        means[tag] = float(np.mean(ccrs))
    elapsed = time.perf_counter() - start
    gap_lambda = means["full"] - means["lambda1_zero"]
    gap_dn = means["full"] - means["no_dn"]
    ok = (
        gap_lambda >= fixture["min_gap_vs_lambda1_zero"]
        and gap_dn >= fixture["min_gap_vs_no_dn"]
        and elapsed < 300.0
    )
    report(4, "open-set ablation trend", ok,
           f"(full {means['full']:.3f}, gaps +{gap_lambda:.3f} / +{gap_dn:.3f}, {elapsed:.0f}s)")


def test_criterion_5_gradient_bound_every_batch(canonical_run):
    _, _, _, _, _, log = canonical_run
    # train() raises on any violation; the logged margin is the per-epoch
    # minimum of (bound - measured), so non-negative margins for every
    # epoch certify the bound held on 100% of batches
    margins = [e.bound_margin for e in log.epochs]
    ok = len(margins) > 0 and all(m >= 0.0 for m in margins)
    report(5, "gradient-norm bound holds on every batch", ok,
           f"(min margin {min(margins):.4f} over {len(margins)} epochs)")


def test_criterion_6_contraction():
    params = init_params([16, 12], 6, seed=123, num_layers=2)
    reports = []
    for view in range(2):
        rep = contraction_diagnostic(params, view=view, trials=1000, seed=view)
        reports.append(rep)
    ok = all(r.contractive and r.max_ratio <= r.spectral_norm_r + 1e-9 for r in reports)
    detail = ", ".join(
        f"view {i}: ratio {r.max_ratio:.4f} <= {r.spectral_norm_r:.4f}"
        for i, r in enumerate(reports)
    )
    report(6, "contraction diagnostic", ok, f"({detail})")


def test_criterion_7_loss_stabilization(canonical_run):
    _, _, _, _, _, log = canonical_run
    totals = [e.total for e in log.epochs]
    finite = all(
        np.isfinite(x)
        for e in log.epochs
        for x in (e.total, e.known, e.unknown, e.center)
    )
    first10 = float(np.mean(totals[:10]))
    last10 = float(np.mean(totals[-10:]))
    ok = finite and last10 < first10
    report(7, "loss stabilization", ok,
           f"(first-10 mean {first10:.3f} -> trailing-10 mean {last10:.3f}, finite {finite})")


def test_criterion_8_metric_correctness():
    rng = np.random.default_rng(88)
    mismatches = 0
    monotone_failures = 0
    for _ in range(1000):
        preds = random_predictions(rng, n=int(rng.integers(4, 40)))
        curve = ev.oscr_curve(preds)
        if curve.points != brute_force_curve(preds):
            mismatches += 1
        ccrs = [c for _, c, _ in curve.points]
        fprs = [f for _, _, f in curve.points]
        if ccrs != sorted(ccrs) or fprs != sorted(fprs):
            monotone_failures += 1
    ok = mismatches == 0 and monotone_failures == 0
    report(8, "metric correctness vs brute force", ok,
           f"({mismatches} mismatches, {monotone_failures} monotonicity failures / 1000 sets)")


def test_criterion_9_complexity_scaling():
    grid = (512, 1024, 2048)
    seconds = forward_backward_seconds(grid, repeats=7, seed=5)
    ratios = {f"{a}->{b}": tb / ta for a, b, ta, tb in zip(grid, grid[1:], seconds, seconds[1:])}
    ok = all(r <= 2.6 for r in ratios.values())
    report(9, "complexity scaling", ok,
           "(" + ", ".join(f"{k}: {v:.2f}" for k, v in ratios.items()) + ")")


def test_criterion_10_determinism(tmp_path):
    config = {
        "synth": {
            "classes": 5, "samples_per_class": 12, "views": 2, "dims": [12, 10],
            "sep_scale": 1.0, "noise_col_frac": 0.1, "noise_magnitude": 0.5,
            "jitter": 0.08, "seed": 11,
        },
        "split": {"openness": 0.2, "ratios": [0.5, 0.1, 0.4], "seed": 11},
        "train": {
            "epochs": 5, "batch_size": 16, "learning_rate": 0.02, "layers": 2,
            "seed": 11, "normalize": False, "threshold_step_scale": 0.01,
            "loss": {"xi": 0.3, "lambda1": 0.1, "lambda2": 0.1},
            "admm": {"alpha": 0.01, "beta": 0.1, "gamma": 2.0},
        },
        "eval": {"fpr_targets": [0.05, 0.1, 0.5]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    data_dir = tmp_path / "data"
    assert cli_main(["synth", "--config", str(cfg_path), "--out", str(data_dir), "--quiet"]) == 0
    split_path = tmp_path / "split.json"
    assert cli_main([
        "split", "--manifest", str(data_dir / "manifest.json"),
        "--config", str(cfg_path), "--out", str(split_path), "--quiet",
    ]) == 0

    artifacts = []
    for name in ("run_a", "run_b"):
        run_dir = tmp_path / name
        assert cli_main([
            "train", "--manifest", str(data_dir / "manifest.json"),
            "--split", str(split_path), "--config", str(cfg_path),
            "--out", str(run_dir), "--quiet",
        ]) == 0
        eval_dir = tmp_path / f"{name}_eval"
        assert cli_main([
            "eval", "--checkpoint", str(run_dir / "checkpoint.json"),
            "--manifest", str(data_dir / "manifest.json"),
            "--split", str(split_path), "--config", str(cfg_path),
            "--out", str(eval_dir), "--quiet",
        ]) == 0
        log_rows = (run_dir / "train_log.csv").read_text().strip().split("\n")
        header = log_rows[0].split(",")
        keep = [i for i, col in enumerate(header) if col != "time_s"]
        log_no_time = "\n".join(
            ",".join(row.split(",")[i] for i in keep) for row in log_rows
        )
        artifacts.append(
            (
                (run_dir / "checkpoint.json").read_bytes(),
                log_no_time,
                (eval_dir / "summary.json").read_bytes(),
                (eval_dir / "oscr_curve.csv").read_bytes(),
            )
        )
    ok = artifacts[0] == artifacts[1]
    report(10, "byte-identical reruns", ok,
           "(checkpoint, timestamp-free log, eval summary, curve)")
