"""The three workloads: set-up, one user-facing operation, output checks.

Each workload calls the package only through module attributes
(`trainer.train`, `evaluation.score_test_set`, `cli.main`), so the
wrappers of `tracing.py` see every call when they are installed.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from openviewer import cli, evaluation, trainer

import inputs


def oscr_auc(curve) -> float:
    """Area under CCR over FPR, from (FPR 0, CCR 0) through every point."""
    fpr = np.array([0.0] + [f for _, _, f in curve.points])
    ccr = np.array([0.0] + [c for _, c, _ in curve.points])
    return float(np.sum(np.diff(fpr) * (ccr[1:] + ccr[:-1]) / 2.0))


def curve_failures(curve) -> list[str]:
    """CCR and FPR may not increase as the threshold rises."""
    pts = np.array(curve.points)  # thresholds run high to low
    if pts.size == 0:
        return ["empty OSCR curve"]
    out = []
    if np.any(np.diff(pts[:, 0]) >= 0):
        out.append("OSCR thresholds are not strictly decreasing")
    if np.any(np.diff(pts[:, 1]) < 0):
        out.append("CCR increases with the threshold")
    if np.any(np.diff(pts[:, 2]) < 0):
        out.append("FPR increases with the threshold")
    return out


class Workload:
    name = ""

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def run(self):
        """One user-facing operation; the caller times it."""
        raise NotImplementedError

    def attempts(self) -> int:
        """Operations one run() attempts: batches, chunks or solver runs."""
        raise NotImplementedError

    def check(self, outcome) -> tuple[int, list[str]]:
        """Failed operations in `outcome` and a message per failed check."""
        raise NotImplementedError

    #: (name, value, unit) of output-quality figures from the last check
    figures: list[tuple[str, float, str]] = []


class TrainCanonical(Workload):
    name = "train_canonical"

    def setup(self, seed, workdir):
        # the canonical instance whatever the seed; see inputs.CANONICAL_SEED
        self.dataset, self.split, _ = inputs.openset_train()
        self.config = inputs.train_config()
        per_epoch = math.ceil(len(self.split.train_idx) / self.config.batch_size)
        self.batches = self.config.epochs * per_epoch

    def run(self):
        return trainer.train(self.dataset, self.split, self.config)

    def attempts(self):
        return self.batches

    def score(self, params, centers):
        """The canonical test split scored as one batch (criterion 4's way)."""
        preds = evaluation.score_test_set(params, centers, self.dataset, self.split,
                                          normalize=False)
        return evaluation.oscr_curve(preds)

    def check(self, outcome):
        params, centers, log = outcome
        last = log.epochs[-1]
        if not all(math.isfinite(x) for x in (last.total, last.known, last.unknown, last.center)):
            return self.batches, [f"last-epoch loss is not finite: {last}"]
        curve = self.score(params, centers)
        ccr = evaluation.ccr_at_fpr(curve, inputs.CCR_FPR)
        self.figures = [("ccr_fpr10", ccr, "ratio"), ("oscr_auc", oscr_auc(curve), "ratio")]
        if ccr != inputs.CANONICAL_CCR_FPR10:
            return 0, [f"ccr_fpr10 {ccr!r} != recorded {inputs.CANONICAL_CCR_FPR10!r}"]
        return 0, []


class EvalOpenset(Workload):
    name = "eval_openset"

    def setup(self, seed, workdir):
        dataset, split, factors = inputs.openset_train()
        self.params, self.centers, _ = trainer.train(dataset, split, inputs.train_config())
        self.dataset, self.split, self.chunks = inputs.openset_eval(seed, split, factors)
        self.first = None

    def run(self):
        scored, errors = [], []
        for chunk in self.chunks:
            try:
                scored.append(evaluation.score_test_set(
                    self.params, self.centers, self.dataset, self.split,
                    normalize=False, indices=chunk))
            except Exception as exc:  # noqa: BLE001 - a failed chunk is counted, not fatal
                errors.append(f"{type(exc).__name__}: {exc}")
        curve = evaluation.oscr_curve([p for preds in scored for p in preds])
        return scored, errors, curve, evaluation.summary(curve)

    def attempts(self):
        return len(self.chunks)

    def check(self, outcome):
        scored, errors, curve, summary = outcome
        problems = [f"chunk raised {e}" for e in errors]
        for preds in scored:
            conf = np.array([p.confidence for p in preds])
            if not np.all(np.isfinite(conf) & (conf >= 0.0) & (conf <= 1.0)):
                problems.append("chunk confidence is not finite or outside [0, 1]")
        failed = len(problems)
        problems += curve_failures(curve)
        ccr = summary[f"ccr_at_fpr_{inputs.CCR_FPR:g}"]
        self.figures = [("ccr_fpr10", ccr, "ratio"), ("oscr_auc", oscr_auc(curve), "ratio")]
        if self.first is None:
            self.first = curve.points
        elif curve.points != self.first:
            problems.append("OSCR curve differs from this run's first pass")
        return failed, problems


class OraclePlanted(Workload):
    name = "oracle_planted"

    OUTPUTS = ("objective_trace.csv",) + tuple(
        f"{kind}_{v}.csv" for v in range(len(inputs.ORACLE["dims"])) for kind in "zde")

    def setup(self, seed, workdir):
        data = workdir / "oracle_data"
        self.truth = inputs.write_oracle_inputs(seed, data)
        self.out = workdir / "oracle_out"
        self.argv = ["oracle", "--manifest", str(data / "manifest.json"),
                     "--config", str(data / "config.json"), "--out", str(self.out), "--quiet"]
        self.digest = None

    def run(self):
        return cli.main(self.argv)

    def attempts(self):
        return 1

    def check(self, code):
        if code != 0:
            return 1, [f"oracle exited with code {code}"]
        digest = hashlib.sha256()
        for name in self.OUTPUTS:
            digest.update((self.out / name).read_bytes())
        if self.digest is not None:
            same = digest.hexdigest() == self.digest
            return (0, []) if same else (1, ["oracle outputs differ from this run's first solve"])
        self.digest = digest.hexdigest()
        return self._check_outputs()

    def _check_outputs(self):
        """Full check of the first solve, in the spirit of criterion 3."""
        load = lambda name: np.loadtxt(self.out / name, delimiter=",", ndmin=2)  # noqa: E731
        trace = np.loadtxt(self.out / "objective_trace.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
        problems = []
        if not np.all(np.diff(trace) <= 0.0):
            problems.append("objective trace increases")
        errs, f1s = [], []
        for v, (x, true_cols) in enumerate(zip(self.truth["views"], self.truth["noise_columns"])):
            z, d, e = load(f"z_{v}.csv"), load(f"d_{v}.csv"), load(f"e_{v}.csv")
            if not all(np.all(np.isfinite(m)) for m in (z, d, e)):
                return 1, [f"view {v}: non-finite solver output"]
            errs.append(float(np.linalg.norm(x - z @ d - e) / np.linalg.norm(x)))
            found = set(np.flatnonzero(np.linalg.norm(e, axis=0) > 1e-8).tolist())
            true = set(true_cols.tolist())
            tp = len(found & true)
            precision = tp / len(found) if found else 0.0
            recall = tp / len(true) if true else 1.0
            f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
        self.figures = [("recon_rel_err", max(errs), "ratio"), ("noise_support_f1", min(f1s), "ratio")]
        if max(errs) > 0.05:
            problems.append(f"recon_rel_err {max(errs):.4f} > 0.05")
        if min(f1s) < 0.9:
            problems.append(f"noise-column support F1 {min(f1s):.3f} < 0.9")
        return (1 if problems else 0), problems


WORKLOADS = {w.name: w for w in (TrainCanonical, EvalOpenset, OraclePlanted)}
