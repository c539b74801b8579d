import numpy as np
import pytest

import openviewer.tensor_core as tc
from openviewer import synthgen
from openviewer.evaluation import (
    EvalConfig,
    MetricError,
    OscrCurve,
    ScoredPrediction,
    ccr_at_fpr,
    contraction_diagnostic,
    oscr_curve,
    score_test_set,
    score_with_codes,
    summary,
)
from openviewer.admm_oracle import AdmmConfig
from openviewer.dataset import SplitError, openness_split
from openviewer.losses import LossConfig
from openviewer.trainer import TrainConfig, train
from openviewer.unfold_net import forward, init_params

import fine_reference as ref
from helpers import batch_from_dataset, small_spec
from timing import forward_backward_seconds


def pred(conf, truth_unknown, correct=True, idx=0):
    return ScoredPrediction(
        index=idx,
        predicted=1 if correct and not truth_unknown else 2,
        confidence=conf,
        true_label=9 if truth_unknown else 1,
        is_unknown_truth=truth_unknown,
    )


def brute_force_curve(preds):
    """Independent exhaustive recomputation of the OSCR sweep."""
    known = [p for p in preds if not p.is_unknown_truth]
    unknown = [p for p in preds if p.is_unknown_truth]
    points = []
    for thr in sorted({p.confidence for p in preds}, reverse=True):
        cc = sum(1 for p in known if p.predicted == p.true_label and p.confidence >= thr)
        fp = sum(1 for p in unknown if p.confidence >= thr)
        points.append((thr, cc / len(known), fp / len(unknown)))
    return points


def random_predictions(rng, n=30):
    preds = []
    while True:
        preds = []
        for i in range(n):
            unknown = bool(rng.random() < 0.4)
            conf = float(np.round(rng.random(), 3))  # duplicates likely
            correct = bool(rng.random() < 0.6)
            preds.append(pred(conf, unknown, correct, idx=i))
        kinds = {p.is_unknown_truth for p in preds}
        if kinds == {True, False}:
            return preds


class TestOscrCurve:
    def test_perfect_separation(self):
        preds = [pred(0.9, False) for _ in range(5)] + [pred(0.1, True) for _ in range(5)]
        curve = oscr_curve(preds)
        assert (0.9, 1.0, 0.0) in curve.points

    def test_all_equal_confidences(self):
        preds = [pred(0.5, False), pred(0.5, False, correct=False), pred(0.5, True)]
        curve = oscr_curve(preds)
        assert len(curve.points) == 1
        thr, ccr, fpr = curve.points[0]
        assert ccr == 0.5 and fpr == 1.0

    def test_hand_case_matches_brute_force(self):
        preds = [
            pred(0.8, False, correct=True),
            pred(0.6, False, correct=False),
            pred(0.7, True),
            pred(0.5, True),
        ]
        curve = oscr_curve(preds)
        assert curve.points == brute_force_curve(preds)
        assert curve.points == [
            (0.8, 0.5, 0.0),
            (0.7, 0.5, 0.5),
            (0.6, 0.5, 0.5),
            (0.5, 0.5, 1.0),
        ]

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            preds = random_predictions(rng)
            assert oscr_curve(preds).points == brute_force_curve(preds)

    def test_monotone_as_threshold_decreases(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            points = oscr_curve(random_predictions(rng)).points
            ccrs = [c for _, c, _ in points]
            fprs = [f for _, _, f in points]
            assert ccrs == sorted(ccrs)
            assert fprs == sorted(fprs)

    def test_requires_both_kinds(self):
        with pytest.raises(MetricError):
            oscr_curve([pred(0.5, False)])


class TestCcrAtFpr:
    def test_perfect_curve_any_target(self):
        preds = [pred(0.9, False) for _ in range(4)] + [pred(0.1, True) for _ in range(4)]
        curve = oscr_curve(preds)
        for target in (0.01, 0.1, 0.5, 1.0):
            assert ccr_at_fpr(curve, target) == 1.0

    def test_no_point_under_target(self):
        curve = OscrCurve(np.array([0.5]), np.array([0.8]), np.array([0.4]))
        assert ccr_at_fpr(curve, 0.2) == 0.0

    def test_hand_case(self):
        preds = [
            pred(0.8, False, correct=True),
            pred(0.6, False, correct=False),
            pred(0.7, True),
            pred(0.5, True),
        ]
        assert ccr_at_fpr(oscr_curve(preds), 0.5) == 0.5

    def test_monotone_in_target(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            curve = oscr_curve(random_predictions(rng))
            values = [ccr_at_fpr(curve, t) for t in (0.05, 0.1, 0.3, 0.6, 1.0)]
            assert values == sorted(values)

    def test_target_domain(self):
        with pytest.raises(MetricError):
            ccr_at_fpr(OscrCurve(np.empty(0), np.empty(0), np.empty(0)), 0.0)

    def test_summary_matches_tuple_scan(self):
        # the scan over (thr, ccr, fpr) tuples that ccr_at_fpr used to make
        def scan(points, target):
            eligible = [ccr for _, ccr, fpr in points if fpr <= target]
            return max(eligible) if eligible else 0.0

        rng = np.random.default_rng(7)
        for _ in range(200):
            preds = random_predictions(rng, n=int(rng.integers(2, 60)))
            points = brute_force_curve(preds)
            got = summary(oscr_curve(preds), TARGETS)
            assert got == {f"ccr_at_fpr_{t:g}": scan(points, t) for t in TARGETS}
            assert all(type(v) is float for v in got.values())

    def test_default_targets_are_eval_configs(self):
        curve = oscr_curve(random_predictions(np.random.default_rng(9)))
        assert summary(curve) == summary(curve, EvalConfig().fpr_targets)

    def test_points_built_once_on_first_read(self):
        curve = oscr_curve(random_predictions(np.random.default_rng(8)))
        summary(curve)
        assert "points" not in vars(curve)  # the sweep and summary read the arrays
        points = curve.points
        assert curve.points is points
        assert points == list(zip(curve.thresholds.tolist(), curve.ccr.tolist(),
                                  curve.fpr.tolist()))


class TestScoreTestSet:
    def _setup(self):
        dataset, _ = synthgen.generate(small_spec(jitter=0.2))
        split = openness_split(dataset, 0.2, (0.5, 0.1, 0.4), seed=0)
        c = len(split.known_classes)
        params = init_params(dataset.view_dims, c, seed=0)
        params.fusion_weights_snapshot = np.full(dataset.n_views, 1.0 / dataset.n_views)
        centers = np.zeros((c, c))
        return dataset, split, params, centers

    def test_flags_partition_test_set(self):
        dataset, split, params, centers = self._setup()
        preds = score_test_set(params, centers, dataset, split, normalize=False)
        assert len(preds) == len(split.test_idx)
        unknown = set(split.unknown_classes)
        for p in preds:
            assert p.is_unknown_truth == (p.true_label in unknown)
            assert 0.0 <= p.confidence <= 1.0

    def test_deterministic(self):
        dataset, split, params, centers = self._setup()
        a = score_test_set(params, centers, dataset, split, normalize=False)
        b = score_test_set(params, centers, dataset, split, normalize=False)
        assert a == b

    def test_predictions_are_original_class_ids(self):
        dataset, split, params, centers = self._setup()
        preds = score_test_set(params, centers, dataset, split, normalize=False)
        known = set(split.known_classes)
        assert all(p.predicted in known for p in preds)

    def test_dimension_mismatch(self):
        dataset, split, params, centers = self._setup()
        params.view_dims = [d + 1 for d in params.view_dims]
        with pytest.raises(MetricError):
            score_test_set(params, centers, dataset, split, normalize=False)

    def test_non_finite_codes_raise(self):
        dataset, split, _, centers = self._setup()
        params = init_params(dataset.view_dims, len(split.known_classes), seed=0,
                             num_layers=2)
        params.fusion_weights_snapshot = np.full(dataset.n_views, 1.0 / dataset.n_views)
        for name, a in params.arrays.items():
            if name.startswith("u/"):
                a *= 1e300
        batch = batch_from_dataset(dataset, split.test_idx)
        with np.errstate(over="ignore", invalid="ignore"):
            fused = forward(batch, params, inference=True).z_fused
        bad = int(np.count_nonzero(~np.isfinite(fused).all(axis=1)))
        assert bad > 0
        message = f"not finite in {bad} of {len(split.test_idx)} rows"
        with pytest.raises(tc.NumericError, match=message):
            score_test_set(params, centers, dataset, split, normalize=False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["d_init/1", "r/2/0", "u/0/1", "theta/1/0", "m/0/0",
                                      "rho/1/1"])
    def test_non_finite_parameter_written_after_construction_raises(self, name, bad):
        dataset, split, _, centers = self._setup()
        params = init_params(dataset.view_dims, len(split.known_classes), seed=0,
                             num_layers=3)
        params.fusion_weights_snapshot = np.full(dataset.n_views, 1.0 / dataset.n_views)
        score_test_set(params, centers, dataset, split, normalize=False)
        params.arrays[name][0, 0] = bad
        with pytest.raises(tc.NumericError):
            score_test_set(params, centers, dataset, split, normalize=False)

    @pytest.mark.parametrize("indices, message", [
        ([3, -1, -5], r"indices: 2 of 3 entries outside \[0, 40\), first \[-1, -5\]"),
        ([0, 40, 39], r"indices: 1 of 3 entries outside \[0, 40\), first \[40\]"),
        (list(range(-7, 0)), r"indices: 7 of 7 entries .* first \[-7, -6, -5, -4, -3\]$"),
        ([[0, 1], [2, 3]], r"indices must be 1-D, got shape \(2, 2\)"),
        ([0.0, 1.5], r"indices: 2 of 2 entries not integers \(float64\), first \[0.0, 1.5\]"),
        ([True, False], r"indices: 2 of 2 entries not integers \(bool\)"),
    ])
    def test_bad_indices_raise(self, indices, message):
        dataset, split, params, centers = self._setup()
        assert dataset.n_samples == 40
        with pytest.raises(MetricError, match=message):
            score_test_set(params, centers, dataset, split, normalize=False, indices=indices)

    # the standardization statistics come from split.train_idx, so its rows are checked too
    @pytest.mark.parametrize("bad, message", [
        (-1, r"split\.train_idx: 1 of \d+ entries outside \[0, 40\), first \[-1\]"),
        (2.7, r"split\.train_idx: \d+ of \d+ entries not integers \(float64\)"),
        (10**6, r"split\.train_idx: 1 of \d+ entries outside \[0, 40\), first \[1000000\]"),
    ], ids=["negative", "fraction", "past_end"])
    def test_bad_train_rows_raise_when_normalizing(self, bad, message):
        dataset, split, params, _ = self._setup()
        split.train_idx = [bad] + split.train_idx[1:]
        score_with_codes(params, dataset, split, normalize=False)
        with pytest.raises(SplitError, match=message):
            score_with_codes(params, dataset, split, normalize=True)

    def test_indices_of_any_integer_dtype(self):
        dataset, split, params, centers = self._setup()
        for dtype in (np.int32, np.uint16, np.int64):
            preds = score_test_set(params, centers, dataset, split, normalize=False,
                                   indices=np.array([39, 0, 7, 7], dtype=dtype))
            assert [p.index for p in preds] == [39, 0, 7, 7]
            assert all(type(p.index) is int for p in preds)


def assert_rows_match(rows, ref_rows):
    """Equal fields, every one a plain Python int, float or bool."""
    assert len(rows) == len(ref_rows)
    kinds = (int, int, float, int, bool)
    for row, old in zip(rows, ref_rows):
        assert type(row) is ScoredPrediction
        for name, kind in zip(ScoredPrediction._fields, kinds):
            new_value, old_value = getattr(row, name), getattr(old, name)
            assert type(new_value) is kind and type(old_value) is kind, name
            assert new_value == old_value, name


TARGETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.3, 0.5, 1.0)


def assert_sweep_matches(preds):
    """OSCR points equal to the per-row reference's, so the summaries are too."""
    curve, ref_curve = oscr_curve(preds), ref.oscr_curve(preds)
    for name in ("thresholds", "ccr", "fpr"):
        column = getattr(curve, name)
        assert column.dtype == np.float64
        assert np.array_equal(column, getattr(ref_curve, name))
    assert curve.points == ref_curve.points
    assert all(type(x) is float for point in curve.points for x in point)
    assert all(type(v) is float for v in summary(curve, TARGETS).values())
    return curve


@pytest.fixture(scope="module")
def trained():
    spec = small_spec(samples_per_class=12, sep_scale=1.0, jitter=0.08,
                      noise_magnitude=0.5, seed=3)
    dataset, _ = synthgen.generate(spec)
    split = openness_split(dataset, 0.2, (0.5, 0.1, 0.4), seed=3)
    config = TrainConfig(
        epochs=4, batch_size=16, learning_rate=0.02, layers=2, seed=3,
        loss=LossConfig(xi=0.3, lambda1=0.1, lambda2=0.1),
        admm=AdmmConfig(alpha=0.01, beta=0.1, gamma=2.0), threshold_step_scale=0.01,
    )
    params, _, _ = train(dataset, split, config)
    return dataset, split, params


class TestColumnarMatchesReference:
    @pytest.mark.parametrize("normalize", [True, False])
    def test_trained_model(self, trained, normalize):
        dataset, split, params = trained
        preds, fused = score_with_codes(params, dataset, split, normalize)
        ref_preds, ref_fused = ref.score_with_codes(params, dataset, split, normalize)
        assert np.array_equal(fused, ref_fused)
        assert_rows_match(preds, ref_preds)
        assert {p.is_unknown_truth for p in preds} == {True, False}
        assert_sweep_matches(preds)

    def test_trained_model_in_chunks(self, trained):
        dataset, split, params = trained
        test = np.asarray(split.test_idx)
        for chunk in (test[::-1], test[:7], np.repeat(test[:3], 2)):
            preds, _ = score_with_codes(params, dataset, split, indices=chunk)
            ref_preds, _ = ref.score_with_codes(params, dataset, split, indices=chunk)
            assert_rows_match(preds, ref_preds)

    def test_random_predictions_with_ties(self):
        rng = np.random.default_rng(5)
        tied = 0
        for _ in range(200):
            preds = random_predictions(rng, n=int(rng.integers(2, 60)))
            # one decimal: most sets tie known and unknown rows on a threshold
            preds = [p._replace(confidence=round(p.confidence, 1)) for p in preds]
            tied += len({p.confidence for p in preds}) < len(preds)
            assert_sweep_matches(preds)
        assert tied > 150

    def test_all_correct_and_none_correct(self):
        rng = np.random.default_rng(6)
        for correct in (True, False):
            preds = [pred(float(np.round(rng.random(), 2)), bool(i % 3 == 0), correct, idx=i)
                     for i in range(40)]
            curve = assert_sweep_matches(preds)
            assert curve.points[-1][1] == (1.0 if correct else 0.0)

    def test_single_unknown_row(self):
        preds = [pred(0.9, False), pred(0.4, False, correct=False), pred(0.6, True, idx=2)]
        curve = assert_sweep_matches(preds)
        assert [fpr for _, _, fpr in curve.points] == [0.0, 1.0, 1.0]

    @pytest.mark.parametrize("preds", [
        [],
        [pred(0.5, False), pred(0.7, False)],
        [pred(0.5, True), pred(0.7, True)],
    ])
    def test_degenerate_sets_raise_like_reference(self, preds):
        with pytest.raises(MetricError, match="at least one known-truth and one unknown-truth"):
            oscr_curve(preds)
        with pytest.raises(MetricError, match="at least one known-truth and one unknown-truth"):
            ref.oscr_curve(preds)


class TestContractionDiagnostic:
    """The diagnostic audits layer 1, the first layer with an R (`r/1/*`)."""

    def test_zero_mix_matrix(self):
        params = init_params([9], 4, seed=0, num_layers=2)
        params.arrays["r/1/0"][...] = 0.0
        report = contraction_diagnostic(params, trials=50, seed=0)
        assert report.max_ratio == 0.0
        assert report.passed and report.contractive

    def test_half_identity(self):
        params = init_params([9], 4, seed=1, num_layers=2)
        params.arrays["r/1/0"][...] = 0.5 * np.eye(4)
        report = contraction_diagnostic(params, trials=200, seed=1)
        assert report.spectral_norm_r == pytest.approx(0.5, rel=1e-8)
        assert report.max_ratio <= 0.5 + 1e-9
        assert report.passed

    @pytest.mark.parametrize("seed", [0, 3])
    def test_report_matches_taped_reference(self, seed):
        # the parent's procedure: the same draws through the fine-grained RF graph
        params = init_params([9, 6], 4, seed=seed, num_layers=2)
        params.arrays["r/1/1"] *= 1.2
        for view in (0, 1):
            report = contraction_diagnostic(params, view=view, trials=60, seed=seed)
            rng = np.random.default_rng(seed)
            x = tc.leaf(rng.normal(size=(16, params.view_dims[view])))
            d, u, r, theta = (tc.leaf(params.arrays[f"{prefix}/{view}"])
                              for prefix in ("d_init", "u/1", "r/1", "theta/1"))
            max_ratio = 0.0
            for _ in range(60):
                za = rng.normal(size=(16, 4)) * rng.uniform(0.1, 5.0)
                zb = rng.normal(size=(16, 4)) * rng.uniform(0.1, 5.0)
                fa = ref.rf_forward(tc.leaf(za), x, None, d, r, u, theta).value
                fb = ref.rf_forward(tc.leaf(zb), x, None, d, r, u, theta).value
                max_ratio = max(max_ratio, float(np.linalg.norm(fa - fb) / np.linalg.norm(za - zb)))
            assert report.max_ratio == max_ratio
            assert report.trials == 60

    def test_non_contractive_flagged_not_failed(self):
        params = init_params([9], 4, seed=2, num_layers=2)
        params.arrays["r/1/0"][...] = 1.5 * np.eye(4)
        report = contraction_diagnostic(params, trials=50, seed=2)
        assert not report.contractive
        assert report.passed  # diagnostic only

    def test_single_layer_has_no_r_to_audit(self):
        with pytest.raises(MetricError, match="2 layers"):
            contraction_diagnostic(init_params([9], 4, seed=0), trials=10)


class TestScalingBenchmark:
    def test_timing_roughly_monotone_in_n(self):
        a, b = forward_backward_seconds((512, 2048), repeats=5)
        # linear-time forward: bigger batches never get meaningfully faster
        assert b >= 0.8 * a

    def test_doubling_layers_at_most_doubles_ish(self):
        # The time 4 layers add to a 1-layer net against the time 2 layers
        # add: a per-layer cost that the fixed costs, the first layer (no R)
        # and the last (RF only) do not move. Each round times the three
        # depths back to back, so a slow stretch of the machine moves one
        # round's ratio, and the median over rounds sets that round aside.
        ratios = []
        for _ in range(5):
            base, three, five = (
                forward_backward_seconds((1024,), num_layers=layers, repeats=10)[0]
                for layers in (1, 3, 5))
            ratios.append((five - base) / (three - base))
        assert float(np.median(ratios)) <= 2.6, ratios
