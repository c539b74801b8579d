import dataclasses
import math

import numpy as np
import pytest

import openviewer.tensor_core as tc
from openviewer.losses import (
    LossConfig,
    LossError,
    _center_term,
    _unknown_term,
    batch_stats,
    class_means,
    gradient_bound,
    measured_gradient_norm,
    total_loss,
    update_centers,
)

import fine_ops as fo
import fine_reference as ref


def known_only(z, labels, xi):
    """The known term alone: `total_loss` with lambda1 = lambda2 = 0 and
    every row known."""
    labels = np.asarray(labels)
    c = tc.value_of(z).shape[1]
    cfg = LossConfig(xi=xi, lambda1=0.0, lambda2=0.0)
    return total_loss(z, labels, np.zeros(labels.size, bool), np.zeros((c, c)), cfg)[0]


def term_op(term, *args):
    """A private term kernel as a tape op on its first input."""

    def op(z):
        def kernel(value):
            out, vjp = term(value, *args)
            return out, lambda g: ((0, part) for part in vjp(g))

        return tc.custom_op(kernel, z)

    return op


class TestKnownLoss:
    def test_perfect_sample_vanishes(self):
        z = np.array([[50.0, 0.0, 0.0, 0.0, 0.0]])
        out = known_only(tc.leaf(z), [0], xi=5.0)
        assert out.item() < 1e-10

    def test_zero_logits_closed_form(self):
        out = known_only(tc.leaf(np.zeros((1, 5))), [0], xi=5.0)
        assert out.item() == pytest.approx(math.log(5.0) + 25.0, rel=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(LossError):
            known_only(tc.leaf(np.zeros((1, 3))), [3], xi=1.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        z0 = rng.normal(size=(8, 5)) * 2.0
        labels = rng.integers(0, 5, size=8)
        err = fo.finite_diff_check(
            lambda n: known_only(n[0], labels, xi=3.0), [tc.leaf(z0)]
        )
        assert err < 1e-4


class TestUnknownLoss:
    def test_uniform_point_closed_form(self):
        out = term_op(_unknown_term)(tc.leaf(np.zeros((1, 4))))
        assert out.item() == pytest.approx(math.log(4.0), rel=1e-12)

    def test_zero_row_minimizes_flattening_part(self):
        # perturbing a single logit away from the uniform point must not
        # lower the cross-entropy flattening term
        base = np.zeros((1, 4))
        flat0 = _unknown_term(base)[0][0, 0]  # norm part is 0 here
        for delta in (0.1, -0.1):
            z = base.copy()
            z[0, 0] += delta
            bumped = _unknown_term(z)[0][0, 0] - np.sum(z * z)
            assert bumped > flat0 - 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        z0 = rng.normal(size=(6, 5))
        err = fo.finite_diff_check(lambda n: term_op(_unknown_term)(n[0]), [tc.leaf(z0)])
        assert err < 1e-4


class TestCenterLoss:
    def test_zero_at_centers(self):
        centers = np.array([[1.0, 2.0], [3.0, 4.0]])
        z = centers[[0, 1, 1]]
        out, _ = _center_term(z, [0, 1, 1], centers)
        assert out[0, 0] == 0.0

    def test_hand_value(self):
        out, _ = _center_term(np.zeros((1, 2)), [0], np.array([[1.0, 1.0]]))
        assert out[0, 0] == pytest.approx(1.0)

    def test_gradient_is_difference_to_center(self):
        rng = np.random.default_rng(2)
        centers = rng.normal(size=(3, 4))
        z0 = rng.normal(size=(5, 4))
        labels = np.array([0, 1, 2, 0, 1])
        node = tc.leaf(z0)
        tc.backward(term_op(_center_term, labels, centers)(node))
        assert np.allclose(node.grad, z0 - centers[labels], atol=1e-12)
        err = fo.finite_diff_check(
            lambda n: term_op(_center_term, labels, centers)(n[0]), [tc.leaf(z0)]
        )
        assert err < 1e-5


class TestUpdateCenters:
    def test_sample_at_center_is_fixed_point(self):
        centers = np.array([[2.0, -1.0]])
        out = update_centers(centers, centers[[0]], [0], center_lr=1.0)
        assert np.array_equal(out, centers)

    def test_hand_case(self):
        centers = np.array([[1.0, 1.0]])
        out = update_centers(centers, np.array([[0.0, 0.0]]), [0], center_lr=1.0)
        assert np.allclose(out, [[0.5, 0.5]])

    def test_symmetric_pair_cancels(self):
        centers = np.array([[1.0, 1.0]])
        z = np.array([[1.5, 1.5], [0.5, 0.5]])
        out = update_centers(centers, z, [0, 0], center_lr=1.0)
        assert np.allclose(out, centers)

    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(3)
        centers = rng.normal(size=(4, 3))
        z = rng.normal(size=(6, 3))
        labels = rng.integers(0, 4, size=6)
        assert np.array_equal(update_centers(centers, z, labels, 0.0), centers)

    def test_absent_classes_unchanged(self):
        centers = np.array([[1.0], [2.0], [3.0]])
        out = update_centers(centers, np.array([[10.0]]), [1], center_lr=1.0)
        assert out[0, 0] == 1.0 and out[2, 0] == 3.0
        assert out[1, 0] != 2.0


def random_center_case(rng, width, with_zeros=False):
    """Centers, known rows and labels of one random batch; some classes may
    be absent. With `with_zeros`, a share of the entries are exact +-0.0,
    as shrinkage leaves them in the fused code."""
    n = int(rng.integers(1, 40))
    centers = rng.normal(size=(width, width)) * rng.uniform(0.1, 10.0)
    z = rng.normal(size=(n, width)) * rng.uniform(0.1, 10.0)
    if with_zeros:
        z[rng.random(z.shape) < 0.3] = 0.0
        z[rng.random(z.shape) < 0.3] = -0.0
        centers[rng.random(centers.shape) < 0.2] = -0.0
    labels = rng.integers(0, int(rng.integers(1, width + 1)), size=n)
    return centers, z, labels, float(rng.choice([1.0, rng.uniform(0.05, 1.0)]))


class TestCentersMatchMaskLoops:
    """`update_centers` and `class_means` against the per-class mask loops
    of `fine_reference`, bit for bit (the sign of a zero included)."""

    @pytest.mark.parametrize("width", range(2, 12))
    @pytest.mark.parametrize("with_zeros", [False, True], ids=["dense", "zeros"])
    def test_running_update_bitwise(self, width, with_zeros):
        rng = np.random.default_rng([width, with_zeros, 11])
        for _ in range(100):
            centers, z, labels, lr = random_center_case(rng, width, with_zeros)
            out = update_centers(centers, z, labels, lr)
            expected = ref.update_centers(centers, z, labels, lr)
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("width", range(2, 12))
    @pytest.mark.parametrize("with_zeros", [False, True], ids=["dense", "zeros"])
    def test_first_batch_means_bitwise(self, width, with_zeros):
        rng = np.random.default_rng([width, with_zeros, 12])
        for _ in range(100):
            _, z, labels, _ = random_center_case(rng, width, with_zeros)
            out = class_means(z, labels, width)
            assert out.tobytes() == ref.class_means(z, labels, width).tobytes()

    def test_width_one_within_rounding(self):
        # numpy sums a single column pairwise, in blocks, where `np.add.at`
        # adds row by row, so the last bits may differ at width 1. Training
        # never has width 1: it needs at least 2 known classes.
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            centers, z = rng.normal(size=(2, 1)), rng.normal(size=(n, 1))
            labels = rng.integers(0, 2, size=n)
            assert np.allclose(update_centers(centers, z, labels, 0.7),
                               ref.update_centers(centers, z, labels, 0.7),
                               rtol=1e-12, atol=1e-12)
            assert np.allclose(class_means(z, labels, 2), ref.class_means(z, labels, 2),
                               rtol=1e-12, atol=1e-12)


class TestTotalLoss:
    def _batch(self, seed=4, n_known=6, n_pseudo=4, c=5):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n_known + n_pseudo, c)) * 1.5
        labels = np.concatenate([rng.integers(0, c, size=n_known), np.full(n_pseudo, c)])
        is_pseudo = np.concatenate([np.zeros(n_known, bool), np.ones(n_pseudo, bool)])
        centers = rng.normal(size=(c, c))
        return z, labels, is_pseudo, centers

    def test_lambda_zero_collapses_to_known_loss(self):
        z, labels, is_pseudo, centers = self._batch()
        cfg = LossConfig(xi=2.0, lambda1=0.0, lambda2=0.0)
        node, parts = total_loss(tc.leaf(z), labels, is_pseudo, centers, cfg)
        alone = known_only(tc.leaf(z[~is_pseudo]), labels[~is_pseudo], cfg.xi).item()
        assert node.item() == alone
        assert parts["unknown"] == 0.0 and parts["center"] == 0.0

    def test_all_sublosses_zero(self):
        c = 4
        z = np.zeros((2, c))
        z[:, 0] = 50.0
        centers = z[:1].repeat(c, axis=0) * 0 + z[0]
        centers = np.tile(z[0], (c, 1))
        cfg = LossConfig(xi=5.0, lambda1=0.1, lambda2=0.1)
        node, parts = total_loss(
            tc.leaf(z), [0, 0], np.zeros(2, bool), centers, cfg
        )
        assert node.item() < 1e-9

    def test_all_pseudo_batch_rejected(self):
        z, labels, is_pseudo, centers = self._batch()
        with pytest.raises(LossError):
            total_loss(tc.leaf(z), labels, np.ones_like(is_pseudo), centers, LossConfig())

    def test_empty_pseudo_part_allowed(self):
        z, labels, is_pseudo, centers = self._batch(n_pseudo=0)
        node, parts = total_loss(tc.leaf(z), labels, is_pseudo, centers, LossConfig())
        assert parts["unknown"] == 0.0
        assert np.isfinite(node.item())

    def test_full_gradient_check(self):
        z, labels, is_pseudo, centers = self._batch(seed=5, n_known=6, n_pseudo=4)
        cfg = LossConfig(xi=3.0, lambda1=0.3, lambda2=0.2)
        err = fo.finite_diff_check(
            lambda n: total_loss(n[0], labels, is_pseudo, centers, cfg)[0],
            [tc.leaf(z)],
        )
        assert err < 1e-4


class TestGradientBound:
    def _measure(self, z, labels, is_pseudo, centers, cfg):
        node = tc.leaf(z)
        total, _ = total_loss(node, labels, is_pseudo, centers, cfg)
        tc.backward(total)
        return measured_gradient_norm(node.grad)

    def test_zero_feature_batch_reduces_to_constants(self):
        c = 5
        z = np.zeros((6, c))
        labels = np.array([0, 1, 2, 0, c, c])
        is_pseudo = np.array([False] * 4 + [True] * 2)
        centers = np.zeros((c, c))
        cfg = LossConfig(xi=5.0, lambda1=0.2, lambda2=0.3)
        stats = batch_stats(z, labels, is_pseudo, centers)
        eps = gradient_bound(cfg, stats)
        uniform_norm = 1.0 / math.sqrt(c)
        expected = (
            uniform_norm / 4 + 1.0 / 4 + 2 * cfg.xi
            + cfg.lambda1 * (uniform_norm / c + 1.0 / c)
            + cfg.lambda2 * (cfg.center_lr / (1.0 + 1.0))
        )
        assert eps == pytest.approx(expected, rel=1e-12)
        assert self._measure(z, labels, is_pseudo, centers, cfg) <= eps

    def test_measured_below_bound_on_random_batches(self):
        rng = np.random.default_rng(6)
        cfg = LossConfig(xi=5.0, lambda1=0.5, lambda2=0.4)
        for trial in range(100):
            c = int(rng.integers(3, 7))
            n_known = int(rng.integers(2, 10))
            n_pseudo = int(rng.integers(0, 8))
            z = rng.normal(size=(n_known + n_pseudo, c)) * rng.uniform(0.1, 8.0)
            labels = np.concatenate(
                [rng.integers(0, c, size=n_known), np.full(n_pseudo, c)]
            )
            is_pseudo = np.concatenate(
                [np.zeros(n_known, bool), np.ones(n_pseudo, bool)]
            )
            centers = rng.normal(size=(c, c)) * 2.0
            stats = batch_stats(z, labels, is_pseudo, centers)
            eps = gradient_bound(cfg, stats)
            measured = self._measure(z, labels, is_pseudo, centers, cfg)
            assert measured <= eps, f"trial {trial}: {measured} > {eps}"

    def test_shrinking_features_keeps_ordering(self):
        rng = np.random.default_rng(7)
        cfg = LossConfig()
        c = 5
        z = rng.normal(size=(8, c)) * 3
        labels = np.concatenate([rng.integers(0, c, size=6), [c, c]])
        is_pseudo = np.array([False] * 6 + [True] * 2)
        centers = rng.normal(size=(c, c))
        for factor in (1.0, 0.5, 0.0):
            zs = z * factor
            stats = batch_stats(zs, labels, is_pseudo, centers)
            eps = gradient_bound(cfg, stats)
            assert self._measure(zs, labels, is_pseudo, centers, cfg) <= eps

    def test_config_validation(self):
        with pytest.raises(LossError):
            LossConfig(center_lr=0.0)
        with pytest.raises(LossError):
            LossConfig(lambda1=-0.1)


def hexed(stats) -> dict:
    """Every field of a `BatchStats` with its type; floats by `float.hex`."""
    return {k: (type(v), v.hex() if isinstance(v, float) else v)
            for k, v in dataclasses.asdict(stats).items()}


class TestBatchStatsOnePass:
    def test_matches_two_softmax_reference(self):
        """One softmax and one norm pass over the batch, split afterward, give
        the bits of the former per-subset passes (`ref.batch_stats`)."""
        rng = np.random.default_rng(50)
        for case in range(3000):
            c = int(rng.integers(1, 7))
            n_known, n_pseudo = (int(k) for k in rng.integers(0, 8, size=2))
            n = n_known + n_pseudo
            z = rng.normal(size=(n, c)) * rng.uniform(0.01, 50.0)
            centers = rng.normal(size=(c, c))
            if case % 3 == 1:
                z, centers = np.zeros_like(z), np.zeros_like(centers)
            elif case % 3 == 2:
                mask = rng.random(z.shape) < 0.5
                z[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
            is_pseudo = rng.permutation(np.repeat([False, True], [n_known, n_pseudo]))
            labels = np.where(is_pseudo, c, rng.integers(0, c, size=n))
            assert hexed(batch_stats(z, labels, is_pseudo, centers)) == hexed(
                ref.batch_stats(z, labels, is_pseudo, centers)), case


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def loss_and_grad(op, z):
    node = tc.leaf(z)
    out = op(node)
    out, parts = out if isinstance(out, tuple) else (out, None)
    tc.backward(out)
    return out.value, node.grad, parts


class TestLossOpsMatchFineGraph:
    """The one loss op, and each term's kernel run as a tape op, give the
    fine-grained graph's value and input gradient bit for bit."""

    def _rows(self, seed, n=9, c=5):
        # row norms on both sides of the hinge margin xi = 2.5
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, c))
        return z * np.linspace(0.2, 3.0, n)[:, None], rng

    def _assert_same(self, op, reference, z):
        value, grad, parts = loss_and_grad(op, z)
        ref_value, ref_grad, ref_parts = loss_and_grad(reference, z)
        assert same_bits(value, ref_value) and same_bits(grad, ref_grad)
        assert parts == ref_parts

    def test_known_loss(self):
        for seed in range(5):
            z, rng = self._rows(seed)
            norms = np.linalg.norm(z, axis=1)
            assert np.any(norms < 2.5) and np.any(norms > 2.5)
            labels = rng.integers(0, 5, size=z.shape[0])
            self._assert_same(lambda n: known_only(n, labels, 2.5),
                              lambda n: ref.known_loss(n, labels, 2.5), z)

    def test_unknown_loss(self):
        for seed in range(5):
            z, _ = self._rows(seed)
            self._assert_same(term_op(_unknown_term), ref.unknown_loss, z)

    def test_center_loss(self):
        for seed in range(5):
            z, rng = self._rows(seed)
            labels = rng.integers(0, 5, size=z.shape[0])
            centers = rng.normal(size=(5, 5))
            self._assert_same(term_op(_center_term, labels, centers),
                              lambda n: ref.center_loss(n, labels, centers), z)

    @pytest.mark.parametrize("n_pseudo", [0, 4])
    @pytest.mark.parametrize("lambdas", [(0.3, 0.2), (0.0, 0.2), (0.3, 0.0), (0.0, 0.0)])
    def test_total_loss(self, n_pseudo, lambdas):
        cfg = LossConfig(xi=2.5, lambda1=lambdas[0], lambda2=lambdas[1])
        for seed in range(3):
            z, rng = self._rows(seed, n=8 + n_pseudo)
            labels = np.concatenate([rng.integers(0, 5, size=8), np.full(n_pseudo, 5)])
            is_pseudo = np.arange(8 + n_pseudo) >= 8
            order = rng.permutation(labels.size)  # pseudo rows interleaved
            labels, is_pseudo = labels[order], is_pseudo[order]
            centers = rng.normal(size=(5, 5))
            self._assert_same(lambda n: total_loss(n, labels, is_pseudo, centers, cfg),
                              lambda n: ref.total_loss(n, labels, is_pseudo, centers, cfg), z)

    def test_non_finite_centers_raise(self):
        z = np.zeros((3, 2))
        centers = np.array([[0.0, 1.0], [np.nan, 0.0]])
        with pytest.raises(LossError, match="centers"):
            _center_term(z, [0, 1, 1], centers)
        with pytest.raises(LossError, match="centers"):
            total_loss(tc.leaf(z), [0, 1, 1], np.zeros(3, bool), centers, LossConfig())

    def test_center_shape_mismatch_names_both_shapes(self):
        with pytest.raises(tc.ShapeError, match=r"total_loss: .*\(3, 2\) vs \(3, 4\)"):
            total_loss(tc.leaf(np.zeros((3, 2))), [0, 1, 1], np.zeros(3, bool),
                       np.zeros((2, 4)), LossConfig())
