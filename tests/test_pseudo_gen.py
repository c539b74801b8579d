import math

import numpy as np
import pytest
import scipy.stats

from openviewer.dataset import Batch
from openviewer.pseudo_gen import (
    GenerationError,
    MixConfig,
    ParameterError,
    generate_pseudo,
    sample_beta,
)


class _StubRng:
    """Replays scripted integer and gamma draws for exact endpoint tests."""

    def __init__(self, integers, gammas):
        self._integers = list(integers)
        self._gammas = list(gammas)

    def integers(self, _n):
        return self._integers.pop(0)

    def gamma(self, _shape, _scale):
        return self._gammas.pop(0)


def two_class_batch():
    return Batch(
        views=[np.array([[0.0, 2.0], [2.0, 0.0]]), np.array([[1.0], [3.0]])],
        labels=[0, 1],
        is_pseudo=[False, False],
    )


def per_row_pseudo(batch, config, rng):
    """Reference: mixes the pseudo rows one at a time, in the draw order."""
    labels = batch.labels
    n_pseudo = math.ceil(config.pseudo_ratio * batch.size)
    n_views = len(batch.views)
    pseudo_rows = [np.empty((n_pseudo, v.shape[1])) for v in batch.views]
    for k in range(n_pseudo):
        i = int(rng.integers(batch.size))
        others = np.flatnonzero(labels != labels[i])
        j = int(others[rng.integers(others.size)])
        if config.per_view_zeta:
            zetas = [sample_beta(config.omega, rng) for _ in range(n_views)]
        else:
            zetas = [sample_beta(config.omega, rng)] * n_views
        for v, zeta in enumerate(zetas):
            pseudo_rows[v][k] = zeta * batch.views[v][i] + (1.0 - zeta) * batch.views[v][j]
    return pseudo_rows


class TestSampleBeta:
    def test_uniform_for_omega_one(self):
        rng = np.random.default_rng(0)
        draws = np.array([sample_beta(1.0, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.01
        ks = scipy.stats.kstest(draws, "uniform").statistic
        assert ks < 0.01

    @pytest.mark.parametrize("omega", [0.5, 2.0, 8.0])
    def test_symmetric_mean(self, omega):
        rng = np.random.default_rng(1)
        draws = np.array([sample_beta(omega, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.01
        assert draws.min() >= 0.0 and draws.max() <= 1.0

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ParameterError):
            sample_beta(0.0, np.random.default_rng(0))


class TestGeneratePseudo:
    def test_zeta_one_copies_first_source(self):
        batch = two_class_batch()
        cfg = MixConfig(pseudo_ratio=0.5, unknown_label=2)
        # draws: i=0, j picked among other-label rows, zeta = 1/(1+0) = 1
        stub = _StubRng(integers=[0, 0], gammas=[1.0, 0.0])
        out = generate_pseudo(batch, cfg, stub)
        for v in range(2):
            assert np.array_equal(out.views[v][-1], batch.views[v][0])

    def test_midpoint(self):
        batch = two_class_batch()
        cfg = MixConfig(pseudo_ratio=0.5, unknown_label=2)
        stub = _StubRng(integers=[0, 0], gammas=[1.0, 1.0])
        out = generate_pseudo(batch, cfg, stub)
        assert np.array_equal(out.views[0][-1], [1.0, 1.0])

    def test_ratio_one_doubles_batch(self):
        rng = np.random.default_rng(2)
        labels = np.arange(50) % 5
        batch = Batch(
            views=[rng.normal(size=(50, 4)), rng.normal(size=(50, 3))],
            labels=labels,
            is_pseudo=np.zeros(50, dtype=bool),
        )
        out = generate_pseudo(batch, MixConfig(pseudo_ratio=1.0, unknown_label=5), rng)
        assert out.size == 100
        assert out.is_pseudo.sum() == 50
        assert np.all(out.labels[50:] == 5)

    def test_pseudo_rows_are_exact_segments_with_cross_labels(self):
        # replay the documented draw order (i, j, zeta) with a twin generator
        rng = np.random.default_rng(3)
        twin = np.random.default_rng(3)
        labels = np.arange(12) % 3
        views = [np.random.default_rng(4).normal(size=(12, 5))]
        batch = Batch(views=views, labels=labels, is_pseudo=np.zeros(12, dtype=bool))
        cfg = MixConfig(omega=2.0, pseudo_ratio=1.0, unknown_label=3)
        out = generate_pseudo(batch, cfg, rng)
        for k in range(12):
            i = int(twin.integers(12))
            others = np.flatnonzero(labels != labels[i])
            j = int(others[twin.integers(others.size)])
            g1, g2 = twin.gamma(2.0, 1.0), twin.gamma(2.0, 1.0)
            zeta = g1 / (g1 + g2)
            assert labels[i] != labels[j]
            expected = zeta * views[0][i] + (1.0 - zeta) * views[0][j]
            assert np.array_equal(out.views[0][12 + k], expected)

    def test_bitwise_reproducible(self):
        labels = np.arange(10) % 2
        views = [np.random.default_rng(5).normal(size=(10, 3))]
        batch = Batch(views=views, labels=labels, is_pseudo=np.zeros(10, dtype=bool))
        cfg = MixConfig(unknown_label=2)
        a = generate_pseudo(batch, cfg, np.random.default_rng(6))
        b = generate_pseudo(batch, cfg, np.random.default_rng(6))
        assert np.array_equal(a.views[0], b.views[0])

    def test_per_view_zeta_flag(self):
        batch = two_class_batch()
        cfg = MixConfig(pseudo_ratio=0.5, unknown_label=2, per_view_zeta=True)
        stub = _StubRng(integers=[0, 0], gammas=[1.0, 0.0, 1.0, 1.0])
        out = generate_pseudo(batch, cfg, stub)
        assert np.array_equal(out.views[0][-1], batch.views[0][0])  # zeta = 1
        assert out.views[1][-1, 0] == pytest.approx(2.0)  # zeta = 0.5 midpoint

    @pytest.mark.parametrize("per_view_zeta", [False, True])
    @pytest.mark.parametrize("ratio", [1.0, 0.3])
    def test_matches_per_row_reference_bitwise(self, per_view_zeta, ratio):
        # class-unbalanced batch: 1, 9, 4 and 16 rows, three views
        data = np.random.default_rng(7)
        labels = data.permutation(np.repeat([0, 1, 2, 3], [1, 9, 4, 16]))
        views = [data.normal(size=(30, d)) for d in (5, 3, 8)]
        batch = Batch(views=views, labels=labels, is_pseudo=np.zeros(30, dtype=bool))
        cfg = MixConfig(
            omega=0.7, pseudo_ratio=ratio, unknown_label=4, per_view_zeta=per_view_zeta
        )
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        out = generate_pseudo(batch, cfg, rng)
        expected = per_row_pseudo(batch, cfg, twin)
        for v, rows in enumerate(expected):
            assert np.array_equal(out.views[v][30:], rows)
            assert np.array_equal(out.views[v][:30], views[v])
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_single_class_batch_rejected(self):
        batch = Batch(
            views=[np.zeros((3, 2))], labels=[1, 1, 1], is_pseudo=[False] * 3
        )
        with pytest.raises(GenerationError):
            generate_pseudo(batch, MixConfig(unknown_label=2), np.random.default_rng(0))

    def test_invalid_config(self):
        with pytest.raises(ParameterError):
            MixConfig(pseudo_ratio=0.0).validate()
        with pytest.raises(ParameterError):
            MixConfig(omega=-1.0).validate()
