import dataclasses
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
)

import fine_reference as ref


class _StubRng:
    """Replays scripted integer and gamma draws for exact endpoint tests."""

    def __init__(self, integers, gammas):
        self._integers = list(integers)
        self._gammas = list(gammas)

    def integers(self, _n):
        return self._integers.pop(0)

    def gamma(self, _shape, _scale, size):
        return np.array([self._gammas.pop(0) for _ in range(size)])


def two_class_batch():
    return Batch(
        views=[np.array([[0.0, 2.0], [2.0, 0.0]]), np.array([[1.0], [3.0]])],
        labels=[0, 1],
        is_pseudo=[False, False],
    )


def per_row_pseudo(batch, config, rng):
    """Reference: mixes the pseudo rows one at a time, in the draw order,
    each zeta from two scalar Gamma(omega, 1) draws."""
    labels = batch.labels
    n_pseudo = math.ceil(config.pseudo_ratio * batch.size)
    pseudo_rows = [np.empty((n_pseudo, v.shape[1])) for v in batch.views]
    for k in range(n_pseudo):
        i = int(rng.integers(batch.size))
        others = np.flatnonzero(labels != labels[i])
        j = int(others[rng.integers(others.size)])
        g1, g2 = rng.gamma(config.omega, 1.0), rng.gamma(config.omega, 1.0)
        zeta = g1 / (g1 + g2)
        for v, view in enumerate(batch.views):
            pseudo_rows[v][k] = zeta * view[i] + (1.0 - zeta) * view[j]
    return pseudo_rows


def mixed_first_entries(omega: float, seed: int, n: int = 100_000) -> np.ndarray:
    """First entries of n pseudo rows mixed from a batch of rows e0 (label 0)
    and e1 (label 1): each is zeta or 1 - zeta, which have the same law
    under the symmetric Beta(omega, omega)."""
    batch = Batch(views=[np.tile(np.eye(2), (n // 2, 1))], labels=np.tile([0, 1], n // 2),
                  is_pseudo=np.zeros(n, dtype=bool))
    out = generate_pseudo(batch, MixConfig(omega=omega), np.random.default_rng(seed), 2)
    return out.views[0][n:, 0]


class TestMatchesFormerDrawLoop:
    def test_random_batches_bitwise(self):
        """The list-based draw loop gives the rows, labels and generator end
        state of the former numpy-indexed loop (`ref.generate_pseudo`)."""
        rng = np.random.default_rng(60)
        refused = 0
        for case in range(2000):
            # sparse and negative ids, classes of one row, zero and signed-zero rows
            ids = rng.choice(np.arange(-4, 25), size=int(rng.integers(1, 6)), replace=False)
            labels = ids[rng.integers(ids.size, size=int(rng.integers(1, 20)))]
            views = [rng.normal(size=(labels.size, int(d))) for d in rng.integers(1, 5, size=2)]
            if case % 3 == 1:
                views[0][:] = 0.0
            elif case % 3 == 2:
                views[1][rng.random(views[1].shape) < 0.5] = -0.0
            batch = Batch(views=views, labels=labels, is_pseudo=np.zeros(labels.size, bool))
            cfg = MixConfig(omega=float(rng.uniform(0.2, 5.0)),
                            pseudo_ratio=float(rng.uniform(0.05, 1.0)))
            seed = int(rng.integers(2**32))
            gen, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            try:
                expected = ref.generate_pseudo(batch, cfg, twin, 99)
            except GenerationError:
                with pytest.raises(GenerationError):
                    generate_pseudo(batch, cfg, gen, 99)
                refused += 1
            else:
                out = generate_pseudo(batch, cfg, gen, 99)
                for got, want in zip(out.views + [out.labels, out.is_pseudo],
                                     expected.views + [expected.labels, expected.is_pseudo]):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), case
            assert gen.bit_generator.state == twin.bit_generator.state, case
        assert 0 < refused < 1000


class TestZetaLaw:
    def test_uniform_for_omega_one(self):
        draws = mixed_first_entries(1.0, seed=0)
        assert abs(draws.mean() - 0.5) < 0.01
        ks = scipy.stats.kstest(draws, "uniform").statistic
        assert ks < 0.01

    @pytest.mark.parametrize("omega", [0.5, 2.0, 8.0])
    def test_symmetric_mean(self, omega):
        draws = mixed_first_entries(omega, seed=1)
        assert abs(draws.mean() - 0.5) < 0.01
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        ks = scipy.stats.kstest(draws, scipy.stats.beta(omega, omega).cdf).statistic
        assert ks < 0.01


class TestGeneratePseudo:
    def test_zeta_one_copies_first_source(self):
        batch = two_class_batch()
        cfg = MixConfig(pseudo_ratio=0.5)
        # draws: i=0, j picked among other-label rows, zeta = 1/(1+0) = 1
        stub = _StubRng(integers=[0, 0], gammas=[1.0, 0.0])
        out = generate_pseudo(batch, cfg, stub, 2)
        for v in range(2):
            assert np.array_equal(out.views[v][-1], batch.views[v][0])

    def test_midpoint(self):
        batch = two_class_batch()
        cfg = MixConfig(pseudo_ratio=0.5)
        stub = _StubRng(integers=[0, 0], gammas=[1.0, 1.0])
        out = generate_pseudo(batch, cfg, stub, 2)
        assert np.array_equal(out.views[0][-1], [1.0, 1.0])

    @pytest.mark.parametrize("unknown_label", [5, 0, 9])
    def test_ratio_one_doubles_batch(self, unknown_label):
        rng = np.random.default_rng(2)
        labels = np.arange(50) % 5
        batch = Batch(
            views=[rng.normal(size=(50, 4)), rng.normal(size=(50, 3))],
            labels=labels,
            is_pseudo=np.zeros(50, dtype=bool),
        )
        out = generate_pseudo(batch, MixConfig(pseudo_ratio=1.0), rng, unknown_label)
        assert out.size == 100
        assert out.is_pseudo.sum() == 50
        assert out.labels.dtype == np.int64
        assert np.array_equal(out.labels[:50], labels)
        assert np.all(out.labels[50:] == unknown_label)

    def test_pseudo_rows_are_exact_segments_with_cross_labels(self):
        # replay the documented draw order (i, j, zeta) with a twin generator
        rng = np.random.default_rng(3)
        twin = np.random.default_rng(3)
        labels = np.arange(12) % 3
        views = [np.random.default_rng(4).normal(size=(12, 5))]
        batch = Batch(views=views, labels=labels, is_pseudo=np.zeros(12, dtype=bool))
        cfg = MixConfig(omega=2.0, pseudo_ratio=1.0)
        out = generate_pseudo(batch, cfg, rng, 3)
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
        a = generate_pseudo(batch, MixConfig(), np.random.default_rng(6), 2)
        b = generate_pseudo(batch, MixConfig(), np.random.default_rng(6), 2)
        assert np.array_equal(a.views[0], b.views[0])

    @pytest.mark.parametrize("ratio", [1.0, 0.3])
    def test_matches_per_row_reference_bitwise(self, ratio):
        # class-unbalanced batch: 1, 9, 4 and 16 rows, three views
        data = np.random.default_rng(7)
        labels = data.permutation(np.repeat([0, 1, 2, 3], [1, 9, 4, 16]))
        views = [data.normal(size=(30, d)) for d in (5, 3, 8)]
        batch = Batch(views=views, labels=labels, is_pseudo=np.zeros(30, dtype=bool))
        cfg = MixConfig(omega=0.7, pseudo_ratio=ratio)
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        out = generate_pseudo(batch, cfg, rng, 4)
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
            generate_pseudo(batch, MixConfig(), np.random.default_rng(0), 2)

    @pytest.mark.parametrize("fields", [{"pseudo_ratio": 0.0}, {"omega": -1.0}, {"omega": 0.0}])
    def test_invalid_config_refused_when_built(self, fields):
        with pytest.raises(ParameterError):
            MixConfig(**fields)
        with pytest.raises(ParameterError):
            dataclasses.replace(MixConfig(), **fields)

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            MixConfig().omega = 0.0
