import numpy as np
import pytest

from openviewer import synthgen

from helpers import small_spec


class TestSpecValidation:
    def test_rejects_too_few_classes(self):
        with pytest.raises(ValueError):
            small_spec(classes=2)

    def test_rejects_dim_below_classes(self):
        with pytest.raises(ValueError):
            small_spec(dims=(4, 10))

    def test_rejects_noise_fraction(self):
        with pytest.raises(ValueError):
            small_spec(noise_col_frac=0.6)


class TestGenerate:
    def test_noiseless_plant_is_exact(self):
        dataset, planted = synthgen.generate(small_spec(jitter=0.0, noise_col_frac=0.0))
        for v in range(dataset.n_views):
            recon = planted.z @ planted.d[v] + planted.e[v]
            assert np.array_equal(dataset.views[v], recon)
            assert not planted.e[v].any()

    def test_noise_column_count(self):
        spec = small_spec(views=1, dims=(40,), noise_col_frac=0.1)
        _, planted = synthgen.generate(spec)
        nonzero_cols = np.flatnonzero(np.abs(planted.e[0]).sum(axis=0))
        assert nonzero_cols.size == 4
        assert np.array_equal(nonzero_cols, planted.noise_columns[0])

    def test_noise_entries_have_requested_magnitude(self):
        spec = small_spec(noise_magnitude=2.5)
        _, planted = synthgen.generate(spec)
        vals = planted.e[0][:, planted.noise_columns[0]]
        assert np.all(np.abs(vals) == 2.5)

    def test_deterministic_bitwise(self):
        spec = small_spec(jitter=0.3)
        ds_a, pl_a = synthgen.generate(spec)
        ds_b, pl_b = synthgen.generate(spec)
        for a, b in zip(ds_a.views, ds_b.views):
            assert np.array_equal(a, b)
        assert np.array_equal(pl_a.z, pl_b.z)

    def test_dictionaries_have_orthonormal_rows(self):
        _, planted = synthgen.generate(small_spec())
        for d in planted.d:
            gram = d @ d.T
            assert np.allclose(gram, np.eye(d.shape[0]), atol=1e-12)

    def test_labels_and_shapes(self):
        spec = small_spec()
        dataset, _ = synthgen.generate(spec)
        assert dataset.n_samples == spec.classes * spec.samples_per_class
        assert dataset.view_dims == list(spec.dims)
        assert np.bincount(dataset.labels).tolist() == [spec.samples_per_class] * spec.classes


class TestInvariants:
    def test_planted_objective_identity(self):
        # with zero jitter the residual term vanishes exactly
        from openviewer import admm_oracle as ao

        dataset, planted = synthgen.generate(small_spec(jitter=0.0))
        cfg = ao.AdmmConfig(alpha=0.3, beta=0.6, gamma=1.2)
        state = ao.AdmmState(
            z=[planted.z] * dataset.n_views, d=planted.d, e=planted.e,
            l_p=[1.0] * dataset.n_views,
        )
        expected = sum(
            cfg.alpha * np.abs(planted.z).sum()
            + 0.5 * cfg.beta * np.sum(planted.d[v] ** 2)
            + cfg.gamma * np.sum(np.linalg.norm(planted.e[v], axis=0))
            for v in range(dataset.n_views)
        )
        assert ao.objective(state, dataset.views, cfg) == pytest.approx(expected, rel=1e-12)

    def test_centroid_separation(self):
        spec = small_spec(jitter=0.2, sep_scale=4.0)
        _, planted = synthgen.generate(spec)
        centroids = np.vstack(
            [
                planted.z[i * spec.samples_per_class : (i + 1) * spec.samples_per_class].mean(axis=0)
                for i in range(spec.classes)
            ]
        )
        floor = spec.sep_scale * np.sqrt(2.0) - 6.0 * spec.jitter
        for i in range(spec.classes):
            for j in range(i + 1, spec.classes):
                assert np.linalg.norm(centroids[i] - centroids[j]) >= floor
