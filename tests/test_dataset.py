import json

import numpy as np
import pytest

from openviewer.dataset import (
    Batch,
    DatasetError,
    MultiViewDataset,
    OpennessSplit,
    SplitError,
    achieved_openness,
    load,
    make_batches,
    openness_split,
    zscore,
)


def tiny_dataset(n_per_class=4, classes=3, dims=(3, 2), seed=0):
    rng = np.random.default_rng(seed)
    n = n_per_class * classes
    labels = np.repeat(np.arange(classes), n_per_class)
    views = [rng.normal(size=(n, d)) for d in dims]
    return MultiViewDataset(views=views, labels=labels, class_count=classes)


def write_manifest(tmp_path, views, labels, name="toy"):
    paths = []
    for i, v in enumerate(views):
        p = tmp_path / f"view_{i}.csv"
        np.savetxt(p, v, delimiter=",")
        paths.append(p.name)
    lp = tmp_path / "labels.csv"
    np.savetxt(lp, labels, fmt="%d")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"views": paths, "labels": lp.name, "name": name}))
    return manifest


class TestConstruction:
    def test_valid(self, tmp_path):
        rng = np.random.default_rng(1)
        manifest = write_manifest(
            tmp_path, [rng.normal(size=(6, 3)), rng.normal(size=(6, 2))], [0, 0, 1, 1, 2, 2]
        )
        data = load(manifest)
        assert data.n_samples == 6
        assert data.n_views == 2
        assert data.view_dims == [3, 2]
        assert data.class_count == 3

    def test_row_mismatch_names_file(self, tmp_path):
        rng = np.random.default_rng(2)
        manifest = write_manifest(
            tmp_path, [rng.normal(size=(6, 3)), rng.normal(size=(5, 2))], [0, 0, 1, 1, 2, 2]
        )
        with pytest.raises(DatasetError, match="view_1"):
            load(manifest)

    def test_non_finite_cell_names_file(self, tmp_path):
        rng = np.random.default_rng(3)
        bad = rng.normal(size=(6, 2))
        bad[4, 1] = np.nan
        manifest = write_manifest(tmp_path, [rng.normal(size=(6, 3)), bad], [0, 0, 1, 1, 2, 2])
        with pytest.raises(DatasetError, match=r"non-finite value in .*view_1\.csv at row 5, column 2"):
            load(manifest)

    def test_label_out_of_range(self):
        with pytest.raises(DatasetError, match="label out of range"):
            MultiViewDataset(
                views=[np.zeros((4, 2))], labels=[0, 1, 2, 2], class_count=2
            )

    def test_unreadable_file(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"views": ["missing.csv"], "labels": "l.csv"}))
        with pytest.raises(DatasetError, match="missing.csv"):
            load(manifest)

    def test_class_with_single_sample_rejected(self):
        with pytest.raises(DatasetError, match="fewer than 2"):
            MultiViewDataset(views=[np.zeros((3, 2))], labels=[0, 0, 1], class_count=2)


class TestNormalize:
    def test_constant_column_centered_only(self):
        # constant over the statistics rows 0, 1: its divisor is 1, so the
        # other rows come out as their distance from that constant
        views = [np.hstack([np.array([[3.0], [3.0], [4.5], [-1.0]]),
                            np.arange(4.0).reshape(4, 1)])]
        data = MultiViewDataset(views=views, labels=[0, 0, 1, 1], class_count=2)
        (normed,) = zscore(data, [0, 1])
        assert np.array_equal(normed[:, 0], [0.0, 0.0, 1.5, -4.0])
        (normed,) = zscore(data, [0, 1, 2, 3])
        assert np.allclose(normed[:, 1] * np.arange(4.0).std(), np.arange(4.0) - 1.5)

    def test_two_value_column(self):
        # rows 0, 1 have mean 1 and std 1, so every row maps to x - 1
        views = [np.array([[0.0], [2.0], [5.0], [7.0]])]
        data = MultiViewDataset(views=views, labels=[0, 0, 1, 1], class_count=2)
        (normed,) = zscore(data, [0, 1])
        assert np.allclose(normed[:, 0], [-1.0, 1.0, 4.0, 6.0])
        (scored,) = zscore(data, [0, 1], rows=np.array([3, 0]))
        assert np.array_equal(scored, normed[[3, 0]])

    def test_train_columns_standardized_post_hoc(self):
        data = tiny_dataset(seed=3)
        train = list(range(0, data.n_samples, 2))
        normed = zscore(data, train)
        assert [v.shape for v in normed] == [v.shape for v in data.views]
        for v in normed:
            sub = v[train]
            assert np.all(np.abs(sub.mean(axis=0)) < 1e-10)
            assert np.all(np.abs(sub.std(axis=0) - 1.0) < 1e-10)

    def test_empty_train_rejected(self):
        with pytest.raises(SplitError, match="non-empty split.train_idx"):
            zscore(tiny_dataset(), [])

    @pytest.mark.parametrize("stats_from, message", [
        ([0, -1], r"split\.train_idx: 1 of 2 entries outside \[0, 12\), first \[-1\]"),
        ([0, 12], r"split\.train_idx: 1 of 2 entries outside \[0, 12\), first \[12\]"),
        ([0, 2.7], r"split\.train_idx: 2 of 2 entries not integers \(float64\)"),
    ], ids=["negative", "past_end", "fraction"])
    def test_bad_statistics_rows_rejected(self, stats_from, message):
        with pytest.raises(SplitError, match=message):
            zscore(tiny_dataset(), stats_from)


class TestOpennessSplit:
    def test_openness_zero_keeps_all_classes(self):
        data = tiny_dataset()
        split = openness_split(data, 0.0, (0.5, 0.25, 0.25), seed=0)
        assert sorted(split.known_classes) == [0, 1, 2]
        assert split.unknown_classes == []
        assert split.openness_achieved == 0.0

    def test_known_count_matches_enumeration_oracle(self):
        # oracle: enumerate candidate counts and minimize the gap directly
        data = tiny_dataset(classes=10, n_per_class=2, dims=(2,))
        requested = 0.1
        gaps = {c: abs(requested - achieved_openness(c, 10)) for c in range(2, 11)}
        best = min(gaps, key=gaps.get)
        assert best == 7
        split = openness_split(data, requested, (0.5, 0.25, 0.25), seed=1)
        assert len(split.known_classes) == 7
        assert split.openness_achieved == pytest.approx(achieved_openness(7, 10))

    def test_paper_ratio_split_counts(self):
        data = tiny_dataset(classes=4, n_per_class=100, dims=(2,))
        split = openness_split(data, 0.0, (0.1, 0.1, 0.8), seed=2)
        for cls in split.known_classes:
            rows = set(np.flatnonzero(data.labels == cls).tolist())
            assert len(rows & set(split.train_idx)) == 10
            assert len(rows & set(split.val_idx)) == 10
            assert len(rows & set(split.test_idx)) == 80

    def test_disjoint_and_covering(self):
        data = tiny_dataset(classes=6, n_per_class=10)
        split = openness_split(data, 0.15, (0.3, 0.2, 0.5), seed=3)
        train, val, test = set(split.train_idx), set(split.val_idx), set(split.test_idx)
        assert not (train & val) and not (train & test) and not (val & test)
        assert train | val | test == set(range(data.n_samples))
        unknown_rows = {
            i for i in range(data.n_samples) if data.labels[i] in set(split.unknown_classes)
        }
        assert unknown_rows <= test

    def test_pure_function_of_inputs(self):
        data = tiny_dataset(classes=6, n_per_class=10)
        a = openness_split(data, 0.2, (0.4, 0.2, 0.4), seed=9)
        b = openness_split(data, 0.2, (0.4, 0.2, 0.4), seed=9)
        assert a == b

    def test_achieved_openness_monotone_in_known_count(self):
        values = [achieved_openness(c, 12) for c in range(2, 13)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_openness_out_of_range(self):
        with pytest.raises(SplitError):
            openness_split(tiny_dataset(), 1.0, (0.5, 0.25, 0.25), seed=0)

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(SplitError):
            openness_split(tiny_dataset(), 0.1, (0.5, 0.5, 0.5), seed=0)

    def test_split_json_roundtrip(self):
        data = tiny_dataset(classes=5, n_per_class=6)
        split = openness_split(data, 0.2, (0.4, 0.2, 0.4), seed=4)
        again = OpennessSplit.from_json(split.to_json())
        assert again == split

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.pop("train_idx"), r"missing \['train_idx'\], unknown \[\]"),
        (lambda d: d.update(note="x"), r"missing \[\], unknown \['note'\]"),
    ], ids=["missing_key", "unknown_key"])
    def test_split_json_keys_checked(self, edit, message):
        data = json.loads(openness_split(tiny_dataset(), 0.2, (0.5, 0.25, 0.25), seed=0).to_json())
        edit(data)
        with pytest.raises(SplitError, match=message):
            OpennessSplit.from_json(json.dumps(data))


class TestBatches:
    def test_single_batch(self):
        data = tiny_dataset(classes=5, n_per_class=10, dims=(2,))
        split = openness_split(data, 0.0, (1.0, 0.0, 0.0), seed=0)
        assert len(split.train_idx) == 50
        batches = make_batches(data, split, 50, seed=0, epoch=1)
        assert len(batches) == 1
        assert batches[0].size == 50

    def test_ceiling_partition(self):
        data = tiny_dataset(classes=5, n_per_class=11, dims=(2,))
        split = openness_split(data, 0.0, (1.0, 0.0, 0.0), seed=0)
        batches = make_batches(data, split, 50, seed=0, epoch=1)
        assert [b.size for b in batches] == [50, 5]

    def test_deterministic_per_seed_epoch(self):
        data = tiny_dataset(classes=4, n_per_class=8)
        split = openness_split(data, 0.0, (0.5, 0.25, 0.25), seed=0)
        a = make_batches(data, split, 4, seed=5, epoch=3)
        b = make_batches(data, split, 4, seed=5, epoch=3)
        c = make_batches(data, split, 4, seed=5, epoch=4)
        assert all(np.array_equal(x.labels, y.labels) for x, y in zip(a, b))
        assert any(not np.array_equal(x.labels, y.labels) for x, y in zip(a, c))

    def test_batch_size_floor(self):
        data = tiny_dataset()
        split = openness_split(data, 0.0, (0.5, 0.25, 0.25), seed=0)
        with pytest.raises(SplitError):
            make_batches(data, split, 1, seed=0, epoch=0)

    def test_batch_row_consistency_guard(self):
        with pytest.raises(DatasetError):
            Batch(views=[np.zeros((3, 2))], labels=[0, 1], is_pseudo=[False, False])
