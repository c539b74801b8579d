"""Multi-view dataset handling: ingestion, normalization, openness-based
class splitting, and deterministic batch assembly.

On-disk format: a JSON manifest {"views": [csv paths], "labels": csv path,
"name": str}; view CSVs hold one sample per row (no header), the label CSV
one integer per line. Split files are JSON and round-trip through
OpennessSplit.to_json / from_json.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Malformed dataset inputs."""


class SplitError(ValueError):
    """Infeasible or invalid split request."""


@dataclass
class MultiViewDataset:
    views: list[np.ndarray]
    labels: np.ndarray
    class_count: int
    name: str = "unnamed"

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.views = [np.ascontiguousarray(v, dtype=np.float64) for v in self.views]
        if not self.views:
            raise DatasetError("dataset needs at least one view")
        n = self.views[0].shape[0]
        for i, v in enumerate(self.views):
            if v.ndim != 2:
                raise DatasetError(f"view {i} is not a matrix")
            if v.shape[0] != n:
                raise DatasetError(
                    f"view {i} has {v.shape[0]} rows, expected {n} (row mismatch)"
                )
        if self.labels.shape != (n,):
            raise DatasetError(f"got {self.labels.shape[0]} labels for {n} samples")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise DatasetError(
                f"label out of range [0, {self.class_count}): found {self.labels.min()}..{self.labels.max()}"
            )
        counts = np.bincount(self.labels, minlength=self.class_count)
        thin = np.flatnonzero(counts < 2)
        if thin.size:
            raise DatasetError(f"classes {thin.tolist()} have fewer than 2 samples")

    @property
    def n_samples(self) -> int:
        return self.views[0].shape[0]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def view_dims(self) -> list[int]:
        return [v.shape[1] for v in self.views]


@dataclass
class OpennessSplit:
    known_classes: list[int]
    unknown_classes: list[int]
    train_idx: list[int]
    val_idx: list[int]
    test_idx: list[int]
    openness_requested: float
    openness_achieved: float
    seed: int

    def to_json(self) -> str:
        payload = {
            "known_classes": [int(c) for c in self.known_classes],
            "unknown_classes": [int(c) for c in self.unknown_classes],
            "train_idx": [int(i) for i in self.train_idx],
            "val_idx": [int(i) for i in self.val_idx],
            "test_idx": [int(i) for i in self.test_idx],
            "openness_requested": self.openness_requested,
            "openness_achieved": self.openness_achieved,
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "OpennessSplit":
        """Parse `to_json`'s output; missing or unknown keys raise `SplitError`."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise SplitError(f"split must be a JSON object, got {type(data).__name__}")
        names = {f.name for f in fields(cls)}
        if data.keys() != names:
            raise SplitError(
                f"split keys: missing {sorted(names - data.keys())}, "
                f"unknown {sorted(data.keys() - names)}"
            )
        return cls(**data)


@dataclass
class Batch:
    views: list[np.ndarray]
    labels: np.ndarray
    is_pseudo: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.is_pseudo = np.asarray(self.is_pseudo, dtype=bool)
        n = self.labels.shape[0]
        if self.is_pseudo.shape != (n,):
            raise DatasetError("is_pseudo length differs from labels")
        for v in self.views:
            if v.shape[0] != n:
                raise DatasetError("batch view row count differs from labels")

    @property
    def size(self) -> int:
        return self.labels.shape[0]


def _read_csv_matrix(path: Path) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except OSError as exc:
        raise DatasetError(f"cannot read view file {path}: {exc}") from exc
    except ValueError as exc:
        raise DatasetError(f"malformed CSV in {path}: {exc}") from exc
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0] + 1
        raise DatasetError(f"non-finite value in {path} at row {row}, column {col}")
    return data


def load(manifest_path) -> MultiViewDataset:
    """Load and validate a dataset from a JSON manifest."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise DatasetError(f"cannot read manifest {manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    for key in ("views", "labels"):
        if key not in manifest:
            raise DatasetError(f"manifest {manifest_path} is missing '{key}'")

    base = manifest_path.parent
    views = [_read_csv_matrix(base / p) for p in manifest["views"]]
    label_path = base / manifest["labels"]
    try:
        labels = np.loadtxt(label_path, dtype=np.int64, ndmin=1)
    except OSError as exc:
        raise DatasetError(f"cannot read label file {label_path}: {exc}") from exc
    except ValueError as exc:
        raise DatasetError(f"malformed label file {label_path}: {exc}") from exc

    n = views[0].shape[0]
    for rel, v in zip(manifest["views"], views):
        if v.shape[0] != n:
            raise DatasetError(f"view file {base / rel} has {v.shape[0]} rows, expected {n}")
    if labels.shape[0] != n:
        raise DatasetError(f"label file {label_path} has {labels.shape[0]} rows, expected {n}")
    class_count = int(labels.max()) + 1 if labels.size else 0
    if labels.size and labels.min() < 0:
        raise DatasetError(f"label file {label_path} contains negative labels")
    return MultiViewDataset(
        views=views,
        labels=labels,
        class_count=class_count,
        name=manifest.get("name", manifest_path.stem),
    )


def zscore(dataset: MultiViewDataset, stats_from, rows=None) -> list[np.ndarray]:
    """Each view's rows `rows` (default: all) standardized by the mean and std
    of its rows `stats_from`, which must be a non-empty list of row numbers
    (`SplitError`). Columns with std below 1e-12 are centered, not divided."""
    fit = checked_indices(stats_from, dataset.n_samples, "split.train_idx")
    if fit.size == 0:
        raise SplitError("z-score statistics need a non-empty split.train_idx")
    out = []
    for v in dataset.views:
        ref = v[fit]
        std = ref.std(axis=0)
        x = v if rows is None else v[rows]
        out.append((x - ref.mean(axis=0)) / np.where(std < 1e-12, 1.0, std))
    return out


def checked_indices(indices, n_samples: int, name: str, error=SplitError) -> np.ndarray:
    """`indices` as a 1-D intp array of row numbers in [0, n_samples);
    otherwise `error`, naming `name` and the first bad entries."""
    rows = np.asarray(indices)
    if rows.ndim != 1:
        raise error(f"{name} must be 1-D, got shape {rows.shape}")
    if rows.dtype.kind in "iu":
        bad = rows[(rows < 0) | (rows >= n_samples)]
        what = f"outside [0, {n_samples})"
    else:
        bad = rows
        what = f"not integers ({rows.dtype})"
    if bad.size:
        raise error(f"{name}: {bad.size} of {rows.size} entries {what}, first {bad[:5].tolist()}")
    return rows.astype(np.intp, copy=False)


def achieved_openness(known_count: int, total_classes: int) -> float:
    """Openness value of keeping `known_count` of `total_classes` classes."""
    return 1.0 - math.sqrt(2.0 * known_count / (known_count + total_classes))


@dataclass(frozen=True)
class SplitConfig:
    """The `split` config section; `openness_split` checks the values."""
    openness: float = 0.1
    ratios: tuple[float, float, float] = (0.1, 0.1, 0.8)
    seed: int = 0


def openness_split(
    dataset: MultiViewDataset,
    openness: float,
    ratios: tuple[float, float, float] = (0.1, 0.1, 0.8),
    seed: int = 0,
) -> OpennessSplit:
    """Pick known classes matching the requested openness and stratify.

    The known-class count minimizes the distance between requested and
    achieved openness over all feasible counts (>= 2). Known-class samples
    are split per class by `ratios`, rounding train/val down and sending
    remainders to test; unknown-class samples all go to test.
    """
    if not 0.0 <= openness < 1.0:
        raise SplitError(f"openness must lie in [0, 1), got {openness}")
    if abs(1.0 - (ratios[0] + ratios[1] + ratios[2])) > 1e-9:
        raise SplitError(f"ratios must sum to 1, got {ratios}")
    total = dataset.class_count
    candidates = range(2, total + 1)
    if not candidates:
        raise SplitError("dataset has fewer than 2 classes")
    known_count = min(candidates, key=lambda c: abs(openness - achieved_openness(c, total)))
    achieved = achieved_openness(known_count, total)

    rng = np.random.default_rng(seed)
    order = rng.permutation(total)
    known = np.sort(order[:known_count])
    unknown = np.sort(order[known_count:])

    train_idx: list[int] = []
    val_idx: list[int] = []
    test_idx: list[int] = []
    for cls in known:
        rows = np.flatnonzero(dataset.labels == cls)
        rows = rows[rng.permutation(rows.size)]
        n_train = int(ratios[0] * rows.size)
        n_val = int(ratios[1] * rows.size)
        train_idx.extend(rows[:n_train].tolist())
        val_idx.extend(rows[n_train : n_train + n_val].tolist())
        test_idx.extend(rows[n_train + n_val :].tolist())
    for cls in unknown:
        test_idx.extend(np.flatnonzero(dataset.labels == cls).tolist())

    return OpennessSplit(
        known_classes=[int(c) for c in known],
        unknown_classes=[int(c) for c in unknown],
        train_idx=sorted(train_idx),
        val_idx=sorted(val_idx),
        test_idx=sorted(test_idx),
        openness_requested=float(openness),
        openness_achieved=float(achieved),
        seed=int(seed),
    )


def make_batches(
    dataset: MultiViewDataset,
    split: OpennessSplit,
    batch_size: int,
    seed: int,
    epoch: int,
) -> list[Batch]:
    """Shuffled (seed, epoch)-deterministic partition of the train indices."""
    if batch_size < 2:
        raise SplitError(f"batch_size must be >= 2, got {batch_size}")
    idx = np.asarray(split.train_idx, dtype=np.intp)
    rng = np.random.default_rng([seed, epoch])
    idx = idx[rng.permutation(idx.size)]
    batches = []
    for start in range(0, idx.size, batch_size):
        part = idx[start : start + batch_size]
        batches.append(
            Batch(
                views=[v[part] for v in dataset.views],
                labels=dataset.labels[part],
                is_pseudo=np.zeros(part.size, dtype=bool),
            )
        )
    return batches
