"""Synthetic labeled datasets and controlled label corruption.

Gaussian blobs stand in for real image/text benchmarks at desk scale: class
centers are drawn once from a seeded stream, per-class points from another,
so the geometry is reproducible and independent of the sample count. Label
noise is injected as an exact count (floor(ratio * N) training labels, never
test labels), which keeps repeat-to-repeat variance down at small N. A
refused value raises ConfigError naming its config key.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .linalg import SeededRng


@dataclass(eq=False)
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    n_classes: int
    centers: np.ndarray
    corrupted_indices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def n_train(self) -> int:
        return self.x_train.shape[0]

    @property
    def n_test(self) -> int:
        return self.x_test.shape[0]

    @property
    def dim(self) -> int:
        return self.x_train.shape[1]


def gen_blobs(rng: SeededRng, n_classes: int = 4, n_per_class: int = 250,
              dim: int = 8, spread: float = 1.0) -> Dataset:
    """Isotropic Gaussian clusters around standard-normal centers, with a
    fixed 80/20 per-class train/test split.

    spread is the within-cluster standard deviation; the centers live at
    unit scale, so spread directly dials class overlap.
    """
    if n_classes < 2:
        raise ConfigError(f"n_classes must be >= 2, got {n_classes}")
    if n_per_class < 5:
        raise ConfigError(f"n_per_class must be >= 5, got {n_per_class}")
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    if not 0 < spread < math.inf:
        raise ConfigError(f"spread must be positive and finite, got {spread}")

    centers = rng.spawn("centers").normal((n_classes, dim))
    points_rng = rng.spawn("points")
    n_test = n_per_class // 5
    n_train = n_per_class - n_test

    xs_tr, ys_tr, xs_te, ys_te = [], [], [], []
    for c in range(n_classes):
        pts = centers[c] + spread * points_rng.normal((n_per_class, dim))
        xs_tr.append(pts[:n_train])
        xs_te.append(pts[n_train:])
        ys_tr.append(np.full(n_train, c, dtype=np.int64))
        ys_te.append(np.full(n_test, c, dtype=np.int64))
    return Dataset(
        x_train=np.ascontiguousarray(np.concatenate(xs_tr)),
        y_train=np.concatenate(ys_tr),
        x_test=np.ascontiguousarray(np.concatenate(xs_te)),
        y_test=np.concatenate(ys_te),
        n_classes=n_classes,
        centers=centers,
    )


def inject_label_noise(data: Dataset, ratio: float, rng: SeededRng) -> Dataset:
    """Reassign exactly floor(ratio * n_train) training labels, each drawn
    uniformly from the other classes (never its own). Test labels are left
    alone; the corrupted index set is recorded on the returned dataset.
    """
    if not 0.0 <= ratio < 1.0:
        raise ConfigError(f"noise_ratio must be in [0, 1), got {ratio}")
    n = data.n_train
    k = int(ratio * n)
    y = data.y_train.copy()
    if k > 0:
        idx = np.sort(rng.choice_without_replacement(n, k)).astype(np.int64)
        # (y + off) % C with off in 1..C-1 is a uniform draw over the other
        # classes and can never return the original label.
        off = rng.integers(1, data.n_classes, k)
        y[idx] = (y[idx] + off) % data.n_classes
    else:
        idx = np.empty(0, dtype=np.int64)
    return Dataset(
        x_train=data.x_train, y_train=y,
        x_test=data.x_test, y_test=data.y_test,
        n_classes=data.n_classes, centers=data.centers,
        corrupted_indices=idx,
    )
