"""Blob generation and label corruption."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from volumize.data import Dataset, gen_blobs, inject_label_noise
from volumize.errors import ConfigError
from volumize.linalg import SeededRng, stable_hash


def _data(seed=0, **kw):
    kw.setdefault("n_classes", 3)
    kw.setdefault("n_per_class", 25)
    kw.setdefault("dim", 4)
    return gen_blobs(SeededRng(stable_hash("data-tests", seed)), **kw)


class TestGenBlobs:
    def test_shapes_and_split(self):
        d = _data(n_per_class=25)
        # 80/20 per class with the test count floored
        assert d.n_test == 3 * (25 // 5)
        assert d.n_train == 3 * (25 - 25 // 5)
        assert d.x_train.shape == (d.n_train, 4)
        assert d.y_train.shape == (d.n_train,)
        assert d.dim == 4
        assert d.centers.shape == (3, 4)

    def test_labels_are_balanced(self):
        d = _data()
        for c in range(3):
            assert (d.y_train == c).sum() == 20
            assert (d.y_test == c).sum() == 5

    def test_deterministic(self):
        a, b = _data(seed=7), _data(seed=7)
        assert_array_equal(a.x_train, b.x_train)
        assert_array_equal(a.y_test, b.y_test)
        assert_array_equal(a.centers, b.centers)

    def test_seed_changes_data(self):
        a, b = _data(seed=1), _data(seed=2)
        assert not np.array_equal(a.x_train, b.x_train)

    def test_centers_independent_of_sample_count(self):
        # geometry must not move when n_per_class changes
        a = _data(seed=3, n_per_class=10)
        b = _data(seed=3, n_per_class=200)
        assert_array_equal(a.centers, b.centers)

    def test_spread_dials_cluster_width(self):
        tight = _data(seed=4, spread=0.05, n_per_class=200)
        wide = _data(seed=4, spread=2.0, n_per_class=200)
        def mean_dev(d):
            return np.mean([
                np.linalg.norm(d.x_train[d.y_train == c] - d.centers[c], axis=1).mean()
                for c in range(d.n_classes)
            ])
        assert mean_dev(wide) > 10 * mean_dev(tight)

    def test_no_corruption_recorded(self):
        assert _data().corrupted_indices.size == 0

    @pytest.mark.parametrize("kw", [
        dict(n_classes=1), dict(n_per_class=4), dict(dim=0),
    ])
    def test_config_validation(self, kw):
        with pytest.raises(ConfigError):
            _data(**kw)

    def test_spread_validation(self):
        # a config error, as for the other gen_blobs values: these are the
        # config's dataset keys, and so exit 1 from every command
        with pytest.raises(ConfigError, match="spread"):
            _data(spread=0.0)
        with pytest.raises(ConfigError, match="finite"):
            _data(spread=float("inf"))


class TestInjectLabelNoise:
    def _noisy(self, ratio, seed=0, data=None):
        d = data or _data(seed=seed, n_per_class=50)
        return d, inject_label_noise(d, ratio, SeededRng(stable_hash("noise", seed)))

    def test_exact_count(self):
        d, noisy = self._noisy(0.3)
        n_changed = int((noisy.y_train != d.y_train).sum())
        assert n_changed == int(0.3 * d.n_train)
        assert noisy.corrupted_indices.size == n_changed

    def test_never_keeps_original_label(self):
        d, noisy = self._noisy(0.5)
        idx = noisy.corrupted_indices
        assert (noisy.y_train[idx] != d.y_train[idx]).all()

    def test_indices_sorted_and_unique(self):
        _, noisy = self._noisy(0.4)
        idx = noisy.corrupted_indices
        assert_array_equal(idx, np.unique(idx))

    def test_untouched_rows_keep_labels(self):
        d, noisy = self._noisy(0.2)
        mask = np.ones(d.n_train, dtype=bool)
        mask[noisy.corrupted_indices] = False
        assert_array_equal(noisy.y_train[mask], d.y_train[mask])

    def test_test_labels_and_features_shared(self):
        d, noisy = self._noisy(0.6)
        assert noisy.y_test is d.y_test
        assert noisy.x_train is d.x_train

    def test_original_dataset_not_mutated(self):
        d = _data(n_per_class=50)
        y_before = d.y_train.copy()
        self._noisy(0.5, data=d)
        assert_array_equal(d.y_train, y_before)

    def test_zero_ratio_is_identity(self):
        d, noisy = self._noisy(0.0)
        assert_array_equal(noisy.y_train, d.y_train)
        assert noisy.corrupted_indices.size == 0

    def test_deterministic(self):
        d = _data(seed=5, n_per_class=50)
        a = inject_label_noise(d, 0.3, SeededRng(99))
        b = inject_label_noise(d, 0.3, SeededRng(99))
        assert_array_equal(a.y_train, b.y_train)
        assert_array_equal(a.corrupted_indices, b.corrupted_indices)

    def test_new_labels_roughly_uniform_over_others(self):
        # with 3 classes each corrupted label flips to one of 2 others
        d = _data(seed=6, n_classes=3, n_per_class=2000)
        noisy = inject_label_noise(d, 0.9, SeededRng(11))
        idx = noisy.corrupted_indices
        shift = (noisy.y_train[idx] - d.y_train[idx]) % 3
        frac = (shift == 1).mean()
        assert 0.45 < frac < 0.55

    @pytest.mark.parametrize("ratio", [-0.1, 1.0, 1.5])
    def test_ratio_validation(self, ratio):
        d = _data()
        with pytest.raises(ConfigError, match="noise_ratio"):
            inject_label_noise(d, ratio, SeededRng(0))
