"""Deterministic rng plumbing, the hash, and the matrix validator."""

import numpy as np
import pytest

from volumize import SeededRng, ShapeError, stable_hash
from volumize.errors import DomainError
from volumize.linalg import (
    as_matrix,
    he_uniform_init,
    sample_cauchy,
    sample_uniform,
)


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("a", 1, "b") == stable_hash("a", 1, "b")

    def test_sensitive_to_order_and_value(self):
        seen = {
            stable_hash("a", 1),
            stable_hash(1, "a"),
            stable_hash("a", 2),
            stable_hash("a1"),
        }
        assert len(seen) == 4

    def test_u64_range(self):
        for parts in (("x",), (0,), ("sweep", 3, 1, 0), (2**63,)):
            h = stable_hash(*parts)
            assert 0 <= h < 2**64

    def test_no_concatenation_collision(self):
        # ("ab", "c") and ("a", "bc") must hash differently
        assert stable_hash("ab", "c") != stable_hash("a", "bc")


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(99).random(16)
        b = SeededRng(99).random(16)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(SeededRng(1).random(16), SeededRng(2).random(16))

    def test_spawn_streams_are_independent_and_stable(self):
        root = SeededRng(7)
        a1 = root.spawn("a").random(8)
        b1 = root.spawn("b").random(8)
        a2 = SeededRng(7).spawn("a").random(8)
        np.testing.assert_array_equal(a1, a2)
        assert not np.array_equal(a1, b1)

    def test_spawn_does_not_advance_parent(self):
        root = SeededRng(7)
        before = SeededRng(7).random(4)
        root.spawn("x")
        np.testing.assert_array_equal(root.random(4), before)

    @staticmethod
    def _discard(rng, k):
        # draw and drop k unit doubles, a bounded block at a time
        while k:
            m = min(k, 1 << 20)
            rng.random(m)
            k -= m

    @pytest.mark.parametrize("buffer_pos", range(5))
    @pytest.mark.parametrize("pending_half", [False, True])
    def test_ahead_equals_draw_and_discard(self, buffer_pos, pending_half):
        src = SeededRng(77)
        src.random(6)  # the buffer now holds a real block
        if pending_half:
            src.integers(0, 10)  # a 32-bit draw keeps the other half pending
        src.set_state({**src.get_state(), "buffer_pos": buffer_pos})
        for k in list(range(8)) + [8, 12, 64, 4096, 10**7 + 3]:
            before = src.get_state()
            cursor = src.ahead(k)
            assert src.get_state() == before
            ref = SeededRng.from_state(before)
            self._discard(ref, k)
            assert cursor.get_state() == ref.get_state()
            np.testing.assert_array_equal(cursor.random(9), ref.random(9))
            assert cursor.get_state() == ref.get_state()
            assert cursor.integers(0, 1000, 5).tolist() == ref.integers(0, 1000, 5).tolist()

    def test_ahead_refuses_a_negative_offset(self):
        with pytest.raises(DomainError, match="k >= 0"):
            SeededRng(1).ahead(-1)

    def test_state_round_trip_mid_stream(self):
        rng = SeededRng(5)
        rng.random(37)  # advance to an awkward position
        state = rng.get_state()
        want = rng.random(11)
        resumed = SeededRng.from_state(state)
        np.testing.assert_array_equal(resumed.random(11), want)

    def test_state_survives_json(self):
        import json

        rng = SeededRng(5)
        rng.normal(13)
        state = json.loads(json.dumps(rng.get_state()))
        np.testing.assert_array_equal(
            SeededRng.from_state(state).random(7), rng.random(7)
        )

    def test_uniform_bounds(self):
        x = SeededRng(3).uniform(-2.0, 5.0, 10000)
        assert x.min() >= -2.0 and x.max() < 5.0

    def test_integers_half_open(self):
        x = SeededRng(3).integers(1, 4, 10000)
        assert set(np.unique(x)) == {1, 2, 3}

    def test_choice_without_replacement(self):
        idx = SeededRng(3).choice_without_replacement(50, 20)
        assert len(np.unique(idx)) == 20
        assert idx.min() >= 0 and idx.max() < 50

    def test_permutation_is_permutation(self):
        p = SeededRng(3).permutation(64)
        assert sorted(p.tolist()) == list(range(64))


class TestSampling:
    def test_sample_uniform_moments(self):
        x = sample_uniform(SeededRng(11), -1.0, 1.0, 200000)
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0 / 3.0) < 0.01

    def test_sample_cauchy_median_and_tails(self):
        x = sample_cauchy(SeededRng(12), 1.0, 200000)
        assert abs(np.median(x)) < 0.02
        # quartiles of a unit Cauchy sit at +-1
        assert abs(np.quantile(x, 0.75) - 1.0) < 0.05
        # no finite variance: huge draws must exist
        assert np.abs(x).max() > 1e3

    def test_cauchy_scale(self):
        x = sample_cauchy(SeededRng(12), 2.5, 200000)
        assert abs(np.quantile(x, 0.75) - 2.5) < 0.15


class TestHeUniformInit:
    def test_bounds_and_spread(self):
        w, a = he_uniform_init(SeededRng(4), 100, 80, fan=80)
        assert a == pytest.approx(np.sqrt(6.0 / 80), rel=0, abs=0)
        assert w.shape == (100, 80)
        assert np.abs(w).max() <= a
        # uniform on [-a, a]: var = a^2/3
        assert abs(w.var() - a * a / 3.0) < 0.05 * a * a

    def test_fan_changes_scale(self):
        _, a_in = he_uniform_init(SeededRng(4), 10, 40, fan=40)
        _, a_out = he_uniform_init(SeededRng(4), 10, 40, fan=10)
        assert a_out > a_in

    def test_bad_dims_rejected(self):
        with pytest.raises(DomainError):
            he_uniform_init(SeededRng(4), 0, 3, fan=3)


class TestMatmulSurface:
    def test_non_2d_rejected(self):
        with pytest.raises(ShapeError):
            as_matrix(np.ones(3))
