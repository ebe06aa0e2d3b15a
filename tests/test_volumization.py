"""The wall transform: exact special cases, movement properties, config."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volumize import (
    ConfigError,
    LayerSpec,
    OptimizerSpec,
    OptimizerState,
    SeededRng,
    ShapeError,
    VolumizationConfig,
    apply_volumization,
    derive_layer_volumes,
    init_network,
    new_run,
)
from volumize import _kernels as K
from volumize.errors import DomainError

finite_w = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _walls(w, m, vol, alpha, clamp=False):
    """The training wall kernel on float64 copies of w and m; returns them."""
    w = np.array(w, dtype=np.float64)
    m = np.array(m, dtype=np.float64)
    K.volumize(w, m, vol, alpha, clamp)
    return w, m


class TestConfig:
    def test_defaults_are_off(self):
        cfg = VolumizationConfig()
        assert not cfg.enabled

    def test_enabled_logic(self):
        assert VolumizationConfig(v=1.0, alpha=0.5).enabled
        assert not VolumizationConfig(v=float("inf"), alpha=0.5).enabled
        assert not VolumizationConfig(v=1.0, alpha=1.0).enabled
        # v=0 with alpha<1 is pure decay, still an active transform
        assert VolumizationConfig(v=0.0, alpha=0.5).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"v": -0.1},
            {"v": float("nan")},
            {"alpha": 1.5},
            {"alpha": -1.01},
            {"alpha": float("nan")},
            {"overshoot_policy": "bounce"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            VolumizationConfig(**kwargs)

    def test_layer_volume_rejects_negative(self):
        # custom walls enter through new_run, one per layer
        net = init_network([LayerSpec(2, 3), LayerSpec(3, 2)], SeededRng(0))
        cfg = VolumizationConfig(v=1.0, alpha=0.5)
        for bad in (-1.0, float("nan")):
            with pytest.raises(DomainError):
                new_run(net, OptimizerSpec(kind="sgd"), cfg, SeededRng(1), vols=(0.5, bad))


class TestExactSpecialCases:
    """These are bitwise contracts, not approximations."""

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.w = rng.standard_normal(256) * 2.0
        self.m = rng.standard_normal(256)

    def test_zero_volume_is_exact_decay(self):
        w, m = _walls(self.w, self.m, 0.0, 0.37)
        np.testing.assert_array_equal(w, 0.37 * self.w)
        np.testing.assert_array_equal(m, 0.37 * self.m)

    def test_alpha_zero_is_exact_clip(self):
        w, m = _walls(self.w, self.m, 0.8, 0.0)
        np.testing.assert_array_equal(w, np.clip(self.w, -0.8, 0.8))
        crossed = np.abs(self.w) > 0.8
        np.testing.assert_array_equal(m[crossed], 0.0)
        np.testing.assert_array_equal(m[~crossed], self.m[~crossed])

    def test_alpha_one_is_identity(self):
        w, m = _walls(self.w, self.m, 0.5, 1.0)
        np.testing.assert_array_equal(w, self.w)
        np.testing.assert_array_equal(m, self.m)

    def test_infinite_volume_is_identity(self):
        w, m = _walls(self.w, self.m, float("inf"), 0.0)
        np.testing.assert_array_equal(w, self.w)
        np.testing.assert_array_equal(m, self.m)


class TestMovementProperties:
    @given(w=finite_w, vol=st.floats(0.0, 100.0), alpha=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_pull_lands_between_wall_and_start(self, w, vol, alpha):
        out, _ = _walls([w], [0.0], vol, alpha)
        if abs(w) <= vol:
            assert out[0] == w
        else:
            lo, hi = sorted((vol, abs(w)))
            assert lo <= abs(out[0]) <= hi
            assert np.sign(out[0]) == np.sign(w) or out[0] == 0.0

    @given(w=finite_w, m=finite_w, vol=st.floats(0.0, 100.0), alpha=st.floats(-1.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_momentum_scaled_by_alpha_exactly_on_crossings(self, w, m, vol, alpha):
        _, m_out = _walls([w], [m], vol, alpha)
        if abs(w) > vol and alpha != 1.0:
            assert m_out[0] == alpha * m
        else:
            assert m_out[0] == m

    @given(w=finite_w, vol=st.floats(1e-3, 100.0))
    @settings(max_examples=300, deadline=None)
    def test_clip_is_idempotent(self, w, vol):
        once, _ = _walls([w], [0.0], vol, 0.0)
        twice, _ = _walls(once, [0.0], vol, 0.0)
        assert once[0] == twice[0]

    @given(w=finite_w, vol=st.floats(0.0, 100.0), alpha=st.floats(-1.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_odd_in_w(self, w, vol, alpha):
        out_pos, _ = _walls([w], [0.0], vol, alpha)
        out_neg, _ = _walls([-w], [0.0], vol, alpha)
        assert out_neg[0] == -out_pos[0]

    @given(
        vol=st.floats(0.25, 64.0),
        frac=st.floats(0.0, 0.5, exclude_min=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_elastic_reflection_preserves_wall_distance(self, vol, frac):
        # For w in (V, 1.5V] every operand pair below stays within a factor
        # of two, so the distances come out exact (Sterbenz): reflection at
        # alpha=-1 is energy-preserving bit for bit.
        w = vol + frac * vol
        if not w > vol:  # frac*vol can underflow to w == vol
            return
        out, _ = _walls([w], [0.0], vol, -1.0)
        assert vol - out[0] == w - vol

    def test_reflection_can_overshoot_and_clamp_cuts_it(self):
        w = [5.0]
        left, _ = _walls(w, [0.0], 1.0, -1.0)
        assert left[0] == -3.0  # past the far wall
        clamped, _ = _walls(w, [0.0], 1.0, -1.0, clamp=True)
        assert clamped[0] == -1.0


def _tensor_slices(net):
    """Each tensor's slice of the arena, in param_tensors() order."""
    out, off = [], 0
    for _, t in net.param_tensors():
        out.append(slice(off, off + t.size))
        off += t.size
    return out


class TestNetworkApplication:
    def _net(self):
        rng = SeededRng(3)
        return init_network(
            [LayerSpec(6, 10, activation="relu"), LayerSpec(10, 3)], rng
        )

    def test_derive_layer_volumes_scales_by_init_a(self):
        net = self._net()
        vols = derive_layer_volumes(net, VolumizationConfig(v=0.5, alpha=0.0))
        a1 = np.sqrt(6.0 / 6)
        a2 = np.sqrt(6.0 / 10)
        # one wall per layer, shared by its weight and bias
        assert len(vols) == len(net.layers) == 2
        assert vols[0] == pytest.approx(0.5 * a1)
        assert vols[1] == pytest.approx(0.5 * a2)

    def test_inactive_walls_derive_to_none(self):
        net = self._net()
        assert derive_layer_volumes(net, VolumizationConfig()) is None  # v = inf
        assert derive_layer_volumes(net, VolumizationConfig(v=0.5, alpha=1.0)) is None

    def test_walls_follow_the_net_fan_mode(self):
        specs = [LayerSpec(6, 10, activation="relu"), LayerSpec(10, 3)]
        net = init_network(specs, SeededRng(3), fan_mode="fan_out")
        vols = derive_layer_volumes(net, VolumizationConfig(v=0.5, alpha=0.0))
        assert vols == (0.5 * np.sqrt(6.0 / 10), 0.5 * np.sqrt(6.0 / 3))

    def test_apply_scales_first_moment_only(self):
        net = self._net()
        state = OptimizerState.init_for(net, OptimizerSpec(kind="adam"))
        state.m += 1.0
        state.n += 2.0
        vols = derive_layer_volumes(net, VolumizationConfig(v=0.1, alpha=0.5))
        before = [w.copy() for _, w in net.param_tensors()]
        apply_volumization(net, state, vols, alpha=0.5)
        moved = 0
        for (i, _, _), b, sl in zip(net.layer_tensors(), before, _tensor_slices(net)):
            crossed = np.abs(b.ravel()) > vols[i]
            moved += int(crossed.sum())
            np.testing.assert_array_equal(state.m[sl][crossed], 0.5)
            np.testing.assert_array_equal(state.m[sl][~crossed], 1.0)
        np.testing.assert_array_equal(state.n, 2.0)  # second moment never decays
        assert moved > 0  # the walls actually bit

    def test_apply_rejects_misaligned_volumes(self):
        net = self._net()
        state = OptimizerState.init_for(net, OptimizerSpec(kind="sgd"))
        vols = derive_layer_volumes(net, VolumizationConfig(v=0.1, alpha=0.5))
        with pytest.raises(ShapeError):
            apply_volumization(net, state, vols[:-1], alpha=0.5)
