"""Spectral norm estimation and the wall-implied operator bounds."""

import numpy as np
import pytest

from volumize import (
    LayerSpec,
    SeededRng,
    VolumizationConfig,
    check_entrywise_bound,
    check_network_lipschitz,
    contractive_volumes,
    derive_layer_volumes,
    init_network,
    power_iteration_smax,
)
from volumize.errors import DomainError
from volumize.spectral import SpectralReport
from volumize.volumization import apply_volumization
from volumize.optimizers import OptimizerSpec, OptimizerState


class TestPowerIteration:
    def test_diagonal_matrix(self):
        w = np.diag([3.0, -1.0, 0.5])
        assert power_iteration_smax(w) == pytest.approx(3.0, rel=1e-9)

    def test_rank_one_ones(self):
        # singular value of the all-ones 3x4 matrix is sqrt(12)
        assert power_iteration_smax(np.ones((3, 4))) == pytest.approx(
            np.sqrt(12.0), rel=1e-9
        )

    def test_zero_matrix(self):
        assert power_iteration_smax(np.zeros((4, 4))) == 0.0

    def test_matches_svd_on_random(self):
        rng = np.random.default_rng(2)
        for shape in ((5, 5), (8, 3), (3, 8)):
            w = rng.standard_normal(shape)
            want = np.linalg.svd(w, compute_uv=False)[0]
            assert power_iteration_smax(w) == pytest.approx(want, rel=1e-8)

    def test_transpose_invariant(self):
        w = np.random.default_rng(3).standard_normal((6, 4))
        a = power_iteration_smax(w)
        b = power_iteration_smax(w.T)
        assert a == pytest.approx(b, rel=1e-9)

    def test_converges_from_below(self):
        w = np.random.default_rng(4).standard_normal((10, 10))
        want = np.linalg.svd(w, compute_uv=False)[0]
        assert power_iteration_smax(w) <= want * (1 + 1e-12)

    def test_deterministic(self):
        w = np.random.default_rng(5).standard_normal((7, 7))
        assert power_iteration_smax(w) == power_iteration_smax(w)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            power_iteration_smax(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestEntrywiseBound:
    def test_bounds_hold_for_inside_matrices(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            rows = int(rng.integers(1, 17))
            cols = int(rng.integers(1, 17))
            vol = float(rng.uniform(0.05, 2.0))
            w = rng.uniform(-vol, vol, (rows, cols))
            rep = check_entrywise_bound(w, vol)
            assert rep.entries_in_volume
            assert rep.within_sqrt and rep.within_max
            assert rep.smax <= vol * np.sqrt(rows * cols) + 1e-8
            assert rep.bound_sqrt <= rep.bound_max + 1e-15

    def test_flags_out_of_volume_entries(self):
        w = np.array([[0.5, 2.0], [0.0, 0.1]])
        rep = check_entrywise_bound(w, vol=1.0)
        assert not rep.entries_in_volume
        assert rep.entry_max == 2.0

    def test_sqrt_bound_is_tight_for_constant_matrix(self):
        # |entries| = V everywhere: smax equals V*sqrt(r*c) exactly
        rep = check_entrywise_bound(np.full((4, 6), 0.3), vol=0.3)
        assert rep.smax == pytest.approx(0.3 * np.sqrt(24.0), rel=1e-9)
        assert rep.within_sqrt

    def test_csv_row_matches_header(self):
        rep = check_entrywise_bound(np.eye(3) * 0.2, vol=0.25)
        row = rep.csv_row()
        assert list(row) == list(SpectralReport.CSV_HEADER)
        assert row["rows"] == 3 and row["cols"] == 3


class TestNetworkLipschitz:
    def _projected_net(self):
        rng = SeededRng(31)
        net = init_network(
            [
                LayerSpec(12, 20, activation="relu"),
                LayerSpec(20, 8, activation="relu"),
                LayerSpec(8, 5),
            ],
            rng,
        )
        vols = contractive_volumes(net)
        state = OptimizerState.init_for(net, OptimizerSpec(kind="sgd", lr=0.1))
        apply_volumization(net, state, vols, alpha=0.0)  # hard projection
        return net

    def test_contractive_volumes_formula(self):
        net = self._projected_net()
        vols = contractive_volumes(net)
        # one wall per layer; a layer's bias shares it
        assert vols == pytest.approx((1.0 / 20.0, 1.0 / 20.0, 1.0 / 8.0))

    def test_projected_net_is_contraction(self):
        net = self._projected_net()
        rep = check_network_lipschitz(net, n_pairs=2000)
        assert rep.smax_product <= 1.0 + 1e-6
        assert rep.product_within_one
        assert rep.empirical <= rep.smax_product * (1 + 1e-6)
        assert rep.empirical_within_product
        assert rep.ok
        # one report per weight matrix; biases do not enter operator norms
        assert len(rep.layer_reports) == 3

    def test_audit_allows_1e_6_past_the_wall_and_a_single_check_1e_8(self):
        net = self._projected_net()
        vol = contractive_volumes(net)[0]
        net.layers[0].w[0, 0] = vol + 5e-7
        rep = check_network_lipschitz(net, n_pairs=100)
        assert rep.layer_reports[0].entries_in_volume
        assert not check_entrywise_bound(net.layers[0].w, vol).entries_in_volume

    def test_unconstrained_net_can_fail(self):
        rng = SeededRng(32)
        net = init_network([LayerSpec(30, 40), LayerSpec(40, 30)], rng)
        for layer in net.layers:
            layer.w *= 10.0
        rep = check_network_lipschitz(net, n_pairs=500)
        assert rep.smax_product > 1.0
        assert not rep.product_within_one
        assert not rep.ok

    def test_walls_from_config_match_manual_projection(self):
        # deriving volumes via cfg v then clipping equals using the raw list
        rng = SeededRng(33)
        net_a = init_network([LayerSpec(6, 6)], rng.spawn("a"))
        net_b = net_a.clone()
        cfg = VolumizationConfig(v=0.4, alpha=0.0)
        vols = derive_layer_volumes(net_a, cfg)
        sa = OptimizerState.init_for(net_a, OptimizerSpec(kind="sgd", lr=0.1))
        sb = OptimizerState.init_for(net_b, OptimizerSpec(kind="sgd", lr=0.1))
        apply_volumization(net_a, sa, vols, alpha=0.0)
        apply_volumization(net_b, sb, list(vols), alpha=0.0)
        np.testing.assert_array_equal(net_a.layers[0].w, net_b.layers[0].w)
