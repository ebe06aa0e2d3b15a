"""Wall rounding, distribution diagnostics, and the packed weight format."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from volumize.data import gen_blobs
from volumize.errors import CheckpointError, ConfigError, DomainError
from volumize.linalg import SeededRng, he_uniform_init, stable_hash
from volumize.net import LayerSpec, init_network
from volumize.optimizers import OptimizerSpec
from volumize.quantizer import (
    QuantizationScheme,
    load_quantized_weights,
    mass_near_walls,
    quantize,
    quantize_network,
    quantized_training,
    save_quantized_weights,
    weight_histogram,
)
from volumize.training import new_run, train_model
from volumize.volumization import VolumizationConfig, derive_layer_volumes

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


# --- quantize -----------------------------------------------------------

class TestQuantize:
    def test_ternary_example(self):
        got = quantize([0.6, 0.3, -0.3, -0.7], 1.0, "ternary")
        assert_array_equal(got, [1.0, 0.0, 0.0, -1.0])

    def test_binary_example(self):
        got = quantize([0.0, 0.3, -0.7], 1.0, "binary")
        assert_array_equal(got, [1.0, 1.0, -1.0])

    def test_binary_tie_goes_positive(self):
        assert quantize(np.array([0.0]), 0.25, "binary")[0] == 0.25
        assert quantize(np.array([-0.0]), 0.25, "binary")[0] == 0.25

    def test_ternary_band_is_closed(self):
        # exactly V/2 in magnitude still rounds to zero, on both sides
        got = quantize([0.5, -0.5, np.nextafter(0.5, 1.0)], 1.0, "ternary")
        assert_array_equal(got, [0.0, 0.0, 1.0])

    @given(st.lists(finite, min_size=1, max_size=32),
           st.floats(min_value=1e-3, max_value=1e3),
           st.sampled_from(["binary", "ternary"]))
    @settings(max_examples=200, deadline=None)
    def test_codomain_and_idempotence(self, ws, vol, mode):
        w = np.array(ws)
        q = quantize(w, vol, mode)
        walls = {-vol, vol} if mode == "binary" else {-vol, 0.0, vol}
        assert set(np.unique(q)) <= walls
        assert_array_equal(quantize(q, vol, mode), q)

    @given(st.lists(finite, min_size=1, max_size=32),
           st.floats(min_value=1e-3, max_value=1e3),
           st.sampled_from(["binary", "ternary"]))
    @settings(max_examples=200, deadline=None)
    def test_odd_away_from_the_tie(self, ws, vol, mode):
        w = np.array(ws)
        w = w[w != 0.0]
        assert_array_equal(quantize(-w, vol, mode), -quantize(w, vol, mode))

    def test_shape_preserved(self):
        w = np.arange(12, dtype=float).reshape(3, 4) - 6.0
        assert quantize(w, 2.0, "ternary").shape == (3, 4)

    @pytest.mark.parametrize("vol", [0.0, -1.0, -np.inf])
    def test_rejects_nonpositive_vol(self, vol):
        with pytest.raises(DomainError):
            quantize([0.1], vol, "binary")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            quantize([0.1], 1.0, "trinary")


class TestQuantizeNetwork:
    def test_rounds_weights_and_biases_in_place(self, rng):
        net = init_network([LayerSpec(6, 10, activation="relu"),
                            LayerSpec(10, 3)], rng)
        cfg = VolumizationConfig(v=0.5, alpha=0.5)
        vols = derive_layer_volumes(net, cfg)
        quantize_network(net, vols, "ternary")
        for i, _, t in net.layer_tensors():
            v = vols[i]
            assert set(np.unique(t)) <= {-v, 0.0, v}

    def test_missing_volume_entry(self, small_net):
        cfg = VolumizationConfig(v=0.5, alpha=0.5)
        vols = derive_layer_volumes(small_net, cfg)[:-1]
        with pytest.raises(ConfigError):
            quantize_network(small_net, vols, "binary")


# --- distribution diagnostics -------------------------------------------

class TestMassNearWalls:
    def test_all_on_walls(self):
        assert mass_near_walls([0.7, -0.7, 0.7], 0.7) == 1.0

    def test_none_near_walls(self):
        assert mass_near_walls([0.0, 0.1, -0.2], 1.0) == 0.0

    def test_band_is_relative_to_vol(self):
        # |w| within 5% of V counts; 0.94 does not, 0.96 does (V=1)
        assert mass_near_walls([0.94], 1.0) == 0.0
        assert mass_near_walls([0.96], 1.0) == 1.0
        assert mass_near_walls([-0.96], 1.0) == 1.0

    def test_fresh_uniform_layer_matches_truncated_band(self):
        # w ~ U(-a, a) with walls at V = a: only the inward half of the
        # +-delta band lies in the support, so the expected mass is delta
        w, a = he_uniform_init(SeededRng(77), 400, 400, fan=400)
        got = mass_near_walls(w, a)
        assert got == pytest.approx(0.05, abs=0.01)

    def test_empty_is_zero(self):
        assert mass_near_walls(np.empty(0), 1.0) == 0.0

    def test_vol_validation(self):
        with pytest.raises(DomainError):
            mass_near_walls([0.1], 0.0)


class TestWeightHistogram:
    def test_counts_cover_every_parameter(self, small_net):
        hists = weight_histogram(small_net)
        assert len(hists) == len(small_net.layers)
        for h, layer in zip(hists, small_net.layers):
            assert h.counts.sum() == layer.w.size + layer.b.size
            assert len(h.bin_edges) == 65

    def test_range_is_symmetric(self, small_net):
        for h in weight_histogram(small_net):
            assert h.bin_edges[0] == -h.bin_edges[-1]

    def test_mass_without_vols_is_nan(self, small_net):
        for h in weight_histogram(small_net):
            assert np.isnan(h.mass_near_walls)
            assert np.isnan(h.vol)

    def test_mass_with_vols(self, small_net):
        cfg = VolumizationConfig(v=0.5, alpha=0.5)
        vols = derive_layer_volumes(small_net, cfg)
        for layer in small_net.layers:
            layer.w[...] = np.sign(layer.w)  # park far outside the band
        hists = weight_histogram(small_net, vols=vols)
        for i, h in enumerate(hists):
            assert h.vol == vols[i]
            assert 0.0 <= h.mass_near_walls <= 1.0

    def test_biasless_layer_pools_weights_only(self):
        net = init_network([LayerSpec(3, 4, has_bias=False),
                            LayerSpec(4, 2)], SeededRng(9))
        vols = derive_layer_volumes(net, VolumizationConfig(v=0.5, alpha=0.5))
        hists = weight_histogram(net, vols=vols)
        assert [h.counts.sum() for h in hists] == [12, 8 + 2]
        assert hists[0].mass_near_walls == mass_near_walls(net.layers[0].w, vols[0])


# --- quantized training --------------------------------------------------

def _toy_data():
    return gen_blobs(SeededRng(stable_hash("quant-data")), n_classes=3,
                     n_per_class=30, dim=5, spread=0.5)


def _toy_run(seed, sgd_spec, cfg, batch_size=16):
    net = init_network([LayerSpec(5, 12, activation="relu"), LayerSpec(12, 3)],
                       SeededRng(seed))
    return new_run(net, sgd_spec, cfg, SeededRng(seed).spawn("train"),
                   batch_size=batch_size)


class TestQuantizedTraining:
    def test_period_beyond_horizon_matches_plain_training(self, sgd_spec):
        data = _toy_data()
        cfg = VolumizationConfig(v=0.5, alpha=0.5)
        seed = stable_hash("quant-plain")
        net_a = init_network([LayerSpec(5, 12, activation="relu"), LayerSpec(12, 3)], SeededRng(seed))
        plain = train_model(net_a, data, sgd_spec, cfg,
                            SeededRng(seed).spawn("train"), epochs=6, batch_size=16)
        run = _toy_run(seed, sgd_spec, cfg)
        _, rounding_epochs = quantized_training(
            run, data, QuantizationScheme("ternary", period_epochs=100), 6)
        assert rounding_epochs == []
        assert run.trajectory.train_loss == plain.train_loss
        assert_array_equal(run.net.layers[0].w, net_a.layers[0].w)

    def test_rounding_epochs_and_final_epoch_exempt(self, sgd_spec):
        run = _toy_run(3, sgd_spec, VolumizationConfig(v=0.5, alpha=0.0))
        _, rounding_epochs = quantized_training(
            run, _toy_data(), QuantizationScheme("ternary", period_epochs=2), 9)
        assert rounding_epochs == [2, 4, 6, 8]

    def test_quantized_net_is_rounded_copy_of_float_net(self, sgd_spec):
        cfg = VolumizationConfig(v=0.5, alpha=0.0)
        run = _toy_run(5, sgd_spec, cfg)
        quantized, _ = quantized_training(
            run, _toy_data(), QuantizationScheme("binary", period_epochs=3), 7)
        vols = derive_layer_volumes(run.net, cfg)
        assert run.vols == vols
        want = run.net.clone()
        quantize_network(want, vols, "binary")
        for (_, a), (_, b) in zip(quantized.param_tensors(), want.param_tensors()):
            assert_array_equal(a, b)
        # the run's net stayed un-rounded
        assert any(
            set(np.unique(t)) - {-vols[i], 0.0, vols[i]}
            for i, _, t in run.net.layer_tensors()
        )

    @pytest.mark.parametrize("cfg", [
        VolumizationConfig(v=np.inf, alpha=0.5),
        VolumizationConfig(v=0.5, alpha=1.0),
        VolumizationConfig(v=0.0, alpha=0.5),
    ])
    def test_requires_active_walls(self, sgd_spec, cfg):
        run = _toy_run(1, sgd_spec, cfg, batch_size=128)
        with pytest.raises(ConfigError):
            quantized_training(run, _toy_data(), QuantizationScheme(), 4)
        assert run.epoch == 0

    def test_scheme_validation(self):
        with pytest.raises(ConfigError):
            QuantizationScheme(mode="octal")
        with pytest.raises(ConfigError):
            QuantizationScheme(period_epochs=0)


# --- packed on-disk format ----------------------------------------------

def _packed_net(seed=11):
    net = init_network([LayerSpec(7, 9, activation="tanh"), LayerSpec(9, 4)], SeededRng(seed))
    vols = derive_layer_volumes(net, VolumizationConfig(v=0.4, alpha=0.5))
    # the packed format stores one wall per tensor
    return net, [vols[i] for i, _, _ in net.layer_tensors()]


class TestPackedFormat:
    @pytest.mark.parametrize("mode", ["binary", "ternary"])
    def test_round_trip_is_exact(self, tmp_path, mode):
        net, vols = _packed_net()
        path = tmp_path / "w.vzq"
        save_quantized_weights(path, net.param_tensors(), vols, mode)
        got_mode, tensors = load_quantized_weights(path)
        assert got_mode == mode
        assert [n for n, _ in tensors] == [n for n, _ in net.param_tensors()]
        for (_, got), (_, orig), vol in zip(tensors, net.param_tensors(), vols):
            assert got.shape == orig.shape
            assert_array_equal(got, quantize(orig, vol, mode))

    @pytest.mark.parametrize("mode, digest", [
        ("binary", "6709f59230c944f593dd1963481295e9cd23365bf50baeef51f3b7c8ab8d7375"),
        ("ternary", "0651dcd384bdb5bca4d8933ed8a4b8200d8de1097bc16feafc9936ae341768fc"),
    ])
    def test_file_bytes_are_pinned(self, tmp_path, mode, digest):
        # 63, 9, 36 and 4 weights, then signed zeros, nan, the ternary ties
        # at +-V/2 and their neighbours: last bytes end at every bit offset
        net, vols = _packed_net()
        half = vols[0] / 2.0
        edges = np.array([0.0, -0.0, np.nan, half, -half, np.nextafter(half, 1.0),
                          np.nextafter(-half, -1.0), vols[0], -vols[0], 1.0, -1.0])
        path = tmp_path / "w.vzq"
        save_quantized_weights(path, [*net.param_tensors(), ("edges", edges)],
                               [*vols, vols[0]], mode)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_two_bits_per_weight(self, tmp_path):
        # size should be dominated by the packed codes, not float storage
        net, vols = _packed_net()
        n = net.n_params
        p_bin = tmp_path / "b.vzq"
        p_ter = tmp_path / "t.vzq"
        save_quantized_weights(p_bin, net.param_tensors(), vols, "binary")
        save_quantized_weights(p_ter, net.param_tensors(), vols, "ternary")
        overhead = 200  # header + per-tensor names/dims/V + crc
        assert p_bin.stat().st_size <= n / 8 + overhead
        assert p_ter.stat().st_size <= n / 4 + overhead
        assert p_ter.stat().st_size > p_bin.stat().st_size

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.vzq"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="^integrity:"):
            load_quantized_weights(path)

    def test_corrupted_byte(self, tmp_path):
        net, vols = _packed_net()
        path = tmp_path / "w.vzq"
        save_quantized_weights(path, net.param_tensors(), vols, "ternary")
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="^integrity:"):
            load_quantized_weights(path)

    def test_unsupported_version(self, tmp_path):
        net, vols = _packed_net()
        path = tmp_path / "w.vzq"
        save_quantized_weights(path, net.param_tensors(), vols, "binary")
        blob = bytearray(path.read_bytes())
        blob[4] = 2  # version byte sits right after the magic
        import zlib
        blob[-4:] = (zlib.crc32(bytes(blob[4:-4])) & 0xFFFFFFFF).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="^version:"):
            load_quantized_weights(path)

    def test_truncated_file(self, tmp_path):
        net, vols = _packed_net()
        path = tmp_path / "w.vzq"
        save_quantized_weights(path, net.param_tensors(), vols, "binary")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_quantized_weights(path)

    def test_invalid_ternary_code_rejected(self, tmp_path):
        net, vols = _packed_net(seed=2)
        path = tmp_path / "w.vzq"
        save_quantized_weights(path, net.param_tensors(), vols, "ternary")
        blob = bytearray(path.read_bytes())
        # first tensor's codes start after:
        # magic4 ver1 mode1 count4 nlen2 name ndim1 dims4*2 V8
        name_len = len("layer0.weight")
        off = 4 + 1 + 1 + 4 + 2 + name_len + 1 + 8 + 8
        blob[off] |= 0b11
        import zlib
        blob[-4:] = (zlib.crc32(bytes(blob[4:-4])) & 0xFFFFFFFF).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="0b11"):
            load_quantized_weights(path)

    def test_undecodable_tensor_name_rejected(self, tmp_path):
        net, vols = _packed_net()
        path = tmp_path / "w.vzq"
        save_quantized_weights(path, net.param_tensors(), vols, "binary")
        blob = bytearray(path.read_bytes())
        # first tensor name starts after magic4 ver1 mode1 count4 nlen2
        blob[12] = 0xFF
        import zlib
        blob[-4:] = (zlib.crc32(bytes(blob[4:-4])) & 0xFFFFFFFF).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="^integrity:"):
            load_quantized_weights(path)

    def test_save_rejects_bad_inputs(self, tmp_path):
        net, vols = _packed_net()
        with pytest.raises(ConfigError):
            save_quantized_weights(tmp_path / "x", net.param_tensors(), vols,
                                   "float8")
        with pytest.raises(ConfigError):
            save_quantized_weights(tmp_path / "x", net.param_tensors(),
                                   vols[:-1], "binary")
