"""MLP forward/backward: manual oracles and finite-difference gradients."""

import tracemalloc

import numpy as np
import pytest

import volumize.net as vnet

from volumize import (
    ConfigError,
    DomainError,
    LayerSpec,
    NumericError,
    SeededRng,
    ShapeError,
    empirical_lipschitz,
    evaluate,
    forward,
    OptimizerSpec,
    VolumizationConfig,
    init_network,
    load_checkpoint,
    loss_and_grad,
    new_run,
    power_iteration_smax,
    save_checkpoint,
)
from volumize import _kernels
from volumize.net import _forward_cached, _loss_and_output_grad, _relu_backward


def _flat_params(net):
    return np.concatenate([w.ravel() for _, w in net.param_tensors()])


def _set_flat_params(net, flat):
    pos = 0
    for _, w in net.param_tensors():
        w[...] = flat[pos : pos + w.size].reshape(w.shape)
        pos += w.size


def fd_gradient(net, x, t, loss, eps=1e-6):
    """Central differences on the flattened parameter vector."""
    theta = _flat_params(net).copy()
    g = np.empty_like(theta)
    for i in range(theta.size):
        for sign, slot in ((+1, 0), (-1, 1)):
            theta[i] += sign * eps
            _set_flat_params(net, theta)
            val = loss_and_grad(net, x, t, loss).loss
            theta[i] -= sign * eps
            if slot == 0:
                up = val
            else:
                down = val
        g[i] = (up - down) / (2 * eps)
    _set_flat_params(net, theta)
    return g


class TestInit:
    def test_dims_and_chaining(self):
        net = init_network(
            [LayerSpec(4, 7, activation="tanh"), LayerSpec(7, 2)], SeededRng(0)
        )
        assert net.in_dim == 4 and net.out_dim == 2
        assert net.n_params == 4 * 7 + 7 + 7 * 2 + 2

    def test_mismatched_chain_rejected(self):
        with pytest.raises(ConfigError):
            init_network([LayerSpec(4, 7), LayerSpec(6, 2)], SeededRng(0))

    def test_weights_within_init_scale(self):
        net = init_network([LayerSpec(50, 30)], SeededRng(1))
        (name_w, w), (name_b, b) = net.param_tensors()
        a = np.sqrt(6.0 / 50)
        assert np.abs(w).max() <= a and np.abs(b).max() <= a
        assert net.layers[0].init_scale_a == pytest.approx(a)

    def test_fan_out_scale(self):
        net = init_network([LayerSpec(50, 30)], SeededRng(1), fan_mode="fan_out")
        assert net.layers[0].init_scale_a == pytest.approx(np.sqrt(6.0 / 30))

    def test_no_bias_layer(self):
        net = init_network([LayerSpec(5, 3, has_bias=False)], SeededRng(2))
        assert [name for name, _ in net.param_tensors()] == ["layer0.weight"]

    def test_param_tensor_names(self):
        net = init_network([LayerSpec(5, 4), LayerSpec(4, 2)], SeededRng(2))
        assert [name for name, _ in net.param_tensors()] == [
            "layer0.weight",
            "layer0.bias",
            "layer1.weight",
            "layer1.bias",
        ]

    def test_clone_is_deep(self):
        net = init_network([LayerSpec(5, 4)], SeededRng(2))
        dup = net.clone()
        dup.layers[0].w += 1.0
        assert not np.array_equal(dup.layers[0].w, net.layers[0].w)


def _layer(n_in, n_out, a=0.5):
    return vnet.Layer(LayerSpec(n_in, n_out), 0.0, 0.0, a)


class TestNetworkChecks:
    """The constructor every network goes through, initialized, loaded,
    cloned or built by hand, refuses what no network can be."""

    @pytest.mark.parametrize("layers, fan_mode, message", [
        pytest.param([_layer(8, 16), _layer(33, 8), _layer(16, 4)], "fan_in",
                     "layer chain broken: out_dim 16 feeds in_dim 33", id="unchained"),
        pytest.param([], "fan_in", "need at least one layer", id="no-layers"),
        pytest.param([_layer(8, 4)], "fan_mid", "fan_mode must be", id="fan_mid")])
    def test_refuses_what_is_no_network(self, layers, fan_mode, message):
        with pytest.raises(ConfigError, match=message):
            vnet.Network(layers, fan_mode)

    @pytest.mark.parametrize("a", [-0.5, 0.0, float("inf"), float("nan")])
    def test_init_scale_must_be_positive_and_finite(self, a):
        with pytest.raises(DomainError, match=f"got {a} for layer1"):
            vnet.Network([_layer(8, 4), _layer(4, 2, a)], "fan_in")

    def test_clone_is_checked_too(self):
        net = init_network([LayerSpec(5, 4), LayerSpec(4, 2)], SeededRng(2))
        net.layers[1].init_scale_a = float("inf")
        with pytest.raises(DomainError, match="layer1"):
            net.clone()


def _assert_views_into_arena(net):
    """Every tensor is a view into net.params at its manifest offset."""
    off = 0
    for _, t in net.param_tensors():
        assert np.shares_memory(t, net.params)
        assert np.array_equal(t.ravel(), net.params[off:off + t.size])
        off += t.size
    assert off == net.params.size == net.n_params
    assert net.params.dtype == np.float64 and net.params.flags.c_contiguous
    for layer, sl in zip(net.layers, net.layer_slices):
        size = layer.w.size + (0 if layer.b is None else layer.b.size)
        assert sl.stop - sl.start == size


class TestArena:
    SPECS = [LayerSpec(4, 6, activation="relu"), LayerSpec(6, 5, has_bias=False),
             LayerSpec(5, 3)]

    def test_init_network_builds_views(self):
        net = init_network(self.SPECS, SeededRng(21))
        _assert_views_into_arena(net)
        assert [sl.start for sl in net.layer_slices] == [0, 4 * 6 + 6, 4 * 6 + 6 + 6 * 5]
        net.layers[1].w[2, 3] = 7.5
        assert net.params[net.layer_slices[1]][2 * 5 + 3] == 7.5

    def test_clone_has_its_own_arena(self):
        net = init_network(self.SPECS, SeededRng(22))
        dup = net.clone()
        _assert_views_into_arena(dup)
        assert not np.shares_memory(dup.params, net.params)
        for (_, a), (_, b) in zip(net.param_tensors(), dup.param_tensors()):
            assert not np.shares_memory(a, dup.params) and not np.shares_memory(b, net.params)
        np.testing.assert_array_equal(dup.params, net.params)
        before = net.params.copy()
        dup.params += 1.0
        np.testing.assert_array_equal(net.params, before)

    def test_gradient_views_hold_the_per_tensor_products(self):
        net = init_network([LayerSpec(4, 6, activation="relu"),
                            LayerSpec(6, 5, activation="tanh", has_bias=False),
                            LayerSpec(5, 3)], SeededRng(25))
        rng = np.random.default_rng(26)
        x, y = rng.standard_normal((7, 4)), rng.integers(0, 3, 7)
        grad = loss_and_grad(net, x, y, "softmax_xent").grad
        assert grad.dtype == np.float64 and grad.shape == (net.n_params,)
        # each tensor's gradient, computed on its own straight from the kernels
        _, cache = _forward_cached(net, x)
        _, delta = _loss_and_output_grad(cache[-1][2], y, "softmax_xent", 7)
        want = {}
        for i in (2, 1, 0):
            layer = net.layers[i]
            h_in, z, act = cache[i]
            if layer.spec.activation == "relu":
                delta = np.where(z > 0.0, delta, 0.0)
            elif layer.spec.activation == "tanh":
                delta = delta * (1.0 - act * act)
            want[f"layer{i}.weight"] = _kernels.matmul_tn(h_in, delta)
            if layer.b is not None:
                want[f"layer{i}.bias"] = _kernels.colsum(delta)
            delta = _kernels.matmul_nt(delta, layer.w)
        got = net.param_tensors(grad)
        assert [name for name, _ in got] == ["layer0.weight", "layer0.bias", "layer1.weight",
                                             "layer2.weight", "layer2.bias"]
        for name, g in got:
            assert np.shares_memory(g, grad)
            assert g.shape == want[name].shape and g.tobytes() == want[name].tobytes()

    def test_loaded_checkpoint_builds_views(self, tmp_path):
        net = init_network(self.SPECS, SeededRng(23))
        run = new_run(net, OptimizerSpec(kind="adam"), VolumizationConfig(), SeededRng(24))
        save_checkpoint(tmp_path / "a.vzck", run)
        got = load_checkpoint(tmp_path / "a.vzck")
        _assert_views_into_arena(got.net)
        np.testing.assert_array_equal(got.net.params, net.params)
        assert got.opt_state.m.shape == got.opt_state.n.shape == net.params.shape


class TestReluBackward:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -1.5, 5e-324, -5e-324]

    def test_matches_where_bit_for_bit(self):
        # every pairing of special z and delta values: +0.0 off the mask, a
        # nan z included, and delta's own bits (signed zeros, nans) on it
        z, delta = np.meshgrid(self.SPECIAL, self.SPECIAL)
        want = np.where(z > 0.0, delta, 0.0)
        got = delta.copy()
        _relu_backward(z, got)
        assert got.tobytes() == want.tobytes()

    def test_loss_and_grad_makes_no_masked_select(self, monkeypatch):
        # a masked select branches on every run of its mask; the gradient
        # pass, kernels included, selects with a bitwise keep-mask instead
        calls = []

        class Spy:
            def __init__(self, fn, name):
                self.fn, self.name = fn, name

            def __call__(self, *args, **kwargs):
                calls.append((self.name, set(kwargs)))
                return self.fn(*args, **kwargs)

            def __getattr__(self, attr):  # np.add.reduce and the like
                return Spy(getattr(self.fn, attr), f"{self.name}.{attr}")

        class Numpy:
            def __getattr__(self, attr):
                fn = getattr(np, attr)
                return fn if isinstance(fn, type) or not callable(fn) else Spy(fn, attr)

        monkeypatch.setattr(vnet, "np", Numpy())
        monkeypatch.setattr(_kernels, "np", Numpy())
        net = init_network([LayerSpec(3, 5, activation="relu"), LayerSpec(5, 4, activation="relu"),
                            LayerSpec(4, 2)], SeededRng(27))
        rng = np.random.default_rng(28)
        x = rng.standard_normal((6, 3))
        loss_and_grad(net, x, rng.integers(0, 2, 6), "softmax_xent")
        loss_and_grad(net, x, rng.standard_normal((6, 2)), "mse")
        names = {name for name, _ in calls}
        assert {"bitwise_and", "einsum"} <= names  # the proxies saw both modules
        assert not {"where", "putmask", "place"} & names
        assert all("where" not in kwargs for _, kwargs in calls)


def test_loss_and_grad_allocates_no_product_scratch():
    # README shapes (8 -> 64 relu -> 4, batch 128). Once a warm-up call has
    # planned its products, a call allocates the gradient arena, the forward
    # cache, one delta and one relu mask of the widest layer, and small
    # temporaries: no product scratch, staged operands or gradient copies
    # (the scratch block of one product is 458 KiB)
    net = init_network([LayerSpec(8, 64, activation="relu"), LayerSpec(64, 4)], SeededRng(29))
    rng = np.random.default_rng(30)
    x, y = rng.standard_normal((128, 8)), rng.integers(0, 4, 128)
    loss_and_grad(net, x, y, "softmax_xent")
    _, cache = _forward_cached(net, x)
    cached = sum(z.nbytes + (a is not z) * a.nbytes for _, z, a in cache)
    widest = max(z.nbytes for _, z, _ in cache)
    tracemalloc.start()
    try:
        loss_and_grad(net, x, y, "softmax_xent")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < net.params.nbytes + cached + 2 * widest + 64 * 1024


class TestForward:
    def test_matches_manual_numpy(self):
        net = init_network(
            [LayerSpec(3, 5, activation="relu"), LayerSpec(5, 2)], SeededRng(4)
        )
        x = np.random.default_rng(0).standard_normal((6, 3))
        h = np.maximum(x @ net.layers[0].w + net.layers[0].b, 0.0)
        want = h @ net.layers[1].w + net.layers[1].b
        np.testing.assert_allclose(forward(net, x), want, atol=1e-12)

    def test_wrong_input_dim(self):
        net = init_network([LayerSpec(3, 2)], SeededRng(4))
        with pytest.raises(ShapeError):
            forward(net, np.ones((2, 4)))

    def test_tanh_activation(self):
        net = init_network([LayerSpec(2, 2, activation="tanh")], SeededRng(5))
        x = np.array([[0.3, -0.8]])
        want = np.tanh(x @ net.layers[0].w + net.layers[0].b)
        np.testing.assert_allclose(forward(net, x), want, atol=1e-12)


class TestGradients:
    """Analytic gradients vs central differences, all layer/loss combos.

    relu kinks are excluded by construction: inputs are drawn until every
    pre-activation is at least 1e-3 from zero, same guard the acceptance
    gate uses.
    """

    def _safe_batch(self, net, rng, n=4, margin=1e-3):
        for _ in range(200):
            x = rng.standard_normal((n, net.in_dim))
            z = x @ net.layers[0].w + net.layers[0].b
            ok = np.abs(z).min() > margin
            h = np.maximum(z, 0.0)
            for layer in net.layers[1:]:
                z = h @ layer.w + layer.b
                ok = ok and np.abs(z).min() > margin
                h = np.maximum(z, 0.0)
            if ok:
                return x
        raise AssertionError("could not build a kink-free batch")

    @pytest.mark.parametrize("activation", ["identity", "relu", "tanh"])
    @pytest.mark.parametrize("loss", ["mse", "softmax_xent"])
    def test_fd_agreement(self, activation, loss):
        rng = np.random.default_rng(11)
        net = init_network(
            [LayerSpec(4, 6, activation=activation), LayerSpec(6, 3)],
            SeededRng(11),
        )
        x = self._safe_batch(net, rng) if activation == "relu" else rng.standard_normal((4, 4))
        if loss == "mse":
            t = rng.standard_normal((4, 3))
        else:
            t = rng.integers(0, 3, 4)
        got = loss_and_grad(net, x, t, loss).grad
        want = fd_gradient(net, x, t, loss)
        denom = np.maximum(np.abs(want), 1e-4)
        rel = np.abs(got - want) / denom
        assert rel.max() < 1e-5

    def test_one_hot_targets_match_indices(self):
        rng = np.random.default_rng(12)
        net = init_network([LayerSpec(4, 3)], SeededRng(12))
        x = rng.standard_normal((5, 4))
        idx = rng.integers(0, 3, 5)
        one_hot = np.eye(3)[idx]
        a = loss_and_grad(net, x, idx, "softmax_xent")
        b = loss_and_grad(net, x, one_hot, "softmax_xent")
        assert a.loss == pytest.approx(b.loss, rel=1e-12)
        np.testing.assert_allclose(a.grad, b.grad, atol=1e-12)

    def test_softmax_is_shift_invariant(self):
        # subtracting the row max keeps huge logits finite
        net = init_network([LayerSpec(2, 2)], SeededRng(13))
        net.layers[0].w[...] = np.array([[400.0, -400.0], [0.0, 0.0]])
        x = np.array([[1.0, 0.0]])
        bundle = loss_and_grad(net, x, np.array([0]), "softmax_xent")
        assert np.isfinite(bundle.loss)

    def test_non_finite_weights_raise(self):
        net = init_network([LayerSpec(2, 2)], SeededRng(14))
        net.layers[0].w[0, 0] = np.inf
        with pytest.raises(NumericError):
            loss_and_grad(net, np.ones((1, 2)), np.array([0]), "softmax_xent")

    def test_empty_batch_rejected(self):
        net = init_network([LayerSpec(2, 2)], SeededRng(14))
        with pytest.raises(ShapeError):
            loss_and_grad(net, np.ones((0, 2)), np.zeros(0, dtype=int), "softmax_xent")

    def test_bad_class_index(self):
        net = init_network([LayerSpec(2, 2)], SeededRng(14))
        with pytest.raises(ShapeError):
            loss_and_grad(net, np.ones((1, 2)), np.array([5]), "softmax_xent")


class TestDiagnostics:
    def test_accuracy_counts_argmax(self):
        net = init_network([LayerSpec(2, 2, has_bias=False)], SeededRng(15))
        net.layers[0].w[...] = np.eye(2)
        x = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, -1.0]])
        y = np.array([0, 1, 1])
        assert evaluate(net, x, y)[1] == pytest.approx(2.0 / 3.0)

    def test_empirical_lipschitz_linear_net(self):
        # for a pure linear map the local slope is bounded by smax and the
        # probe estimate should get close from below
        net = init_network([LayerSpec(6, 4, has_bias=False)], SeededRng(16))
        smax = power_iteration_smax(net.layers[0].w)
        est = empirical_lipschitz(net, SeededRng(17), n_pairs=2000)
        assert est <= smax * (1 + 1e-9)
        assert est >= 0.5 * smax
