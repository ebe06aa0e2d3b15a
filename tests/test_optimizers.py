"""Optimizer steps against scalar Python oracles, bit for bit.

The oracles below re-state each kernel's per-element arithmetic in plain
Python floats, in the same operation order. Any deviation in the vectorized
path (reassociation, fused ops, wrong bias correction) shows up as a bitwise
mismatch within a few steps; we run 1000 to be thorough.
"""

import math

import numpy as np
import pytest

from volumize import (
    ConfigError,
    VolumizationConfig,
    LayerSpec,
    NumericError,
    OptimizerSpec,
    OptimizerState,
    SeededRng,
    ShapeError,
    derive_layer_volumes,
    init_network,
    loss_and_grad,
    step,
)
from volumize import _kernels
from volumize.net import GradientBundle, Layer, Network


def _grad_seq(t, j):
    # deterministic, irrational-ish gradient stream shared by both paths
    return math.sin(0.7 * t + 1.3 * j) + 0.2 * math.cos(2.1 * t * (j + 1))


class _ScalarOracle:
    """One weight scalar driven by the documented update rules."""

    def __init__(self, kind, w0, lr, mu, nu, eps, bias_correction):
        self.kind = kind
        self.w = w0
        self.m = 0.0
        self.n = 0.0
        self.lr, self.mu, self.nu, self.eps = lr, mu, nu, eps
        self.bias_correction = bias_correction
        self.t = 0

    def step(self, g, vol=None, alpha=1.0, clamp=False):
        self.t += 1
        if self.kind != "sgd" and self.bias_correction:
            cm = 1.0 - self.mu**self.t
            cn = 1.0 - self.nu**self.t
        else:
            cm = 1.0
            cn = 1.0
        if self.kind == "sgd":
            self.m = self.m * self.mu
            self.m = self.m + g
            self.w = self.w - self.lr * self.m
        elif self.kind == "adam":
            self.n = self.n * self.nu
            self.n = self.n + (1.0 - self.nu) * g * g
            self.m = self.m * self.mu
            self.m = self.m + (1.0 - self.mu) * g
            denom = math.sqrt(self.n / cn)
            denom = denom + self.eps
            self.w = self.w - self.lr * (self.m / cm) / denom
        else:  # laprop
            self.n = self.n * self.nu
            self.n = self.n + (1.0 - self.nu) * g * g
            denom = math.sqrt(self.n / cn)
            denom = denom + self.eps
            self.m = self.m * self.mu
            self.m = self.m + (1.0 - self.mu) * (g / denom)
            self.w = self.w - self.lr * (self.m / cm)
        if vol is not None and alpha != 1.0 and math.isfinite(vol):
            if abs(self.w) > vol:
                s = math.copysign(1.0, self.w) if self.w != 0.0 else 0.0
                w_new = alpha * self.w + (1.0 - alpha) * vol * s
                if clamp:
                    w_new = min(max(w_new, -vol), vol)
                self.w = w_new
                self.m = alpha * self.m


def _one_tensor_net(w):
    """A one-layer, bias-free network whose arena is exactly ``w``: its one
    tensor is the (len(w), 1) weight column, so a gradient is a flat array
    of len(w) values."""
    w = np.asarray(w, dtype=np.float64).reshape(-1, 1)
    return Network([Layer(LayerSpec(w.shape[0], 1, has_bias=False), w, None, 1.0)],
                   "fan_in")


def _run_both(kind, n_steps=1000, vols=None, alpha=1.0, bias_correction=True,
              overshoot_policy="leave", lr=0.01):
    spec = OptimizerSpec(kind=kind, lr=lr, mu=0.9, nu=0.999, eps=1e-8,
                         bias_correction=bias_correction)
    w0 = [0.5, -1.2, 2.0]
    net = _one_tensor_net(w0)
    state = OptimizerState.init_for(net, spec)
    oracles = [
        _ScalarOracle(kind, w, lr, 0.9, 0.999, 1e-8, bias_correction) for w in w0
    ]
    for t in range(n_steps):
        g = np.array([_grad_seq(t, j) for j in range(3)])
        step(net, GradientBundle(0.0, g), state, spec,
             vols=None if vols is None else (vols,), alpha=alpha,
             overshoot_policy=overshoot_policy)
        for j, o in enumerate(oracles):
            o.step(g[j], vol=vols, alpha=alpha,
                   clamp=overshoot_policy == "clamp")
    return net, state, oracles


@pytest.mark.parametrize("kind", ["sgd", "adam", "laprop"])
def test_bitwise_trajectory_no_walls(kind):
    net, state, oracles = _run_both(kind)
    for j, o in enumerate(oracles):
        assert net.params[j] == o.w, f"weight {j} diverged"
        assert state.m[j] == o.m
        if kind != "sgd":
            assert state.n[j] == o.n


@pytest.mark.parametrize("kind", ["sgd", "adam", "laprop"])
def test_bitwise_trajectory_with_walls(kind):
    net, state, oracles = _run_both(kind, vols=0.4, alpha=0.7, lr=0.05)
    for j, o in enumerate(oracles):
        assert net.params[j] == o.w
        assert state.m[j] == o.m


@pytest.mark.parametrize("kind", ["adam", "laprop"])
def test_bitwise_trajectory_no_bias_correction(kind):
    net, _, oracles = _run_both(kind, bias_correction=False)
    for j, o in enumerate(oracles):
        assert net.params[j] == o.w


def test_bitwise_trajectory_reflection_clamp():
    net, _, oracles = _run_both("sgd", vols=0.2, alpha=-1.0,
                                overshoot_policy="clamp", lr=0.3)
    for j, o in enumerate(oracles):
        assert net.params[j] == o.w


def test_second_moment_untouched_by_walls():
    _, state_free, _ = _run_both("adam", n_steps=200)
    _, state_wall, _ = _run_both("adam", n_steps=200, vols=0.4, alpha=0.5, lr=0.05)
    # the synthetic gradient stream ignores w, so n (a pure function of the
    # gradients) must come out identical, while m gets decayed at the walls
    np.testing.assert_array_equal(state_free.n, state_wall.n)
    assert not np.array_equal(state_free.m, state_wall.m)
    # and the transform alone must leave n bits alone
    net = _one_tensor_net([2.0])
    spec = OptimizerSpec(kind="adam", lr=1e-4)
    state = OptimizerState.init_for(net, spec)
    step(net, GradientBundle(0.0, np.array([1.0])), state, spec)
    n_after_update = state.n.copy()
    from volumize import apply_volumization

    apply_volumization(net, state, (0.5,), alpha=0.3)
    np.testing.assert_array_equal(state.n, n_after_update)


def _per_tensor_step(net, grads, ms, ns, spec, t, vols, alpha):
    """The layout before the arena, kept as the reference: one update-kernel
    call per tensor with its own moment buffers, then one wall call per
    tensor with its layer's wall."""
    cm = 1.0 - spec.mu ** t
    cn = 1.0 - spec.nu ** t
    update = _kernels.adam_update if spec.kind == "adam" else _kernels.laprop_update
    tensors = net.layer_tensors()
    for (_, _, w), g, m, n in zip(tensors, grads, ms, ns):
        update(w.reshape(-1), np.ascontiguousarray(g).reshape(-1), m.reshape(-1),
               n.reshape(-1), spec.lr, spec.mu, spec.nu, spec.eps, cm, cn)
    crossed = []
    for (i, _, w), m in zip(tensors, ms):
        crossed.append(int(np.count_nonzero(np.abs(w) > vols[i])))
        _kernels.volumize(w.reshape(-1), m.reshape(-1), float(vols[i]), float(alpha), False)
    return crossed


@pytest.mark.parametrize("kind", ["adam", "laprop"])
def test_arena_step_matches_per_tensor_reference(kind):
    # 8 -> 5 -> 3: two layers whose derived walls differ, so a layer slice
    # that is off by one tensor or one layer changes bits
    net = init_network([LayerSpec(8, 5, activation="tanh"), LayerSpec(5, 3)],
                       SeededRng(808))
    ref = net.clone()
    alpha = 0.5
    vols = derive_layer_volumes(net, VolumizationConfig(v=0.2, alpha=alpha))
    assert vols[0] != vols[1]
    spec = OptimizerSpec(kind=kind, lr=0.05, mu=0.9, nu=0.99, eps=1e-8)
    state = OptimizerState.init_for(net, spec)
    ms = [np.zeros_like(t) for _, t in ref.param_tensors()]
    ns = [np.zeros_like(t) for _, t in ref.param_tensors()]
    rng = np.random.default_rng(809)
    crossed = np.zeros(4, dtype=int)
    for t in range(1, 201):
        x = rng.standard_normal((16, 8))
        y = rng.choice(3, 16, p=[0.6, 0.3, 0.1])  # skewed, so biases drift
        bundle = loss_and_grad(net, x, y, "softmax_xent")
        ref_bundle = loss_and_grad(ref, x, y, "softmax_xent")
        ref_grads = [g for _, g in ref.param_tensors(ref_bundle.grad)]
        step(net, bundle, state, spec, vols=vols, alpha=alpha)
        crossed += _per_tensor_step(ref, ref_grads, ms, ns, spec, t, vols, alpha)
        assert net.params.tobytes() == ref.params.tobytes(), f"weights differ at step {t}"
        assert state.m.tobytes() == np.concatenate([m.ravel() for m in ms]).tobytes()
        assert state.n.tobytes() == np.concatenate([n.ravel() for n in ns]).tobytes()
    assert crossed.all()  # the walls bit on every weight and bias tensor


def test_step_rejects_walls_not_one_per_layer():
    net = init_network([LayerSpec(3, 2), LayerSpec(2, 2)], SeededRng(3))
    spec = OptimizerSpec(kind="sgd", lr=0.1)
    state = OptimizerState.init_for(net, spec)
    for vols in ((0.5,), (0.5, 0.5, 0.5, 0.5)):
        with pytest.raises(ShapeError):
            step(net, GradientBundle(0.0, np.zeros(net.n_params)), state, spec,
                 vols=vols, alpha=0.5)


def _nan_in_layer0_bias(g):
    g = g.copy()
    g[3 * 4 + 1] = np.nan  # past layer0.weight's 12 entries
    return g


@pytest.mark.parametrize("kw, bad_grad, error, match", [
    ({"vols": (0.5,)}, None, ShapeError, "walls"),
    ({"vols": (0.5, 0.5), "overshoot_policy": "bounce"}, None, ConfigError, "bounce"),
    ({}, lambda g: g[:-1], ShapeError, "gradient shape"),
    ({}, _nan_in_layer0_bias, NumericError, "layer0.bias"),
], ids=["one-wall-for-two-layers", "unknown-overshoot-policy", "short-grad", "nan-grad"])
def test_rejected_step_mutates_nothing(kw, bad_grad, error, match):
    net = init_network([LayerSpec(3, 4, activation="relu"), LayerSpec(4, 2)],
                       SeededRng(5))
    spec = OptimizerSpec(kind="adam", lr=0.1)
    state = OptimizerState.init_for(net, spec)
    grad = np.full(net.n_params, 0.3)
    step(net, GradientBundle(0.0, grad), state, spec)
    before = (net.params.copy(), state.m.copy(), state.n.copy(), state.t)
    if bad_grad is not None:
        grad = bad_grad(grad)
    with pytest.raises(error, match=match):
        step(net, GradientBundle(0.0, grad), state, spec, alpha=0.5, **kw)
    assert net.params.tobytes() == before[0].tobytes()
    assert state.m.tobytes() == before[1].tobytes()
    assert state.n.tobytes() == before[2].tobytes()
    assert state.t == before[3] == 1


class TestStateInit:
    def test_sgd_has_no_second_moment(self):
        net = init_network([LayerSpec(3, 2)], SeededRng(0))
        state = OptimizerState.init_for(net, OptimizerSpec(kind="sgd"))
        assert state.n is None
        assert state.t == 0
        assert state.m.shape == (net.params.size,) == (3 * 2 + 2,)

    def test_adam_moments_start_zero(self):
        net = init_network([LayerSpec(3, 2)], SeededRng(0))
        state = OptimizerState.init_for(net, OptimizerSpec(kind="adam"))
        assert state.m.shape == state.n.shape == net.params.shape
        for buf in (state.m, state.n):
            assert not buf.any()

    def test_step_counter_increments(self):
        net = _one_tensor_net([1.0])
        spec = OptimizerSpec(kind="sgd", lr=0.1)
        state = OptimizerState.init_for(net, spec)
        for want in (1, 2, 3):
            step(net, GradientBundle(0.0, np.array([0.5])), state, spec)
            assert state.t == want


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "adamw"},
            {"lr": 0.0},
            {"lr": -1e-3},
            {"mu": 1.0},
            {"mu": -0.1},
            {"nu": 1.0},
            {"eps": 0.0},
            {"lr": math.inf},
            {"eps": math.inf},
        ],
    )
    def test_bad_spec(self, kwargs):
        with pytest.raises(ConfigError):
            OptimizerSpec(**kwargs)

    def test_gradient_shape_mismatch(self):
        # too long, too short, empty, and per-tensor shaped rather than flat
        net = _one_tensor_net([1.0, 2.0])
        spec = OptimizerSpec(kind="sgd", lr=0.1)
        state = OptimizerState.init_for(net, spec)
        for g in (np.zeros(3), np.zeros(1), np.zeros(0), np.zeros((2, 1))):
            with pytest.raises(ShapeError):
                step(net, GradientBundle(0.0, g), state, spec)
        assert state.t == 0

    def test_wrong_gradient_count(self):
        # the gradient is one flat array: no tensors, or a second tensor's
        # worth of entries, is a wrong arena length
        net = _one_tensor_net([1.0])
        spec = OptimizerSpec(kind="sgd", lr=0.1)
        state = OptimizerState.init_for(net, spec)
        for g in (np.zeros(0), np.zeros(2)):
            with pytest.raises(ShapeError):
                step(net, GradientBundle(0.0, g), state, spec)
        assert state.t == 0
        np.testing.assert_array_equal(net.params, [1.0])

    def test_non_finite_gradient(self):
        net = _one_tensor_net([1.0])
        spec = OptimizerSpec(kind="sgd", lr=0.1)
        state = OptimizerState.init_for(net, spec)
        with pytest.raises(NumericError, match="layer0.weight"):
            step(net, GradientBundle(0.0, np.array([np.nan])), state, spec)
