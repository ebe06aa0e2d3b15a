"""Small dense feed-forward networks with hand-rolled backprop.

Weights are stored (in_dim, out_dim) so a batch flows as x @ W + b; all
matrix products go through the deterministic kernels, which keeps whole
training trajectories reproducible bit for bit. Activations are computed
with numpy ufuncs (they are cheap and not order-sensitive). Network owns
the one arena layout that the parameters, the optimizer moments and the
gradients share: each layer's weight in C order, then its bias.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, NumericError, ShapeError
from .linalg import SeededRng, as_matrix, he_uniform_init

ACTIVATIONS = ("identity", "relu", "tanh")
FAN_MODES = ("fan_in", "fan_out")
LOSSES = ("mse", "softmax_xent")


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "identity"
    has_bias: bool = True

    def __post_init__(self):
        if self.in_dim <= 0 or self.out_dim <= 0:
            raise ConfigError(f"layer dims must be positive, got {self.in_dim}->{self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(
                f"activation must be one of {ACTIVATIONS}, got {self.activation!r}"
            )


class Layer:
    __slots__ = ("spec", "w", "b", "init_scale_a")

    def __init__(self, spec: LayerSpec, w, b, init_scale_a: float):
        self.spec = spec
        self.w = w
        self.b = b
        self.init_scale_a = init_scale_a


class Network:
    """A stack of affine layers over one float64 arena, ``params``.

    Layer i owns the contiguous slice ``layer_slices[i]``: its weight in C
    order, then its bias. The constructor copies each layer's w and b
    (arrays, or scalars to broadcast) into the arena and rebinds them as
    views into it. The optimizer and the walls mutate the arena in place,
    so identity is meaningful; clone() gives a network its own copy.
    """

    def __init__(self, layers, fan_mode: str):
        self.layers = layers
        self.fan_mode = fan_mode
        self.layer_slices = []
        off = 0
        for layer in layers:
            size = Network.arena_size([layer.spec])
            self.layer_slices.append(slice(off, off + size))
            off += size
        self.params = np.empty(off)
        for layer, (w, b) in zip(layers, self.layer_views(self.params)):
            w[...] = layer.w
            if b is not None:
                b[...] = layer.b
            layer.w, layer.b = w, b

    @staticmethod
    def arena_size(specs) -> int:
        """Elements in the arena of layers with these LayerSpecs, known
        before any network is built."""
        return sum((s.in_dim + s.has_bias) * s.out_dim for s in specs)

    def layer_views(self, arena):
        """Each layer's (weight, bias or None), as views into ``arena``, any
        array laid out like params."""
        views = []
        for layer, sl in zip(self.layers, self.layer_slices):
            spec = layer.spec
            w_end = sl.start + spec.in_dim * spec.out_dim
            views.append((arena[sl.start:w_end].reshape(spec.in_dim, spec.out_dim),
                          arena[w_end:sl.stop] if spec.has_bias else None))
        return views

    @property
    def in_dim(self) -> int:
        return self.layers[0].spec.in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].spec.out_dim

    def layer_tensors(self, arena=None):
        """Stable (layer index, name, view into ``arena``, default params)
        enumeration: layerK.weight, layerK.bias; the checkpoint manifest."""
        out = []
        for i, (w, b) in enumerate(self.layer_views(self.params if arena is None else arena)):
            out.append((i, f"layer{i}.weight", w))
            if b is not None:
                out.append((i, f"layer{i}.bias", b))
        return out

    def param_tensors(self, arena=None):
        """The (name, array) pairs of layer_tensors(arena)."""
        return [(name, t) for _, name, t in self.layer_tensors(arena)]

    @property
    def n_params(self) -> int:
        return self.params.size

    def clone(self) -> "Network":
        """A network with its own arena holding this one's values."""
        return Network([Layer(l.spec, l.w, l.b, l.init_scale_a) for l in self.layers],
                       self.fan_mode)


def init_network(specs, rng: SeededRng, fan_mode: str = "fan_in") -> Network:
    """He-uniform weights, zero biases; records a = sqrt(6/fan) per layer."""
    if fan_mode not in FAN_MODES:
        raise ConfigError(f"fan_mode must be fan_in or fan_out, got {fan_mode!r}")
    if not specs:
        raise ConfigError("need at least one layer")
    for prev, nxt in zip(specs, specs[1:]):
        if prev.out_dim != nxt.in_dim:
            raise ConfigError(
                f"layer chain broken: out_dim {prev.out_dim} feeds in_dim {nxt.in_dim}"
            )
    layers = []
    for spec in specs:
        fan = spec.in_dim if fan_mode == "fan_in" else spec.out_dim
        w, a = he_uniform_init(rng, spec.in_dim, spec.out_dim, fan)
        layers.append(Layer(spec, w, 0.0, a))
    return Network(layers, fan_mode)


def _activate(z, kind: str):
    if kind == "identity":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _forward_cached(net: Network, x):
    """Returns (output, per-layer (input, pre-activation, activation))."""
    h = x
    cache = []
    for layer in net.layers:
        z = _kernels.matmul_nn(h, layer.w)
        if layer.b is not None:
            z += layer.b
        a = _activate(z, layer.spec.activation)
        cache.append((h, z, a))
        h = a
    return h, cache


def forward(net: Network, x):
    """Batched forward pass; x is (batch, in_dim)."""
    x = as_matrix(x, "x")
    if x.shape[1] != net.in_dim:
        raise ShapeError(f"input dim {x.shape[1]} != network in_dim {net.in_dim}")
    y, _ = _forward_cached(net, x)
    return y


@dataclass
class GradientBundle:
    loss: float
    grad: np.ndarray  # laid out like net.params


def _loss_and_output_grad(y, target, loss: str, n: int):
    if loss == "mse":
        t = as_matrix(target, "target")
        if t.shape != y.shape:
            raise ShapeError(f"target shape {t.shape} != output shape {y.shape}")
        r = y - t
        value = float((r * r).sum()) / (2.0 * n)
        return value, r / n
    # softmax cross-entropy; target is class indices or one-hot rows
    t = np.asarray(target)
    if t.ndim == 1:
        if not np.issubdtype(t.dtype, np.integer):
            raise ShapeError("class-index target must be an integer vector")
        if t.shape[0] != y.shape[0]:
            raise ShapeError(f"{t.shape[0]} targets for batch of {y.shape[0]}")
        if t.min() < 0 or t.max() >= y.shape[1]:
            raise ShapeError("class index out of range")
        p = np.zeros_like(y)
        p[np.arange(y.shape[0]), t] = 1.0
    else:
        p = as_matrix(t, "target")
        if p.shape != y.shape:
            raise ShapeError(f"target shape {p.shape} != output shape {y.shape}")
    zshift = y - y.max(axis=1, keepdims=True)
    ez = np.exp(zshift)
    denom = ez.sum(axis=1, keepdims=True)
    log_softmax = zshift - np.log(denom)
    value = float(-(p * log_softmax).sum()) / n
    return value, (ez / denom - p) / n


def _relu_backward(z, delta):
    """delta where z > 0, else +0.0 (the subgradient at the kink, and for a
    nan z), in place: delta's bits ANDed with -int64(z > 0), all ones or
    zero, which gives np.where(z > 0.0, delta, 0.0) bit for bit without
    its masked select."""
    keep = np.empty(z.shape, np.int64)
    np.greater(z, 0.0, out=keep)
    np.negative(keep, out=keep)
    bits = delta.view(np.int64)
    np.bitwise_and(bits, keep, out=bits)


def loss_and_grad(net: Network, x, target, loss: str = "mse") -> GradientBundle:
    """Loss and exact backprop gradient, one array laid out like net.params.

    mse is the half-mean-squared form: sum of squared residual entries over
    2*batch. Raises NumericError if any activation, the loss, or a gradient
    comes out non-finite.
    """
    if loss not in LOSSES:
        raise ConfigError(f"loss must be one of {LOSSES}, got {loss!r}")
    x = as_matrix(x, "x")
    if x.shape[1] != net.in_dim:
        raise ShapeError(f"input dim {x.shape[1]} != network in_dim {net.in_dim}")
    n = x.shape[0]
    if n == 0:
        raise ShapeError("empty batch")
    y, cache = _forward_cached(net, x)
    for i, (_, _, act) in enumerate(cache):
        if not np.isfinite(act).all():
            raise NumericError(f"non-finite activations in layer{i}")
    value, delta = _loss_and_output_grad(y, target, loss, n)
    if not np.isfinite(value):
        raise NumericError("non-finite loss")

    grad = np.empty(net.n_params)
    for i, (gw, gb) in reversed(list(enumerate(net.layer_views(grad)))):
        layer = net.layers[i]
        h_in, z, act = cache[i]
        kind = layer.spec.activation
        if kind == "relu":
            _relu_backward(z, delta)
        elif kind == "tanh":
            delta = delta * (1.0 - act * act)
        _kernels.matmul_tn(h_in, delta, out=gw)
        if gb is not None:
            _kernels.colsum(delta, out=gb)
        if i > 0:
            delta = _kernels.matmul_nt(delta, layer.w)
    if not np.isfinite(grad).all():
        name = next(name for name, g in net.param_tensors(grad) if not np.isfinite(g).all())
        raise NumericError(f"non-finite gradient for {name}")
    return GradientBundle(loss=value, grad=grad)


def empirical_lipschitz(net: Network, rng: SeededRng, n_pairs: int = 10000) -> float:
    """Max output/input perturbation ratio over random probe pairs.

    A lower bound on the true Lipschitz constant; probes are gaussian base
    points with gaussian directions scaled to length 1e-3.
    """
    if n_pairs <= 0:
        raise ConfigError(f"n_pairs must be positive, got {n_pairs}")
    x = rng.normal((n_pairs, net.in_dim))
    d = rng.normal((n_pairs, net.in_dim))
    norms = np.sqrt((d * d).sum(axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    d = d * (1e-3 / norms)
    y1 = forward(net, x)
    y2 = forward(net, x + d)
    num = np.sqrt(((y2 - y1) ** 2).sum(axis=1))
    den = np.sqrt((d * d).sum(axis=1))
    return float((num / den).max())
