"""Volumized first-order optimizers: sgd, adam, laprop.

Update rules (elementwise; t counts steps from 1):

    sgd     m = mu*m + g                w -= lr*m
    adam    n = nu*n + (1-nu)*g^2       m = mu*m + (1-mu)*g
            w -= lr * (m/c_m) / (sqrt(n/c_n) + eps)
    laprop  n = nu*n + (1-nu)*g^2       m = mu*m + (1-mu) * g/(sqrt(n/c_n)+eps)
            w -= lr * m/c_m

with bias corrections c_m = 1-mu^t, c_n = 1-nu^t (both 1 when
bias_correction is off; sgd never bias-corrects). Note sgd deliberately
accumulates raw gradients (no (1-mu) factor).

The network's parameters live in one arena (net.params), and the gradient
and each moment buffer are flat arrays of the same size and layout, so a
step is one update-kernel call over the whole network. The wall transform
runs after that update, one layer slice at a time, scaling first moments
alongside weights; second moments are never touched by it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, NumericError, ShapeError
from .volumization import apply_volumization, check_overshoot_policy, check_walls

KINDS = ("sgd", "adam", "laprop")


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "adam"
    lr: float = 1e-4
    mu: float = 0.9
    nu: float = 0.999
    eps: float = 1e-8
    bias_correction: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.mu < 1.0:
            raise ConfigError(f"mu must lie in [0, 1), got {self.mu}")
        if not 0.0 <= self.nu < 1.0:
            raise ConfigError(f"nu must lie in [0, 1), got {self.nu}")
        if not 0 < self.eps < math.inf:
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")


class OptimizerState:
    """First/second moment arenas laid out like net.params, plus the step
    counter. Buffers are plain arrays so checkpoints can serialize them
    byte-exactly.
    """

    def __init__(self, m, n, t: int = 0):
        self.m = m
        self.n = n  # None for sgd
        self.t = t

    @classmethod
    def init_for(cls, net, spec: OptimizerSpec) -> "OptimizerState":
        size = net.params.size
        return cls(np.zeros(size), None if spec.kind == "sgd" else np.zeros(size), 0)


def step(net, grads, state: OptimizerState, spec: OptimizerSpec,
         vols=None, alpha: float = 1.0, overshoot_policy: str = "leave") -> None:
    """One optimizer step over the whole arena, then the wall transform.

    Mutates net parameters and state in place. ``grads`` is a
    GradientBundle (or anything with a .grad array laid out like
    net.params). ``vols`` holds one wall per layer; None skips the
    transform entirely. Bad arguments raise before anything is mutated.
    """
    # apply_volumization checks these too, but only after the update has run
    if vols is not None:
        check_walls(net, vols)
    check_overshoot_policy(overshoot_policy)
    g = grads.grad
    if g.shape != net.params.shape:
        raise ShapeError(f"gradient shape {g.shape} != parameter arena shape {net.params.shape}")
    if not np.isfinite(g).all():
        name = next(name for name, gi in net.param_tensors(g) if not np.isfinite(gi).all())
        raise NumericError(f"non-finite gradient for {name}")

    state.t += 1
    if spec.kind != "sgd" and spec.bias_correction:
        cm = 1.0 - spec.mu ** state.t
        cn = 1.0 - spec.nu ** state.t
    else:
        cm = 1.0
        cn = 1.0

    if spec.kind == "sgd":
        _kernels.sgd_update(net.params, g, state.m, spec.lr, spec.mu)
    elif spec.kind == "adam":
        _kernels.adam_update(net.params, g, state.m, state.n,
                             spec.lr, spec.mu, spec.nu, spec.eps, cm, cn)
    else:
        _kernels.laprop_update(net.params, g, state.m, state.n,
                               spec.lr, spec.mu, spec.nu, spec.eps, cm, cn)

    if vols is not None:
        apply_volumization(net, state, vols, alpha, overshoot_policy)
