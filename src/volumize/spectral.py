"""Spectral-norm estimation and wall-implied operator bounds.

Two facts drive this module. For a matrix with every entry in [-V, V]:

    s_max(W) <= V * sqrt(rows * cols) <= V * max(rows, cols)

(the first via the Frobenius norm, the second since sqrt(rc) <= max(r, c)).
And a stack of affine layers with 1-Lipschitz activations whose per-layer
walls are V_i = 1/max(rows_i, cols_i), kept inside the walls (alpha >= 0),
has operator-norm product <= 1 and is therefore 1-Lipschitz end to end.

s_max itself comes from alternating power iteration with a deterministic
seeded start, which converges to the true value from below (it is a
Rayleigh quotient), so bound checks are conservative.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError
from .linalg import SeededRng, as_matrix, stable_hash
from .net import empirical_lipschitz


def power_iteration_smax(w, seed: int = 0) -> float:
    """Largest singular value by alternating W / W^T power iteration.

    Deterministic: the start vector comes from the given seed. Stops when
    the estimate's relative change drops to 1e-10, or after 1000 steps; a
    zero matrix returns 0.0 without iterating.
    """
    w = as_matrix(w, "w")
    if not (np.isfinite(w).all()):
        raise DomainError("matrix has non-finite entries")
    if not w.any():
        return 0.0
    rng = SeededRng(stable_hash(seed, "power-iteration"))
    v = rng.normal(w.shape[1])
    nv = math.sqrt(float((v * v).sum()))
    if nv == 0.0:  # pragma: no cover - gaussian draw of exact zeros
        v = np.ones(w.shape[1])
        nv = math.sqrt(float(w.shape[1]))
    v /= nv
    est = 0.0
    for _ in range(1000):
        u = _kernels.matvec(w, v)
        nu_ = math.sqrt(float((u * u).sum()))
        if nu_ == 0.0:
            return 0.0  # v fell in the null space; s_max estimate collapses
        u /= nu_
        v = _kernels.matvec_t(w, u)
        new_est = math.sqrt(float((v * v).sum()))
        if new_est == 0.0:
            return 0.0
        v /= new_est
        if abs(new_est - est) <= 1e-10 * max(new_est, 1.0):
            return float(new_est)
        est = new_est
    return float(est)


@dataclass(frozen=True)
class SpectralReport:
    """Per-layer bound check; serializes to one CSV row."""

    tensor: str
    rows: int
    cols: int
    vol: float
    smax: float
    entry_max: float
    bound_sqrt: float      # vol * sqrt(rows*cols)
    bound_max: float       # vol * max(rows, cols)
    entries_in_volume: bool
    within_sqrt: bool
    within_max: bool

    CSV_HEADER = ("tensor", "rows", "cols", "V", "smax", "entry_max",
                  "bound_sqrt", "bound_max", "entries_in_volume",
                  "within_sqrt", "within_max")

    def csv_row(self):
        return {h: getattr(self, "vol" if h == "V" else h) for h in self.CSV_HEADER}


def check_entrywise_bound(w, vol: float, tol: float = 1e-8, tensor: str = "w",
                          seed: int = 0) -> SpectralReport:
    """Verify s_max(W) against both wall-implied bounds.

    Also reports whether the entries actually respect |w_ij| <= vol (+tol);
    the spectral bounds are only claims when they do.
    """
    w = as_matrix(w, tensor)
    if not vol >= 0:
        raise DomainError(f"vol must be >= 0, got {vol}")
    r, c = w.shape
    smax = power_iteration_smax(w, seed=seed)
    entry_max = float(np.abs(w).max())
    bound_sqrt = vol * math.sqrt(r * c)
    bound_max = vol * max(r, c)
    return SpectralReport(
        tensor=tensor, rows=r, cols=c, vol=float(vol), smax=smax,
        entry_max=entry_max,
        bound_sqrt=bound_sqrt, bound_max=bound_max,
        entries_in_volume=entry_max <= vol + tol,
        within_sqrt=smax <= bound_sqrt + tol,
        within_max=smax <= bound_max + tol,
    )


@dataclass(eq=False)
class LipschitzReport:
    layer_reports: list
    smax_product: float
    empirical: float
    product_within_one: bool
    empirical_within_product: bool

    @property
    def ok(self) -> bool:
        return self.product_within_one and self.empirical_within_product


def contractive_volumes(net):
    """The walls V_i = 1/max(rows_i, cols_i), one per layer, that make the
    wall-respecting network 1-Lipschitz (biases share the layer wall; they
    do not affect the Lipschitz constant)."""
    return tuple(1.0 / max(layer.spec.in_dim, layer.spec.out_dim) for layer in net.layers)


def check_network_lipschitz(net, seed: int = 0, n_pairs: int = 10000) -> LipschitzReport:
    """End-to-end 1-Lipschitz audit for a walls-at-1/max(dims) network.

    Checks the per-layer operator-norm product against 1 and cross-checks
    with a probe-based empirical Lipschitz estimate (which must sit below
    the product, both being bounds on the same constant from opposite
    sides). Every comparison allows a slack of 1e-6, and each layer's s_max
    takes at most 1000 power iterations.
    """
    tol = 1e-6
    reports = []
    product = 1.0
    for i, (layer, vol) in enumerate(zip(net.layers, contractive_volumes(net))):
        rep = check_entrywise_bound(layer.w, vol, tol=tol, tensor=f"layer{i}.weight",
                                    seed=seed)
        reports.append(rep)
        product *= rep.smax
    emp = empirical_lipschitz(net, SeededRng(stable_hash(seed, "lipschitz-probes")),
                              n_pairs=n_pairs)
    return LipschitzReport(
        layer_reports=reports,
        smax_product=product,
        empirical=emp,
        product_within_one=product <= 1.0 + tol,
        empirical_within_product=emp <= product + tol,
    )
