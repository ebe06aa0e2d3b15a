"""Numeric hot kernels, one order-pinned numpy implementation each.

Summation order is part of the contract here: matrix products, matvecs and
column sums accumulate strictly left-to-right over the inner index. Do not
replace them with BLAS calls or pairwise reductions; determinism guarantees
and oracle tests depend on the exact order.

Callers look kernels up at call time as ``_kernels.<name>`` rather than
binding them at import, so a kernel can be swapped or wrapped in one place.

Kernels assume C-contiguous float64 inputs; callers validate.
"""

import numpy as np


def backend() -> str:
    """Name of the kernel implementation; there is only numpy."""
    return "numpy"


# The k-loops below accumulate into the output one inner-index slice at a
# time, which gives every output element the same left-to-right addition
# chain as the scalar triple loop.


def matmul_nn(a, b):
    n, k = a.shape
    _, m = b.shape
    out = np.zeros((n, m))
    for kk in range(k):
        out += a[:, kk : kk + 1] * b[kk, :]
    return out


def matmul_tn(a, b):
    # a.T @ b with the shared leading axis as the inner index
    k, n = a.shape
    _, m = b.shape
    out = np.zeros((n, m))
    for kk in range(k):
        out += a[kk, :].reshape(n, 1) * b[kk, :]
    return out


def matmul_nt(a, b):
    # a @ b.T
    n, k = a.shape
    m, _ = b.shape
    out = np.zeros((n, m))
    for kk in range(k):
        out += a[:, kk : kk + 1] * b[:, kk]
    return out


def matvec(a, x):
    n, m = a.shape
    out = np.zeros(n)
    for j in range(m):
        out += a[:, j] * x[j]
    return out


def matvec_t(a, x):
    # a.T @ x
    n, m = a.shape
    out = np.zeros(m)
    for i in range(n):
        out += a[i, :] * x[i]
    return out


def colsum(m):
    rows, cols = m.shape
    out = np.zeros(cols)
    for i in range(rows):
        out += m[i, :]
    return out


def volumize(w, mom, vol, alpha, clamp):
    """In-place wall transform on flat views ``w`` and ``mom``.

    Elements with |w| > vol move to alpha*w + (1-alpha)*vol*sgn(w) and get
    their momentum scaled by alpha; everything else is untouched. This form
    is algebraically the same as w + (1-alpha)*(vol*sgn(w) - w) but is exact
    for the special cases the contract pins down bitwise: vol=0 gives
    alpha*w, alpha=0 gives a hard clip, alpha=1 is the identity.
    """
    if alpha == 1.0 or not np.isfinite(vol):
        return
    crossed = np.abs(w) > vol
    if not crossed.any():
        return
    s = np.sign(w)
    w_new = alpha * w + (1.0 - alpha) * vol * s
    if clamp:
        np.clip(w_new, -vol, vol, out=w_new)
    np.copyto(w, w_new, where=crossed)
    np.copyto(mom, alpha * mom, where=crossed)


def sgd_update(w, g, m, lr, mu):
    m *= mu
    m += g
    w -= lr * m


def adam_update(w, g, m, n, lr, mu, nu, eps, cm, cn):
    n *= nu
    n += (1.0 - nu) * g * g
    m *= mu
    m += (1.0 - mu) * g
    denom = np.sqrt(n / cn)
    denom += eps
    w -= lr * (m / cm) / denom


def laprop_update(w, g, m, n, lr, mu, nu, eps, cm, cn):
    n *= nu
    n += (1.0 - nu) * g * g
    denom = np.sqrt(n / cn)
    denom += eps
    m *= mu
    m += (1.0 - mu) * (g / denom)
    w -= lr * (m / cm)


def clip_sq_values(u, eta, vol):
    """Per-sample squared error (clip(u+eta, +-vol) - u)**2.

    Returns the value array; callers reduce it themselves.
    """
    return (np.clip(u + eta, -vol, vol) - u) ** 2


def clip_sq_cv_values(u, eta, vol):
    """Per-sample control-variate residual z = error - eta**2.

    z is identically zero wherever u+eta lands inside the walls (there
    w - u = eta in exact arithmetic), so it is materialized only on wall
    crossings; that keeps the estimator exact for vol beyond the support
    edge instead of accumulating rounding fuzz from (u+eta)-u. Callers
    reduce the returned array themselves.
    """
    s = u + eta
    z = np.zeros_like(u)
    hi = s > vol
    lo = s < -vol
    d = vol - u[hi]
    z[hi] = d * d - eta[hi] * eta[hi]
    d = vol + u[lo]
    z[lo] = d * d - eta[lo] * eta[lo]
    return z


def flow_iter_identity(w, u_prime, step, vol, alpha, clamp):
    """One explicit-Euler step of the identity-correlation residual flow,
    followed by the wall transform (momentum-free). In-place on ``w``;
    returns max |change|.
    """
    w_old = w.copy()
    w -= step * (w - u_prime)
    if alpha != 1.0 and np.isfinite(vol):
        crossed = np.abs(w) > vol
        if crossed.any():
            w_new = alpha * w + (1.0 - alpha) * vol * np.sign(w)
            if clamp:
                np.clip(w_new, -vol, vol, out=w_new)
            np.copyto(w, w_new, where=crossed)
    d = np.abs(w - w_old)
    return float(d.max()) if d.size else 0.0
