"""Numeric hot kernels, one order-pinned numpy implementation each.

Products, matvecs and column sums add left to right over the inner index k
from +0.0, as ``acc = 0.0; acc += x[k]`` does; never via BLAS or pairwise sums,
which determinism and the oracle tests rule out. ``_sum_of_products`` writes
a chunk of k-slices of products after a slot carrying the running sum and
folds them into it with ``np.add.reduce(axis=0)``, one outer slice at a time
in order; k is never split into partial sums added up later. numpy sums
pairwise for a one-element output and along an axis of smallest stride, so
both stay off these paths. The products come from ``np.einsum`` with no
summed index, which writes 0.0 + x*y: that is x*y but for the sign of a zero
product, which a sum starting from +0.0 cannot see. (A broadcasting
``np.multiply`` gives the same sums but copies its inputs through buffers.)
One operand is staged: einsum's inner loop runs along the untiled one (the
second, or the first of an output built transposed), so each chunk's
k-slices of it are copied C-contiguous before the einsum unless they are
already. A transposed operand there (``matmul_nt``'s ``b.T``, the ``a.T`` of
an output built transposed) would otherwise stride through memory in the
inner loop, which took twice as long as the same product on contiguous
operands. The row-tiled operand gives each inner loop one element, so a
copy of it would shorten no loop. Staging only copies values; the
products, the k order and the carried sums are the same, so it changes no
bit.
Each product shape is planned once (``_plan``): whether the output is built
transposed, the row tile, the chunk length and the views of the staged
operand, the product slots and the carry slot. Every plan carves its views
from one module-level block, ``_scratch``, so a call allocates only its
output (and, for an output built transposed, the buffer it is copied out
of), and a run's many shapes keep one block resident. A tile's first chunk
is reduced straight into the output with ``initial=0.0`` (one k-slice adds
0.0), the sum from a +0.0 carry, so the output starts ``np.empty`` and that
chunk needs no carry copy. ``matmul_tn`` and ``colsum`` write into the
caller's ``out=`` array, as the backward pass does into its gradient views.
None of this moves a bit: plans and views fix only where values sit, never
which products are formed or the order they are added in, and p + 0.0 is
0.0 + p, signed zeros included.
The elementwise theory kernels work in place one block of ``_BLOCK``
elements at a time, through scratch blocks that a process allocates on
their first use and keeps (``_block``; the flow keeps one, the old values),
so a call in a hot loop allocates nothing. Each element sees the same
operations in the same order as a whole-array expression, no sum crosses a
block, and the max over block maxima keeps a nan as one max would, so
blocking changes no bit. For the same reason a flow iteration splits
across processes bit for bit: given a flow helper, ``flow_iter_identity``
updates the lower part of the flow while the helper updates the upper part
of the same shared buffers.
The clip kernels select without a masked copy, which branches on every run
of its mask (at mask density 0.5 one took 10-50x a plain ufunc pass, numpy
2.4 on a 2-vCPU Xeon): the wall distance is ``clip(u+eta, +-vol) - u``, and
``clip_sq_cv_values`` zeroes the lanes off the walls by ANDing their bits
with ``-int64(crossed)``, built in its float scratch. They write into a
block the caller passes (``out=``), so an MC estimate draws into and
computes in the same few blocks from its first sample to its last.
``volumize`` is the one kernel that evaluates the wall expression: training
calls it with the optimizer's momentum, and ``flow_iter_identity`` calls it
on each block with no momentum and no clamp. Walls at V = +0.0 are weight
decay: with alpha +0.0 or positive and finite, the flow takes its wall step
as the one multiply ``alpha*w``, which gives the general wall expression's
bits (the reason is at the branch); V = -0.0, alpha = -0.0 and alpha = inf
do not, and go through ``volumize``. ``_is_identity`` is the test, shared
with ``VolumizationConfig.enabled``, for walls that leave every value as it
is.
Callers look kernels up at call time as ``_kernels.<name>``, so one can be
swapped or wrapped in one place. Inputs are float64; callers validate.
"""

import numpy as np


def backend() -> str:
    """Name of the kernel implementation; there is only numpy."""
    return "numpy"


# float64 elements in a chunk's product slots and staged operand (512 KiB);
# a 256x256 k-slice of products fills it, so the widest training products
# need no row tiles. Also the block length of the elementwise theory kernels.
_BLOCK = 1 << 16
_NARROW = 16  # narrower outputs are built transposed, for long inner loops

# The one scratch block that every product plan carves its views from, and
# the plans by (k, n, m, _BLOCK). A call is never re-entered while it runs:
# sweep and theory workers are forked processes, each with its own copy.
_scratch = np.empty(0)
_plans = {}
# Blocks of at least _BLOCK elements by name, each allocated on its first use
# in a process and reused by every later call there (see _block).
_blocks = {}


def _block(name, dtype=np.float64):
    """The block called name: at least _BLOCK elements of dtype, allocated
    when this process first asks for it and the same array on every later
    call. A forked process starts with its caller's blocks."""
    b = _blocks.get(name)
    if b is None or len(b) < _BLOCK:
        b = _blocks[name] = np.empty(_BLOCK, dtype)
    return b


def _chunk(k, tile, cols):
    # k-slices per chunk, at least one: the carry slot, c product slots and
    # the c staged k-slices of the untiled operand fit one block
    return max(1, min(k, (_BLOCK - tile * cols) // (tile * cols + cols)))


def _plan(k, n, m):
    """The plan of an (n, m) product over k: (swap, spec, c, tile, tiles).

    The output (built transposed when ``swap``) is cut into whole-row tiles
    (never of one element), each summed over k in chunks of c slices. A tile
    is (r0, r1, chunks) and a chunk (k0, k1, ws, p, head, red): the staging
    view for its slices of the untiled operand, its product slots, and either
    the carry slot ``head`` followed by the product slots as ``red`` (c > 1),
    or the one product slot ``head`` and no ``red`` (c = 1).
    """
    global _scratch
    swap = m < _NARROW <= n
    rows, cols = (m, n) if swap else (n, m)
    tile = min(rows, max(1, _BLOCK // cols))
    c = _chunk(k, tile, cols)
    # halved tiles (of 64 rows or more) are worth their extra einsum calls
    # only when they put all of k in one chunk, which saves every carry. At
    # one slice per chunk there is no carry to save: one reduce over k slots
    # took longer than k in-place adds (800x8 @ 8x64 at 1.07x, 2000x8 @ 8x64
    # at 1.13x)
    half = tile
    while 1 < c < k and (half + 1) // 2 >= 64:
        half = (half + 1) // 2
        if _chunk(k, half, cols) == k:
            tile, c = half, k
    slots = (c + 1 if c > 1 else 1) * tile * cols
    need = slots + c * cols  # the slots, then the staged untiled operand
    if len(_scratch) < need:
        _plans.clear()  # their views hold the old block
        _scratch = np.empty(0)
        _scratch = np.empty(max(need, _BLOCK))
    s = _scratch
    chunks = {}  # by tile height; only the last tile can be shorter
    tiles = []
    for r0 in range(0, rows, tile):
        r = min(tile, rows - r0)
        if r not in chunks:
            views = {}  # by chunk length; only the last chunk can be shorter
            for ln in {c, k - (k - 1) // c * c}:
                red = s[:(ln + (c > 1)) * r * cols].reshape(-1, r, cols)
                views[ln] = (s[slots:slots + ln * cols].reshape(ln, cols),
                             *((red[1:], red[0], red) if c > 1 else (red, red[0], None)))
            chunks[r] = [(k0, min(k0 + c, k), *views[min(c, k - k0)])
                         for k0 in range(0, k, c)]
        tiles.append((r0, r0 + r, chunks[r]))
    plan = _plans[k, n, m, _BLOCK] = (swap, "ki,kj->kji" if swap else "ki,kj->kij",
                                      c, tile, tiles)
    return plan


def _sum_of_products(at, bt, out=None):
    """out[i, j] = ((+0.0 + at[0, i]*bt[0, j]) + at[1, i]*bt[1, j]) + ...,
    written into ``out`` (a new array when None), which is returned."""
    k, n = at.shape
    m = bt.shape[1]
    if k == 0 or n * m == 0:
        return np.zeros((n, m)) if out is None else _fill(out, 0.0)
    if n * m == 1:  # a one-element reduction is 1-D, which numpy sums pairwise
        s = np.add.accumulate(np.append(0.0, at * bt))[-1:].reshape(1, 1)
        return s if out is None else _fill(out, s)
    swap, spec, c, tile, tiles = _plans.get((k, n, m, _BLOCK)) or _plan(k, n, m)
    if swap:
        res = np.empty((m, n))
    else:
        res = np.empty((n, m)) if out is None else out
    # only the untiled operand is staged, and only if its chunks are not
    # C-contiguous already
    stage = not (at if swap else bt)[:c].flags.c_contiguous
    for r0, r1, chunks in tiles:
        o = res[r0:r1]
        x = at if swap else at[:, r0:r1]
        y = bt[:, r0:r1] if swap else bt
        for k0, k1, ws, p, head, red in chunks:
            xc, yc = x[k0:k1], y[k0:k1]
            if stage:
                np.copyto(ws, xc if swap else yc)
                xc, yc = (ws, yc) if swap else (xc, ws)
            np.einsum(spec, xc, yc, out=p)
            if not k0:  # the first chunk starts from +0.0, straight into o
                if red is None:
                    np.add(head, 0.0, out=o)
                else:
                    np.add.reduce(p, axis=0, out=o, initial=0.0)
            elif red is None:
                np.add(o, head, out=o)
            else:
                np.copyto(head, o)
                np.add.reduce(red, axis=0, out=o)
    if not swap:
        return res
    return np.ascontiguousarray(res.T) if out is None else _fill(out, res.T)


def _fill(out, values):
    np.copyto(out, values)
    return out


def matmul_nn(a, b):
    return _sum_of_products(a.T, b)


def matmul_tn(a, b, out=None):
    # a.T @ b with the shared leading axis as the inner index
    return _sum_of_products(a, b, out)


def matmul_nt(a, b):
    # a @ b.T
    return _sum_of_products(a.T, b.T)


def matvec(a, x):
    return _sum_of_products(a.T, x[:, None])[:, 0]


def matvec_t(a, x):
    # a.T @ x
    return _sum_of_products(a, x[:, None])[:, 0]


def colsum(m, out=None):
    if m.shape[1] == 1:
        s = np.add.accumulate(np.append(0.0, m))[-1:]
        return s if out is None else _fill(out, s)
    # C order keeps the reduced axis outermost
    return np.add.reduce(np.ascontiguousarray(m), axis=0, out=out, initial=0.0)


def _is_identity(vol, alpha):
    """True when the wall transform leaves every value as it is: alpha = 1,
    or no finite wall."""
    return alpha == 1.0 or not np.isfinite(vol)


def volumize(w, mom, vol, alpha, clamp):
    """In-place wall transform on a flat view ``w`` and, unless it is None,
    its momentum ``mom``.

    Elements with |w| > vol move to alpha*w + (1-alpha)*vol*sgn(w) and get
    their momentum scaled by alpha; everything else is untouched. This form
    is algebraically the same as w + (1-alpha)*(vol*sgn(w) - w) but is exact
    for the special cases the contract pins down bitwise: vol=0 gives
    alpha*w, alpha=0 gives a hard clip, alpha=1 is the identity.
    """
    if _is_identity(vol, alpha):
        return
    crossed = np.abs(w) > vol
    if not crossed.any():
        return
    # alpha*w + ((1-alpha)*vol)*sgn(w), formed in the sign block
    s = np.sign(w)
    np.multiply((1.0 - alpha) * vol, s, out=s)
    np.add(np.multiply(alpha, w), s, out=s)
    if clamp:
        np.clip(s, -vol, vol, out=s)
    np.copyto(w, s, where=crossed)
    if mom is not None:
        np.multiply(alpha, mom, out=s)
        np.copyto(mom, s, where=crossed)


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


def clip_sq_values(u, eta, vol, out=None):
    """Per-sample squared error (clip(u+eta, +-vol) - u)**2.

    Written into ``out`` (a new array when None), which is returned; callers
    reduce it themselves.
    """
    out = np.add(u, eta, out=out)
    np.clip(out, -vol, vol, out=out)
    out -= u
    out *= out
    return out


def clip_sq_cv_values(u, eta, vol, out=None):
    """Per-sample control-variate residual z = error - eta**2, for vol >= 0.

    z is identically zero wherever u+eta lands inside the walls (there
    w - u = eta in exact arithmetic), so it is materialized only on wall
    crossings; that keeps the estimator exact for vol beyond the support
    edge instead of accumulating rounding fuzz from (u+eta)-u. Works one
    block at a time in place; a block without crossings is only zeroed.
    Written into ``out`` (a new array when None), which is returned; callers
    reduce it themselves.
    """
    n = len(u)
    z = np.empty(n) if out is None else out
    t, crossed = _block("clip"), _block("clip mask", bool)
    for i in range(0, n, _BLOCK):
        ub, eb, zb = u[i:i + _BLOCK], eta[i:i + _BLOCK], z[i:i + _BLOCK]
        m = len(zb)
        s, c = t[:m], crossed[:m]
        np.add(ub, eb, out=s)
        np.abs(s, out=zb)
        np.greater(zb, vol, out=c)
        if not c.any():
            zb.fill(0.0)
            continue
        # d = clip(s, +-vol) - u: vol - u above the walls, and below them
        # -vol - u, which is -(vol + u) exactly, so d*d keeps its bits
        np.clip(s, -vol, vol, out=s)
        np.subtract(s, ub, out=zb)
        np.multiply(zb, zb, out=zb)
        np.multiply(eb, eb, out=s)
        np.subtract(zb, s, out=zb)
        # +0.0 off the walls, nan and inf lanes included: AND the bits with
        # -int64(crossed), all ones on a crossing and zero elsewhere
        keep = s.view(np.int64)
        np.copyto(keep, c)
        np.negative(keep, out=keep)
        bits = zb.view(np.int64)
        np.bitwise_and(bits, keep, out=bits)
    return z


def _flow_part(w, u_prime, step, vol, alpha):
    """flow_iter_identity's body on one part of a flow: in place on ``w``,
    one block at a time; returns max |change|."""
    n = len(w)
    # V = +0.0 is weight decay, and alpha*w is exact: every nonzero w
    # crosses |w| > +0.0 and pull*sgn(w) is a zero, so alpha*w + pull*sgn(w)
    # is alpha*w unless alpha*w is itself a zero. That takes alpha < 1, where
    # pull = (1-alpha)*(+0.0) is +0.0 and both zeros carry w's sign. A
    # non-crossing +-0.0 or nan times alpha is itself. V = -0.0 (at alpha 0 a
    # negative w gives +0.0 there), alpha = -0.0 (flips the sign of zeros)
    # and alpha = inf (pull is nan) break this, so signs and finiteness count.
    decay = (not _is_identity(vol, alpha) and vol == 0.0 and not np.signbit(vol)
             and 0.0 <= alpha < np.inf and not np.signbit(alpha))
    old = _block("flow old")
    dmax = 0.0
    for i in range(0, n, _BLOCK):
        wb, ub = w[i:i + _BLOCK], u_prime[i:i + _BLOCK]
        o = old[:len(wb)]
        np.copyto(o, wb)
        np.subtract(wb, ub, out=wb)
        np.multiply(step, wb, out=wb)
        np.subtract(o, wb, out=wb)
        if decay:
            np.multiply(alpha, wb, out=wb)
        else:
            volumize(wb, None, vol, alpha, False)
        np.subtract(wb, o, out=o)
        np.abs(o, out=o)
        dmax = np.maximum(dmax, o.max())  # propagates nan, as one max would
    return dmax


def _half(n):
    """Where numpy's pairwise sum splits n > 128 values: about half, rounded
    down to a multiple of its unroll width 8. A split flow's helper takes
    its coordinates from there up, so the sums of the two parts add up to
    np.sum of the whole (see _flow_error in theory)."""
    half = n // 2
    return half - half % 8


def flow_iter_identity(w, u_prime, step, vol, alpha, far=None, it=0):
    """One explicit-Euler step of the whitened-input residual flow,
    w - step*(w - u'), followed by the wall transform (momentum-free, no
    clamp), which is ``volumize``'s. In-place on ``w``, one block at a time,
    keeping the block's old values to measure the change; returns max
    |change|, nan if any change is nan.

    At vol = +0.0 (sign bit clear) and alpha +0.0 or positive and finite,
    the wall transform is weight decay and runs as ``w *= alpha``, bit for
    bit the general path's result.

    ``far`` is None, or a flow helper (a _pool.served process answering
    with theory's flow answer over the same w and u_prime in shared
    memory). Then the helper is sent ("iterate", step, vol, alpha) and
    updates w[_half(n):] while this call updates the part below, and the
    change is the larger of the parts' changes: every element sees the same
    operations, the helper's float is its part's max, and a max of maxima is
    the max, nan included, so the bits are those of one process. ``it``
    numbers the iteration for the VolumizeError raised when the helper has
    died.
    """
    if far is None:
        return float(_flow_part(w, u_prime, step, vol, alpha))
    far.send(("iterate", step, vol, alpha))
    h = _half(len(w))
    dmax = _flow_part(w[:h], u_prime[:h], step, vol, alpha)
    return float(np.maximum(dmax, far.receive(f"its half of iteration {it}")))
